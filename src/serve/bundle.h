#ifndef BIRNN_SERVE_BUNDLE_H_
#define BIRNN_SERVE_BUNDLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "core/model.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "util/status.h"

namespace birnn::serve {

/// One cell of an online detection request: the raw (dirty) value plus the
/// attribute it belongs to, either by index or by name (name wins when the
/// index is negative).
struct CellQuery {
  int attr = -1;
  std::string attr_name;
  std::string value;
};

/// Accounting of one AppendQueryCell call: what the frozen prepare pipeline
/// saw before encoding. Streaming sessions fold these into their live
/// column statistics (rolling max length, empty rate, OOV-char rate).
struct EncodedCellInfo {
  int prepared_len = 0;   ///< value length after trim + truncation.
  bool empty = false;     ///< prepared value has no content (incl. "NaN").
  int64_t oov_chars = 0;  ///< characters outside the train dictionary.
};

/// A detector reconstructed from a bundle: the trained model plus
/// everything needed to encode serving-time cells exactly as the training
/// frame's cells were encoded (dictionary, per-attribute length_norm
/// denominators, prepare transforms), and the frozen train-time column
/// statistics streaming sessions diff their live ingest against. Movable,
/// not copyable; safe to share read-only across threads once loaded.
class LoadedDetector {
 public:
  const core::ModelConfig& config() const { return trained_.config; }
  const core::ErrorDetectionModel& model() const { return *trained_.model; }
  const std::vector<std::string>& attr_names() const {
    return trained_.attr_names;
  }
  int n_attrs() const { return trained_.config.n_attrs; }

  /// Index of a named attribute, or -1 if absent.
  int AttrIndex(const std::string& name) const;

  /// Distinct cell contents in the table this detector was trained on (0
  /// when unknown). The serve plane uses it to pre-size the cross-request
  /// verdict memo, so the first whole-table sweep never grows through
  /// rehashes.
  int64_t expected_unique_cells() const {
    return trained_.train_unique_cells;
  }

  /// core::DatasetContentFingerprint of the encoded training frame (0 when
  /// unknown): identifies *which* table the bundle was trained on.
  uint64_t content_fingerprint() const {
    return trained_.content_fingerprint;
  }

  /// data::CharIndex::Fingerprint of the train-time dictionary.
  uint64_t char_fingerprint() const { return trained_.chars.Fingerprint(); }
  /// Longest value_x per attribute over the training frame — the frozen
  /// length_norm denominators.
  const std::vector<int32_t>& attr_max_value_len() const {
    return trained_.attr_max_value_len;
  }
  /// Per-attribute empty-value rate of the prepared training frame.
  const std::vector<float>& attr_empty_rate() const {
    return trained_.attr_empty_rate;
  }
  /// Per-attribute predicted-error rate of the training table's
  /// whole-table sweep.
  const std::vector<float>& attr_error_rate() const {
    return trained_.attr_error_rate;
  }
  const data::PrepareOptions& prepare() const { return trained_.prepare; }
  /// The frozen train-time character dictionary — a fine-tuned candidate
  /// bundle keeps it verbatim so encodings stay comparable across
  /// generations (adapt/adapt.h).
  const data::CharIndex& chars() const { return trained_.chars; }

  /// Prepares `ds` to receive AppendQueryCell cells (clears it in place,
  /// keeping its buffers' capacity, and installs the detector's max_len /
  /// vocab / n_attrs shape).
  void InitQueryDataset(data::EncodedDataset* ds) const;

  /// Encodes one raw cell exactly as EncodeQueries does — the frozen
  /// prepare pipeline replayed on a single value — and appends it to `ds`
  /// (which must have been InitQueryDataset'd or previously appended to by
  /// this detector). `info`, when non-null, receives the prepared length,
  /// emptiness and OOV-character count the streaming statistics need.
  /// Fails on an out-of-range attribute index. Allocates nothing once `ds`
  /// has room for the cell.
  Status AppendQueryCell(int attr, std::string_view value,
                         data::EncodedDataset* ds,
                         EncodedCellInfo* info = nullptr) const;

  /// Encodes raw query cells into an EncodedDataset ready for the
  /// inference engine, replicating the training-time pipeline bit-exactly:
  /// leading-whitespace trim, truncation to the training max value length,
  /// dictionary lookup (unseen characters map to the unknown index), and
  /// per-attribute length_norm with the training-frame denominator. A cell
  /// content that appeared in the training table therefore encodes to the
  /// identical model input, so served predictions match the offline sweep
  /// bit for bit. Fails on an unknown attribute name or out-of-range index.
  StatusOr<data::EncodedDataset> EncodeQueries(
      const std::vector<CellQuery>& cells) const;

 private:
  friend StatusOr<LoadedDetector> MakeLoadedDetector(
      core::TrainedDetector trained);

  core::TrainedDetector trained_;
};

/// Writes a trained detector to `dir` (created if missing) as a two-file
/// bundle:
///   weights.ckpt — checkpoint (nn/serialize.h) of every model parameter,
///                  the batch-norm running statistics as the pseudo
///                  entries "__bn/running_mean" / "__bn/running_var";
///   manifest.txt — version 5, line-oriented text: the dictionary index
///                  table, one `attr` and one `attr_stats` line per
///                  attribute, then one line per scalar key (model
///                  architecture, prepare options, memo hint, provenance,
///                  `char_fingerprint`, and `weights_checksum`, the
///                  checkpoint's FNV-1a trailer), closed by a `checksum`
///                  line over every byte before it.
/// Each file is replaced durably (util::WriteFileAtomic), weights first and
/// the manifest last, so after a crash at any point the directory loads as
/// the old bundle, the new one, or a typed error. Fails with
/// InvalidArgument unless `trained` carries frozen column statistics.
Status SaveDetectorBundle(const core::TrainedDetector& trained,
                          const std::string& dir);

/// Reconstructs a detector from a bundle directory without retraining.
/// Accepts only manifest version 5 (any other version is refused at its
/// first line) with intact checksums whose `weights_checksum` names the
/// checkpoint beside it. Every malformed, torn or oversized bundle is a
/// typed error.
StatusOr<LoadedDetector> LoadDetectorBundle(const std::string& dir);

/// Builds a LoadedDetector directly from in-memory trained artifacts
/// (consumes the model): the no-disk path for in-process serving and tests,
/// and the last step of LoadDetectorBundle. Same validation as
/// SaveDetectorBundle.
StatusOr<LoadedDetector> MakeLoadedDetector(core::TrainedDetector trained);

/// Appends every cell of `src` to `dst` (shapes must match). The micro-
/// batcher's dataset coalescing primitive.
void AppendDataset(const data::EncodedDataset& src, data::EncodedDataset* dst);

}  // namespace birnn::serve

#endif  // BIRNN_SERVE_BUNDLE_H_
