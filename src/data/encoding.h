#ifndef BIRNN_DATA_ENCODING_H_
#define BIRNN_DATA_ENCODING_H_

#include <cstdint>
#include <vector>

#include "data/dictionary.h"
#include "data/prepare.h"

namespace birnn::data {

/// Numeric model inputs for a set of cells: fixed-length padded character
/// index sequences (X), attribute ids (X_attribute), length_norm values and
/// labels (Y). Produced from a CellFrame by `EncodeCells`.
struct EncodedDataset {
  int max_len = 0;   ///< padded sequence length (global, per the paper).
  int vocab = 0;     ///< character vocabulary incl. pad + unknown.
  int n_attrs = 0;   ///< attribute vocabulary for the metadata branch.

  /// Character ids, row-major: seqs[i * max_len + t]; 0-padded at the end.
  std::vector<int32_t> seqs;
  std::vector<int32_t> attrs;        ///< attribute id per cell.
  std::vector<float> length_norm;    ///< per cell.
  std::vector<int32_t> labels;       ///< 0/1 per cell.
  std::vector<int64_t> row_ids;      ///< owning tuple id per cell.

  int64_t num_cells() const { return static_cast<int64_t>(labels.size()); }

  /// Character id of cell i at time step t.
  int32_t seq_at(int64_t i, int t) const {
    return seqs[static_cast<size_t>(i) * max_len + static_cast<size_t>(t)];
  }

  /// Number of leading character ids of cell i up to and including the last
  /// non-pad id — the cell's content length; steps >= effective_len(i) are
  /// all padding (id 0).
  int effective_len(int64_t i) const;

  /// Stable 64-bit content key of cell i (FNV-1a over the attribute id, the
  /// length_norm bit pattern and the character ids up to the effective
  /// length). The model's prediction for a cell is a pure function of
  /// exactly these inputs, so cells with equal content — confirmed via
  /// `CellContentEquals`, the hash alone can collide — are interchangeable
  /// under memoized inference.
  uint64_t CellContentHash(int64_t i) const;

  /// True if cells a and b have identical model inputs (attribute id,
  /// length_norm and character sequence).
  bool CellContentEquals(int64_t a, int64_t b) const;
};

/// Encodes every cell of `frame` using the value dictionary: character
/// sequences padded with 0 ("end indicator") to the global maximum length.
/// Characters outside `chars` map deterministically to the reserved
/// unknown index and — when `oov_chars` is non-null — are counted, so a
/// frame encoded against a foreign (e.g. train-time) dictionary cannot
/// silently desync: every OOV occurrence is visible to the caller.
EncodedDataset EncodeCells(const CellFrame& frame, const CharIndex& chars,
                           int64_t* oov_chars = nullptr);

/// Train/test split by tuple id: cells whose row_id is in `train_ids` form
/// `train`, all other cells form `test` (the paper's setup: 20 labeled
/// tuples for training, everything else for testing). A null `test` fills
/// only `train` — the test split of a whole table is nearly a copy of it.
void SplitByRowIds(const EncodedDataset& all,
                   const std::vector<int64_t>& train_ids, EncodedDataset* train,
                   EncodedDataset* test);

/// Extracts the subset of cells at `indices` (in order).
EncodedDataset TakeCells(const EncodedDataset& all,
                         const std::vector<int64_t>& indices);

}  // namespace birnn::data

#endif  // BIRNN_DATA_ENCODING_H_
