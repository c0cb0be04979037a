#ifndef BIRNN_STREAM_SESSION_H_
#define BIRNN_STREAM_SESSION_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/content_index.h"
#include "core/inference.h"
#include "serve/bundle.h"
#include "util/status.h"

namespace birnn::stream {

/// One CDC record against a streamed table. Inserts carry a full tuple
/// (one value per attribute), updates a single cell, deletes just the
/// tuple id — the three shapes a change-data-capture feed produces.
enum class DeltaKind { kInsert, kUpdate, kDelete };

struct Delta {
  DeltaKind kind = DeltaKind::kInsert;
  int64_t row_id = 0;
  /// kUpdate: which cell changed.
  int attr = -1;
  /// kUpdate: the new raw value.
  std::string value;
  /// kInsert: the full tuple, one raw value per attribute.
  std::vector<std::string> values;
};

/// The detector's answer for one materialized cell. `version` is the
/// session-wide delta sequence number that produced it — monotonically
/// increasing, so a reader holding a verdict can tell whether a later
/// delta superseded it.
struct CellVerdict {
  bool is_error = false;
  float p_error = 0.0f;
  uint64_t version = 0;
};

/// Which live statistic diverged from its frozen train-time baseline.
enum class DriftKind {
  kMaxLen = 0,    ///< prepared lengths outgrew the train-time maximum.
  kOovRate = 1,   ///< characters outside the train dictionary.
  kEmptyRate = 2, ///< empty-value rate moved away from the frozen rate.
  kErrorRate = 3, ///< error-verdict rate moved away from the frozen rate.
};

const char* DriftKindName(DriftKind kind);

/// A latched drift alarm: attribute `attr`'s live statistic crossed its
/// threshold relative to the frozen baseline. Fires once per (attr, kind)
/// for the session's lifetime.
struct DriftAlarm {
  int attr = 0;
  DriftKind kind = DriftKind::kMaxLen;
  /// The frozen train-time baseline (max length, 0, empty rate, error rate
  /// respectively per kind).
  float frozen = 0.0f;
  /// The live statistic at the moment the alarm latched.
  float live = 0.0f;
};

/// Drift-detection thresholds. Alarms only arm once an attribute has seen
/// `min_cells` streamed cells: rates over a handful of deltas are noise.
struct DriftOptions {
  int64_t min_cells = 256;
  /// kMaxLen fires when a prepared value's length exceeds the frozen
  /// per-attribute maximum by this factor.
  float max_len_growth = 1.5f;
  /// kOovRate fires when the live OOV-character fraction exceeds this (the
  /// frozen baseline is exactly 0: the train dictionary covers the
  /// training table by construction).
  float oov_rate_threshold = 0.01f;
  /// kEmptyRate / kErrorRate fire when |live - frozen| exceeds these.
  float empty_rate_delta = 0.10f;
  float error_rate_delta = 0.10f;
};

struct SessionOptions {
  core::ContentMemoOptions memo;
  DriftOptions drift;
  /// Most-recently-touched tuples kept for drift-triggered adaptation
  /// (adapt/adapt.h): inserts and updates capture the tuple's current
  /// values + verdicts, deletes drop it, and the least recently touched
  /// tuple is evicted past this capacity. 0 disables the reservoir.
  int64_t reservoir_capacity = 4096;
};

/// One tuple snapshot in the adaptation reservoir: the values as last
/// ingested and the detector's verdict flags for them (the pseudo-labels a
/// fine-tune falls back to when no human label is available).
struct ReservoirRow {
  int64_t row_id = 0;
  std::vector<std::string> values;
  std::vector<uint8_t> verdicts;  ///< is_error flag per attribute.
};

/// Rolling per-attribute ingest statistics, diffed against the bundle's
/// frozen baselines for drift detection.
struct LiveAttrStats {
  int64_t cells = 0;       ///< streamed cells scored for this attribute.
  int64_t empties = 0;     ///< of which prepared to empty.
  int64_t error_verdicts = 0;
  int64_t chars = 0;       ///< prepared characters seen.
  int64_t oov_chars = 0;   ///< of which outside the train dictionary.
  int32_t max_prepared_len = 0;
};

/// Session-level accounting, exported through the serve plane's `stats` op
/// and asserted on by tests (re-scoring minimality is observable here).
struct SessionStats {
  int64_t deltas = 0;
  int64_t inserts = 0;
  int64_t updates = 0;
  int64_t deletes = 0;
  /// Cells re-encoded and pushed through the (memoized) engine. An update
  /// adds exactly 1, an insert exactly n_attrs, a delete exactly 0 — the
  /// incremental contract.
  int64_t cells_scored = 0;
  /// Of `cells_scored`, how many the cross-delta content memo answered
  /// without touching the model.
  int64_t memo_hits = 0;
  int64_t rows = 0;          ///< live materialized tuples.
  int64_t drift_alarms = 0;  ///< alarms currently latched.
  int64_t drift_resets = 0;  ///< ResetDriftAlarms calls so far.
  int64_t reservoir_rows = 0;  ///< tuples held in the adaptation reservoir.
  uint64_t version = 0;      ///< last applied delta's sequence number.
};

/// CDC-style streaming detection against one loaded detector bundle: apply
/// insert/update/delete deltas, and only the affected cells are re-encoded
/// (bit-identically to offline preparation, via the bundle's frozen column
/// statistics) and re-scored through a memoized inference engine. Per-cell
/// verdicts are kept in a versioned store; live ingest statistics are
/// diffed against the frozen train-time baselines to latch drift alarms.
///
/// Thread-safe: all public methods may be called concurrently.
class TableSession {
 public:
  /// `detector` is shared (and kept alive) by the session.
  static StatusOr<std::unique_ptr<TableSession>> Create(
      std::shared_ptr<const serve::LoadedDetector> detector,
      SessionOptions options = {});

  TableSession(const TableSession&) = delete;
  TableSession& operator=(const TableSession&) = delete;

  /// Applies one delta: the affected cells (the whole tuple for an insert,
  /// one cell for an update, none for a delete) are re-encoded and
  /// re-scored, their verdicts stored under the delta's new version.
  /// Inserting an existing row_id or updating/deleting a missing one
  /// fails without mutating state. When `affected` is non-null it receives
  /// the (attr, verdict) pairs the delta produced, in attribute order.
  Status Apply(const Delta& delta,
               std::vector<std::pair<int, CellVerdict>>* affected = nullptr);

  /// Apply's three deltas by their fields. Insert moves `values` into the
  /// session's row instead of copying them.
  Status Insert(int64_t row_id, std::vector<std::string> values,
                std::vector<std::pair<int, CellVerdict>>* affected = nullptr);
  Status Update(int64_t row_id, int attr, std::string value,
                std::vector<std::pair<int, CellVerdict>>* affected = nullptr);
  Status Delete(int64_t row_id);

  /// Latest verdict for a materialized cell; NotFound for an absent row.
  StatusOr<CellVerdict> GetVerdict(int64_t row_id, int attr) const;

  /// Stored verdicts over the materialized table, tuple-major
  /// (rows ascending by row_id, attributes in order) — the layout of a
  /// batch DetectionReport::predicted when row_ids are 0..n-1. Replaying a
  /// table as inserts and calling this must byte-match the offline report.
  std::vector<uint8_t> MaterializedVerdicts() const;

  /// Re-detects the whole materialized table from scratch through the
  /// batch path (one EncodeQueries + engine sweep, no memo), in
  /// MaterializedVerdicts order. The equivalence oracle: incremental
  /// verdicts must equal this bit for bit.
  StatusOr<std::vector<uint8_t>> DetectAll();

  /// Alarms latched so far (order of first firing).
  std::vector<DriftAlarm> drift_alarms() const;

  /// Distinct attributes with at least one latched alarm, ascending — the
  /// signal adapt::Adapt biases its fine-tune sample toward.
  std::vector<int> DriftedAttrs() const;

  /// Re-arms drift detection: drops every latched alarm AND restarts the
  /// live per-attribute statistics windows, so the next `min_cells`
  /// streamed cells are judged fresh (against whatever baselines the
  /// serving bundle carries — after a promotion that is the new bundle's).
  /// Returns the number of alarms cleared.
  int64_t ResetDriftAlarms();

  /// The adaptation reservoir, least → most recently touched.
  std::vector<ReservoirRow> ReservoirSnapshot() const;

  SessionStats stats() const;
  LiveAttrStats live_attr_stats(int attr) const;

  int n_attrs() const { return detector_->n_attrs(); }
  const serve::LoadedDetector& detector() const { return *detector_; }

 private:
  TableSession(std::shared_ptr<const serve::LoadedDetector> detector,
               SessionOptions options);

  struct RowState {
    std::vector<std::string> values;
    std::vector<CellVerdict> verdicts;
    /// The row's slot in reservoir_, valid while `in_reservoir`.
    bool in_reservoir = false;
    std::list<int64_t>::iterator reservoir_pos;
  };
  using RowMap = std::map<int64_t, RowState>;

  /// The insert delta: validates the tuple, scores it and stores it,
  /// taking ownership of `values`. Caller holds mu_.
  Status InsertLocked(int64_t row_id, std::vector<std::string> values,
                      std::vector<std::pair<int, CellVerdict>>* affected);

  /// Encodes and scores `cells` (attr, raw value) for one tuple under
  /// `version`, writing verdicts into `row` and updating live statistics.
  /// The views must outlive the call. Caller holds mu_.
  Status ScoreCellsLocked(
      const std::vector<std::pair<int, std::string_view>>& cells,
      uint64_t version, RowState* row,
      std::vector<std::pair<int, CellVerdict>>* affected);

  /// Re-evaluates drift for `attr` against the frozen baselines, latching
  /// new alarms. Caller holds mu_.
  void CheckDriftLocked(int attr);
  void LatchAlarmLocked(int attr, DriftKind kind, float frozen, float live);

  /// Marks `row` as the reservoir's most recently touched tuple, evicting
  /// the least recently touched one past capacity. Caller holds mu_.
  void TouchReservoirLocked(RowMap::iterator row);

  std::shared_ptr<const serve::LoadedDetector> detector_;
  SessionOptions options_;

  mutable std::mutex mu_;
  core::InferenceEngine engine_;
  core::ContentMemo memo_;
  /// Ordered so MaterializedVerdicts walks rows ascending by row_id.
  RowMap rows_;
  uint64_t version_ = 0;
  SessionStats stats_;
  std::vector<LiveAttrStats> live_;
  /// Latched (attr * 4 + kind) alarm flags + the alarms in firing order.
  std::vector<uint8_t> alarm_latched_;
  std::vector<DriftAlarm> alarms_;
  /// Adaptation reservoir: row ids, least → most recently touched. Inserts
  /// and updates touch a row in its current state and deletes drop it, so a
  /// held tuple's snapshot is always `rows_[id]`: ReservoirSnapshot reads it
  /// from there instead of the reservoir keeping copies.
  std::list<int64_t> reservoir_;
  /// Per-delta scratch reused under mu_, so a memo-hit delta allocates
  /// nothing: the (attr, raw value) cells to score, their encoding and
  /// prepare accounting, and the engine's probabilities.
  std::vector<std::pair<int, std::string_view>> cells_;
  data::EncodedDataset query_;
  std::vector<serve::EncodedCellInfo> infos_;
  std::vector<float> probs_;
};

}  // namespace birnn::stream

#endif  // BIRNN_STREAM_SESSION_H_
