#include "stream/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.h"

namespace birnn::stream {

const char* DriftKindName(DriftKind kind) {
  switch (kind) {
    case DriftKind::kMaxLen:
      return "max_len";
    case DriftKind::kOovRate:
      return "oov_rate";
    case DriftKind::kEmptyRate:
      return "empty_rate";
    case DriftKind::kErrorRate:
      return "error_rate";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<TableSession>> TableSession::Create(
    std::shared_ptr<const serve::LoadedDetector> detector,
    SessionOptions options) {
  if (detector == nullptr) {
    return Status::InvalidArgument("TableSession needs a detector");
  }
  // Pre-size the verdict memo for the table the detector was trained on
  // unless the caller chose a hint themselves.
  if (options.memo.expected_entries == 0) {
    options.memo.expected_entries = detector->expected_unique_cells();
  }
  return std::unique_ptr<TableSession>(
      new TableSession(std::move(detector), std::move(options)));
}

TableSession::TableSession(
    std::shared_ptr<const serve::LoadedDetector> detector,
    SessionOptions options)
    : detector_(std::move(detector)),
      options_(std::move(options)),
      engine_(detector_->model(), core::InferenceOptions{}),
      memo_(options_.memo) {
  const size_t n = static_cast<size_t>(detector_->n_attrs());
  live_.assign(n, LiveAttrStats{});
  alarm_latched_.assign(n * 4, 0);
}

Status TableSession::Apply(
    const Delta& delta, std::vector<std::pair<int, CellVerdict>>* affected) {
  if (affected != nullptr) affected->clear();
  std::lock_guard<std::mutex> lock(mu_);
  const int n = detector_->n_attrs();
  switch (delta.kind) {
    case DeltaKind::kInsert:
      return InsertLocked(delta.row_id, delta.values, affected);
    case DeltaKind::kUpdate: {
      if (delta.attr < 0 || delta.attr >= n) {
        return Status::InvalidArgument("attribute index out of range: " +
                                       std::to_string(delta.attr));
      }
      auto it = rows_.find(delta.row_id);
      if (it == rows_.end()) {
        return Status::NotFound("no such row: " +
                                std::to_string(delta.row_id));
      }
      cells_.clear();
      cells_.emplace_back(delta.attr, delta.value);
      BIRNN_RETURN_IF_ERROR(
          ScoreCellsLocked(cells_, version_ + 1, &it->second, affected));
      ++version_;
      it->second.values[static_cast<size_t>(delta.attr)] = delta.value;
      TouchReservoirLocked(it);
      ++stats_.deltas;
      ++stats_.updates;
      stats_.version = version_;
      CheckDriftLocked(delta.attr);
      OBS_COUNTER_ADD("stream.deltas", 1);
      return Status::OK();
    }
    case DeltaKind::kDelete: {
      auto it = rows_.find(delta.row_id);
      if (it == rows_.end()) {
        return Status::NotFound("no such row: " +
                                std::to_string(delta.row_id));
      }
      if (it->second.in_reservoir) {
        reservoir_.erase(it->second.reservoir_pos);
        stats_.reservoir_rows = static_cast<int64_t>(reservoir_.size());
      }
      rows_.erase(it);
      ++version_;
      ++stats_.deltas;
      ++stats_.deletes;
      stats_.rows = static_cast<int64_t>(rows_.size());
      stats_.version = version_;
      OBS_COUNTER_ADD("stream.deltas", 1);
      return Status::OK();
    }
  }
  return Status::Internal("unknown delta kind");
}

Status TableSession::Insert(
    int64_t row_id, std::vector<std::string> values,
    std::vector<std::pair<int, CellVerdict>>* affected) {
  if (affected != nullptr) affected->clear();
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(row_id, std::move(values), affected);
}

Status TableSession::InsertLocked(
    int64_t row_id, std::vector<std::string> values,
    std::vector<std::pair<int, CellVerdict>>* affected) {
  const int n = detector_->n_attrs();
  if (static_cast<int>(values.size()) != n) {
    return Status::InvalidArgument(
        "insert carries " + std::to_string(values.size()) +
        " values for " + std::to_string(n) + " attributes");
  }
  if (rows_.count(row_id) > 0) {
    return Status::FailedPrecondition("row already exists: " +
                                      std::to_string(row_id));
  }
  RowState row;
  row.values = std::move(values);
  row.verdicts.assign(static_cast<size_t>(n), CellVerdict{});
  cells_.clear();
  for (int a = 0; a < n; ++a) {
    cells_.emplace_back(a, row.values[static_cast<size_t>(a)]);
  }
  BIRNN_RETURN_IF_ERROR(
      ScoreCellsLocked(cells_, version_ + 1, &row, affected));
  ++version_;
  TouchReservoirLocked(rows_.emplace(row_id, std::move(row)).first);
  ++stats_.deltas;
  ++stats_.inserts;
  stats_.rows = static_cast<int64_t>(rows_.size());
  stats_.version = version_;
  for (int a = 0; a < n; ++a) CheckDriftLocked(a);
  OBS_COUNTER_ADD("stream.deltas", 1);
  return Status::OK();
}

Status TableSession::Update(
    int64_t row_id, int attr, std::string value,
    std::vector<std::pair<int, CellVerdict>>* affected) {
  Delta d;
  d.kind = DeltaKind::kUpdate;
  d.row_id = row_id;
  d.attr = attr;
  d.value = std::move(value);
  return Apply(d, affected);
}

Status TableSession::Delete(int64_t row_id) {
  Delta d;
  d.kind = DeltaKind::kDelete;
  d.row_id = row_id;
  return Apply(d);
}

Status TableSession::ScoreCellsLocked(
    const std::vector<std::pair<int, std::string_view>>& cells,
    uint64_t version, RowState* row,
    std::vector<std::pair<int, CellVerdict>>* affected) {
  OBS_SPAN("stream.score_cells");
  detector_->InitQueryDataset(&query_);
  infos_.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    BIRNN_RETURN_IF_ERROR(detector_->AppendQueryCell(
        cells[i].first, cells[i].second, &query_, &infos_[i]));
  }
  const int64_t hits = engine_.PredictProbsMemoized(query_, &memo_, &probs_);
  stats_.cells_scored += query_.num_cells();
  stats_.memo_hits += hits;
  OBS_COUNTER_ADD("stream.cells_scored", query_.num_cells());
  OBS_COUNTER_ADD("stream.memo_hits", hits);
  for (size_t i = 0; i < cells.size(); ++i) {
    const int attr = cells[i].first;
    const serve::EncodedCellInfo& info = infos_[i];
    CellVerdict v;
    v.p_error = probs_[i];
    v.is_error = probs_[i] > 0.5f;
    v.version = version;
    row->verdicts[static_cast<size_t>(attr)] = v;
    if (affected != nullptr) affected->emplace_back(attr, v);
    LiveAttrStats& s = live_[static_cast<size_t>(attr)];
    ++s.cells;
    if (info.empty) ++s.empties;
    if (v.is_error) ++s.error_verdicts;
    s.chars += info.prepared_len;
    s.oov_chars += info.oov_chars;
    s.max_prepared_len = std::max(s.max_prepared_len,
                                  static_cast<int32_t>(info.prepared_len));
  }
  return Status::OK();
}

void TableSession::CheckDriftLocked(int attr) {
  const LiveAttrStats& s = live_[static_cast<size_t>(attr)];
  if (s.cells < options_.drift.min_cells) return;
  const DriftOptions& d = options_.drift;
  const int32_t frozen_max =
      detector_->attr_max_value_len()[static_cast<size_t>(attr)];
  if (frozen_max > 0 &&
      static_cast<float>(s.max_prepared_len) >
          static_cast<float>(frozen_max) * d.max_len_growth) {
    LatchAlarmLocked(attr, DriftKind::kMaxLen,
                     static_cast<float>(frozen_max),
                     static_cast<float>(s.max_prepared_len));
  }
  if (s.chars > 0) {
    const float oov =
        static_cast<float>(s.oov_chars) / static_cast<float>(s.chars);
    // The frozen baseline is exactly 0: the train dictionary covers every
    // character of the training table by construction.
    if (oov > d.oov_rate_threshold) {
      LatchAlarmLocked(attr, DriftKind::kOovRate, 0.0f, oov);
    }
  }
  const float empty =
      static_cast<float>(s.empties) / static_cast<float>(s.cells);
  const float frozen_empty =
      detector_->attr_empty_rate()[static_cast<size_t>(attr)];
  if (std::fabs(empty - frozen_empty) > d.empty_rate_delta) {
    LatchAlarmLocked(attr, DriftKind::kEmptyRate, frozen_empty, empty);
  }
  const float error =
      static_cast<float>(s.error_verdicts) / static_cast<float>(s.cells);
  const float frozen_error =
      detector_->attr_error_rate()[static_cast<size_t>(attr)];
  if (std::fabs(error - frozen_error) > d.error_rate_delta) {
    LatchAlarmLocked(attr, DriftKind::kErrorRate, frozen_error, error);
  }
}

void TableSession::LatchAlarmLocked(int attr, DriftKind kind, float frozen,
                                    float live) {
  const size_t slot =
      static_cast<size_t>(attr) * 4 + static_cast<size_t>(kind);
  if (alarm_latched_[slot] != 0) return;
  alarm_latched_[slot] = 1;
  DriftAlarm alarm;
  alarm.attr = attr;
  alarm.kind = kind;
  alarm.frozen = frozen;
  alarm.live = live;
  alarms_.push_back(alarm);
  ++stats_.drift_alarms;
  OBS_COUNTER_ADD("stream.drift_alarms", 1);
}

StatusOr<CellVerdict> TableSession::GetVerdict(int64_t row_id,
                                               int attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (attr < 0 || attr >= detector_->n_attrs()) {
    return Status::InvalidArgument("attribute index out of range: " +
                                   std::to_string(attr));
  }
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    return Status::NotFound("no such row: " + std::to_string(row_id));
  }
  return it->second.verdicts[static_cast<size_t>(attr)];
}

std::vector<uint8_t> TableSession::MaterializedVerdicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t> out;
  out.reserve(rows_.size() * static_cast<size_t>(detector_->n_attrs()));
  for (const auto& [row_id, row] : rows_) {
    (void)row_id;
    for (const CellVerdict& v : row.verdicts) {
      out.push_back(v.is_error ? 1 : 0);
    }
  }
  return out;
}

StatusOr<std::vector<uint8_t>> TableSession::DetectAll() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<serve::CellQuery> queries;
  queries.reserve(rows_.size() * static_cast<size_t>(detector_->n_attrs()));
  for (const auto& [row_id, row] : rows_) {
    (void)row_id;
    for (int a = 0; a < detector_->n_attrs(); ++a) {
      serve::CellQuery q;
      q.attr = a;
      q.value = row.values[static_cast<size_t>(a)];
      queries.push_back(std::move(q));
    }
  }
  BIRNN_ASSIGN_OR_RETURN(data::EncodedDataset ds,
                         detector_->EncodeQueries(queries));
  std::vector<uint8_t> labels;
  engine_.Predict(ds, &labels);
  return labels;
}

void TableSession::TouchReservoirLocked(RowMap::iterator row) {
  if (options_.reservoir_capacity <= 0) return;
  RowState& state = row->second;
  if (state.in_reservoir) {
    // Refresh recency: move the tuple to the most-recent end.
    reservoir_.splice(reservoir_.end(), reservoir_, state.reservoir_pos);
  } else {
    state.reservoir_pos = reservoir_.insert(reservoir_.end(), row->first);
    state.in_reservoir = true;
    while (static_cast<int64_t>(reservoir_.size()) >
           options_.reservoir_capacity) {
      rows_.find(reservoir_.front())->second.in_reservoir = false;
      reservoir_.pop_front();
    }
  }
  stats_.reservoir_rows = static_cast<int64_t>(reservoir_.size());
}

std::vector<DriftAlarm> TableSession::drift_alarms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alarms_;
}

std::vector<int> TableSession::DriftedAttrs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> attrs;
  for (const DriftAlarm& a : alarms_) {
    if (std::find(attrs.begin(), attrs.end(), a.attr) == attrs.end()) {
      attrs.push_back(a.attr);
    }
  }
  std::sort(attrs.begin(), attrs.end());
  return attrs;
}

int64_t TableSession::ResetDriftAlarms() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t cleared = static_cast<int64_t>(alarms_.size());
  alarms_.clear();
  std::fill(alarm_latched_.begin(), alarm_latched_.end(), 0);
  // Restart the live windows too: the whole point of a reset is to judge
  // the stream fresh (e.g. against a newly promoted bundle's baselines),
  // not to re-fire instantly on the pre-reset tail.
  live_.assign(live_.size(), LiveAttrStats{});
  stats_.drift_alarms = 0;
  ++stats_.drift_resets;
  OBS_COUNTER_ADD("stream.drift_resets", 1);
  return cleared;
}

std::vector<ReservoirRow> TableSession::ReservoirSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReservoirRow> out;
  out.reserve(reservoir_.size());
  for (const int64_t row_id : reservoir_) {
    const RowState& row = rows_.at(row_id);
    ReservoirRow& snap = out.emplace_back();
    snap.row_id = row_id;
    snap.values = row.values;
    snap.verdicts.reserve(row.verdicts.size());
    for (const CellVerdict& v : row.verdicts) {
      snap.verdicts.push_back(v.is_error ? 1 : 0);
    }
  }
  return out;
}

SessionStats TableSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

LiveAttrStats TableSession::live_attr_stats(int attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (attr < 0 || attr >= detector_->n_attrs()) return LiveAttrStats{};
  return live_[static_cast<size_t>(attr)];
}

}  // namespace birnn::stream
