#include "sampling/sampler.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "raha/detector.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace birnn::sampling {

namespace {
int ClampObs(const data::CellFrame& frame, int n_obs) {
  return static_cast<int>(
      std::min<int64_t>(n_obs, frame.num_tuples()));
}
}  // namespace

StatusOr<std::vector<int64_t>> RandomSetSampler::Select(
    const data::CellFrame& frame, int n_obs, Rng* rng) {
  if (frame.num_tuples() == 0) {
    return Status::InvalidArgument("empty frame");
  }
  const int n = ClampObs(frame, n_obs);
  // ID_all <- unique(df['id_']); ids are dense 0..num_tuples-1 by
  // construction of the preparation step.
  const std::vector<size_t> picks = rng->SampleWithoutReplacement(
      static_cast<size_t>(frame.num_tuples()), static_cast<size_t>(n));
  std::vector<int64_t> out;
  out.reserve(picks.size());
  for (size_t p : picks) out.push_back(static_cast<int64_t>(p));
  return out;
}

StatusOr<std::vector<int64_t>> DiverSetSampler::Select(
    const data::CellFrame& frame, int n_obs, Rng* rng) {
  if (frame.num_tuples() == 0) {
    return Status::InvalidArgument("empty frame");
  }
  const int n = ClampObs(frame, n_obs);
  const int64_t n_tuples = frame.num_tuples();
  const int n_attrs = frame.num_attrs();

  // Intern the paper's 'concat' key, (attribute name, value_x), once:
  // `value_of[i]` is cell i's value id in first-occurrence order, and the
  // cells holding value v are `members[first[v] .. first[v + 1])`.
  // Attributes that share a name share one value map, as the concatenated
  // name + value strings would.
  const std::vector<data::CellRecord>& cells = frame.cells();
  std::vector<int32_t> value_of(cells.size());
  size_t n_values = 0;
  {
    const std::vector<std::string>& names = frame.attr_names();
    std::vector<size_t> map_of(static_cast<size_t>(n_attrs));
    for (size_t a = 0; a < map_of.size(); ++a) {
      map_of[a] = static_cast<size_t>(
          std::find(names.begin(), names.end(), names[a]) - names.begin());
    }
    std::vector<std::unordered_map<std::string_view, int32_t>> ids(
        map_of.size());
    for (auto& m : ids) m.reserve(cells.size() / map_of.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      const data::CellRecord& cell = cells[i];
      const auto [it, inserted] =
          ids[map_of[static_cast<size_t>(cell.attr)]].try_emplace(
              cell.value, static_cast<int32_t>(n_values));
      if (inserted) ++n_values;
      value_of[i] = it->second;
    }
  }
  std::vector<size_t> first(n_values + 1, 0);
  for (int32_t v : value_of) ++first[static_cast<size_t>(v) + 1];
  for (size_t v = 0; v < n_values; ++v) first[v + 1] += first[v];
  std::vector<size_t> members(cells.size());
  {
    std::vector<size_t> fill(first.begin(), first.end() - 1);
    for (size_t i = 0; i < cells.size(); ++i) {
      members[fill[static_cast<size_t>(value_of[i])]++] = i;
    }
  }

  // df_rest bookkeeping: a cell leaves consideration when its value
  // is first covered by a selected tuple; the counters track, per tuple,
  // its cells still under consideration.
  std::vector<int> unseen_attr(static_cast<size_t>(n_tuples), 0);
  std::vector<int> empty_count(static_cast<size_t>(n_tuples), 0);
  for (const auto& cell : cells) {
    unseen_attr[static_cast<size_t>(cell.row_id)]++;
    if (cell.empty) empty_count[static_cast<size_t>(cell.row_id)]++;
  }

  std::vector<uint8_t> chosen(static_cast<size_t>(n_tuples), 0);
  std::vector<uint8_t> seen(n_values, 0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));

  for (int pick = 0; pick < n; ++pick) {
    // candidateID: max #unseenAttr, then max #empty, then random.
    int best_unseen = -1;
    int best_empty = -1;
    std::vector<int64_t> candidates;
    for (int64_t id = 0; id < n_tuples; ++id) {
      if (chosen[static_cast<size_t>(id)]) continue;
      const int u = unseen_attr[static_cast<size_t>(id)];
      const int e = empty_count[static_cast<size_t>(id)];
      if (u > best_unseen || (u == best_unseen && e > best_empty)) {
        best_unseen = u;
        best_empty = e;
        candidates.clear();
        candidates.push_back(id);
      } else if (u == best_unseen && e == best_empty) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) break;
    const int64_t sampled_id =
        candidates[rng->UniformInt(candidates.size())];
    chosen[static_cast<size_t>(sampled_id)] = 1;
    out.push_back(sampled_id);

    // seenAttr gains every (attribute, value) of the selected tuple (from
    // the full frame, not just the cells under consideration); df_rest <-
    // df[concat not in seenAttr] drops the cells of each newly seen value.
    // A value seen before had its cells dropped then.
    for (int a = 0; a < n_attrs; ++a) {
      const size_t v = static_cast<size_t>(
          value_of[static_cast<size_t>(sampled_id) * n_attrs +
                   static_cast<size_t>(a)]);
      if (seen[v]) continue;
      seen[v] = 1;
      for (size_t m = first[v]; m < first[v + 1]; ++m) {
        const data::CellRecord& cell = cells[members[m]];
        unseen_attr[static_cast<size_t>(cell.row_id)]--;
        if (cell.empty) empty_count[static_cast<size_t>(cell.row_id)]--;
      }
    }
  }
  return out;
}

StatusOr<std::vector<int64_t>> RahaSetSampler::Select(
    const data::CellFrame& frame, int n_obs, Rng* rng) {
  if (frame.num_tuples() == 0) {
    return Status::InvalidArgument("empty frame");
  }
  const int n = ClampObs(frame, n_obs);

  // Rebuild the wide dirty table for the strategy zoo.
  data::Table dirty(frame.attr_names());
  for (int64_t r = 0; r < frame.num_tuples(); ++r) {
    std::vector<std::string> row;
    row.reserve(static_cast<size_t>(frame.num_attrs()));
    for (int a = 0; a < frame.num_attrs(); ++a) {
      row.push_back(frame.cell(r, a).value);
    }
    BIRNN_RETURN_IF_ERROR(dirty.AppendRow(std::move(row)));
  }

  raha::RahaOptions options;
  options.n_label_tuples = n;
  raha::RahaDetector detector(options);
  detector.Analyze(dirty);
  return detector.SampleTuples(n, rng);
}

StatusOr<std::unique_ptr<TrainsetSampler>> MakeSampler(
    const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "randomset" || lower == "random") {
    return std::unique_ptr<TrainsetSampler>(new RandomSetSampler());
  }
  if (lower == "diverset" || lower == "diverse") {
    return std::unique_ptr<TrainsetSampler>(new DiverSetSampler());
  }
  if (lower == "rahaset" || lower == "raha") {
    return std::unique_ptr<TrainsetSampler>(new RahaSetSampler());
  }
  return Status::NotFound("unknown sampler: " + name);
}

}  // namespace birnn::sampling
