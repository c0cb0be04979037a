// Seeded input generators of the online workloads. Every stream is a pure
// function of the seed and the generated table: the same seed yields the
// same request schedule, delta log and fresh-value set, byte for byte.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/table.h"
#include "datagen/datasets.h"
#include "stream/session.h"
#include "util/rng.h"

namespace perfbench {

/// The tables the workloads run on. They come from the generators' fixed
/// default seed, so every run sweeps the same table shape (the longest
/// value sets every cell's sequence length); the run seed drives what
/// varies between runs: labeled-tuple sampling and weight initialization,
/// request traffic, delta feeds and fresh values. Smoke mode shrinks them.
inline constexpr uint64_t kTableSeed = 7;
birnn::datagen::DatasetPair OfflineTable(bool smoke);  // tax, scale 0.1
birnn::datagen::DatasetPair ServeTable(bool smoke);    // hospital, scale 1
birnn::datagen::DatasetPair StreamTable(bool smoke);   // beers, scale 1

/// Derives an independent stream seed for `purpose` from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// serve_zipf open-loop offered rate, requests/s. Fixed, so that two commits
/// are offered identical traffic. It is far below the saturation capacity
/// (5-8k requests/s on a 4-vCPU x86 VM): at 1000 requests/s and above, the
/// single dispatcher spends a fifth of its time in 3-4 ms forward passes,
/// requests queue behind them, and p99 amplifies every stall of the shared
/// host (run-to-run spread 27-60%; at 3000/s stalls overflowed the
/// admission queue and requests were shed). At 400/s a miss request's
/// latency is the batching window plus one forward pass.
inline constexpr double kServeRate = 400.0;
/// Share of serve_zipf request cells that carry a never-seen value.
inline constexpr double kServeFreshShare = 1.0 / 64.0;
/// Share of stream_fresh written cells (in columns long enough to derive
/// fresh values from) that carry a never-seen value.
inline constexpr double kStreamFreshShare = 0.03;

/// One (attribute, raw value) cell.
struct Cell {
  int attr = 0;
  std::string value;
};

/// Distinct values of every column of `table`, in first-seen row order.
std::vector<std::vector<std::string>> DistinctColumnValues(
    const birnn::data::Table& table);

/// Dirty values the detector has never seen: a table value of the same
/// attribute (at least 6 characters long) with two characters after the
/// first replaced by characters of that column. Each value is unique
/// against the table and every earlier fresh value, and keeps its base's
/// length, so the bundle's length truncation cannot fold it back onto a
/// known value.
class FreshValues {
 public:
  FreshValues(uint64_t seed,
              const std::vector<std::vector<std::string>>& columns);

  /// Whether `attr` has values long enough to derive fresh ones from.
  bool CanMake(int attr) const;
  /// Attributes for which CanMake holds, ascending.
  const std::vector<int>& attrs() const { return attrs_; }
  /// The next fresh value of `attr`; `attr` must satisfy CanMake.
  std::string Next(int attr);

 private:
  birnn::Rng rng_;
  std::vector<std::vector<std::string>> bases_;
  std::vector<std::string> alphabets_;
  std::vector<int> attrs_;
  std::unordered_set<std::string> seen_;
};

/// serve_zipf traffic: 4-cell detect requests whose cells are drawn
/// Zipf-skewed (exponent 1) over the table's distinct cells, each cell
/// replaced by a fresh value with probability `fresh_share`.
class RequestStream {
 public:
  static constexpr int kCellsPerRequest = 4;

  RequestStream(uint64_t seed, const birnn::data::Table& table,
                double fresh_share);

  /// The table's distinct cells (the warm-up corpus), in a fixed order.
  const std::vector<Cell>& distinct() const { return distinct_; }
  /// Next request's cells; `fresh` receives, per cell, whether it is new.
  void Next(std::vector<Cell>* cells, std::vector<bool>* fresh);

 private:
  birnn::Rng rng_;
  double fresh_share_;
  std::vector<Cell> distinct_;
  std::vector<double> cdf_;        // Zipf CDF over ranks
  std::vector<int32_t> rank_to_;   // rank -> index into distinct_
  FreshValues fresh_;
};

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second, covering `seconds`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

/// One step of the stream_fresh feed: a delta, or a verdict read.
struct FeedOp {
  bool is_read = false;
  birnn::stream::Delta delta;  // when !is_read
  int64_t read_row = 0;        // when is_read
  int read_attr = 0;
  /// Cells of the delta that carry fresh values (attribute indices).
  std::vector<int> fresh_attrs;
};

/// stream_fresh feed: updates (50%), inserts (12.5%), deletes (12.5%) and
/// verdict reads (25%) against the live rows of a replayed table. Every
/// written cell carries a fresh value with probability `fresh_share`,
/// otherwise a value of the same column taken from a random table row.
/// Tracks the live row set itself, so every delta it emits applies.
class FeedStream {
 public:
  FeedStream(uint64_t seed, const birnn::data::Table& table,
             double fresh_share);
  FeedOp Next();

 private:
  int64_t PickLive();
  std::string WrittenValue(int attr, FeedOp* op);

  birnn::Rng rng_;
  double fresh_share_;
  const birnn::data::Table& table_;
  std::vector<int64_t> live_;
  int64_t next_row_id_;
  FreshValues fresh_;
};

/// Renders the first `n_requests` serve requests, `n_ops` feed ops and the
/// fresh values they contain as text, for the determinism tests.
std::string DumpInputs(uint64_t seed, bool smoke, int n_requests, int n_ops);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
