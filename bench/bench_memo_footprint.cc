// Warehouse-scale memo footprint: streams a duplicate-heavy synthetic
// table (datagen/synthetic.h) through the cross-sweep verdict memo in
// bounded chunks — the full table is never resident — and compares three
// memo arms over the identical cell stream:
//   legacy     — the PR 7 unordered_map<hash, vector<Entry>> VerdictMemo
//                (replicated below as the baseline; the live code now runs
//                the succinct index),
//   succinct   — core::ContentMemo, unbounded, pre-sized,
//   evict      — ContentMemo with capacity a quarter of the table's unique
//                cells, so full shards are dropped throughout the sweep.
// Every arm must produce bit-identical p_error streams (compared per
// chunk); the bench reports cells/sec, probe ns/cell, resident bytes,
// bytes/unique-cell, bloom accounting and peak RSS to --json
// (BENCH_memo.json), and with --gate fails on any verdict mismatch, a
// bytes ratio below --min-bytes-ratio, an evict arm that never evicted or
// held more entries than its capacity, or an RSS cap overrun.
//
// A second section replays the real-table serving shape (beers / hospital
// / tax by default): populate once, then --reps all-hit sweeps, gating the
// succinct arm's cells/sec at --min-speed-ratio of the legacy arm's.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.h"
#include "core/content_index.h"
#include "core/inference.h"
#include "core/model.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "eval/report.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

// ---------------------------------------------------------------------------
// Baseline: the original unordered_map serve memo, replicated verbatim so
// the bench keeps measuring the structure the succinct index replaced even
// though the live serve path no longer builds it.
// ---------------------------------------------------------------------------

class LegacyVerdictMemo {
 public:
  explicit LegacyVerdictMemo(int64_t capacity)
      : capacity_(std::max<int64_t>(0, capacity)),
        shard_capacity_(std::max<int64_t>(1, capacity_ / kShards)) {}

  int64_t Lookup(const data::EncodedDataset& ds, std::vector<float>* p,
                 std::vector<uint8_t>* hit) const {
    if (capacity_ == 0) return 0;
    int64_t hits = 0;
    for (int64_t i = 0; i < ds.num_cells(); ++i) {
      const uint64_t key = ds.CellContentHash(i);
      const Shard& shard = shards_[key % kShards];
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) continue;
      for (const Entry& e : it->second) {
        if (Matches(e, ds, i)) {
          (*p)[static_cast<size_t>(i)] = e.p_error;
          (*hit)[static_cast<size_t>(i)] = 1;
          ++hits;
          break;
        }
      }
    }
    return hits;
  }

  void Insert(const data::EncodedDataset& ds, int64_t i, float p_error) {
    if (capacity_ == 0) return;
    const uint64_t key = ds.CellContentHash(i);
    Shard& shard = shards_[key % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<Entry>& chain = shard.map[key];
    for (const Entry& e : chain) {
      if (Matches(e, ds, i)) return;
    }
    if (shard.entries >= shard_capacity_) {
      shard.map.clear();
      shard.entries = 0;
    }
    Entry e;
    e.attr = ds.attrs[static_cast<size_t>(i)];
    std::memcpy(&e.length_norm_bits, &ds.length_norm[static_cast<size_t>(i)],
                sizeof(uint32_t));
    const int len = ds.effective_len(i);
    const int32_t* row = ds.seqs.data() + static_cast<size_t>(i) * ds.max_len;
    e.seq.assign(row, row + len);
    e.p_error = p_error;
    shard.map[key].push_back(std::move(e));
    ++shard.entries;
  }

  int64_t entries() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.entries;
    }
    return total;
  }

  /// Resident heap bytes of the map structure: each heap block is counted
  /// at its true chunk size (malloc_usable_size + the 8-byte glibc chunk
  /// header — that is what the allocator actually consumes). Map nodes are
  /// not reachable as pointers, so they use the computed libstdc++
  /// _Hash_node chunk size; the bucket array's per-entry share is its
  /// pointer slots.
  int64_t ApproxBytes() const {
    // _Hash_node<pair<const uint64_t, vector<Entry>>>: next pointer + the
    // pair, allocated with operator new — chunk = align16(size + 8).
    const int64_t node_chunk =
        (static_cast<int64_t>(sizeof(void*) + sizeof(uint64_t) +
                              sizeof(std::vector<Entry>)) +
         8 + 15) &
        ~int64_t{15};
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += static_cast<int64_t>(shard.map.bucket_count()) *
               static_cast<int64_t>(sizeof(void*));
      for (const auto& [key, chain] : shard.map) {
        (void)key;
        total += node_chunk;
        total += HeapBlockBytes(chain.data(), chain.capacity() * sizeof(Entry));
        for (const Entry& e : chain) {
          total += HeapBlockBytes(e.seq.data(),
                                  e.seq.capacity() * sizeof(int32_t));
        }
      }
    }
    return total;
  }

 private:
  static constexpr int kShards = 16;

  struct Entry {
    uint32_t length_norm_bits = 0;
    int32_t attr = 0;
    float p_error = 0.0f;
    std::vector<int32_t> seq;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> map;
    int64_t entries = 0;
  };

  static int64_t HeapBlockBytes(const void* ptr, size_t logical) {
    if (ptr == nullptr) return 0;
#if defined(__GLIBC__)
    (void)logical;
    return static_cast<int64_t>(
               malloc_usable_size(const_cast<void*>(ptr))) +
           8;  // glibc chunk header.
#else
    return static_cast<int64_t>(logical) + 8;
#endif
  }

  static bool Matches(const Entry& e, const data::EncodedDataset& ds,
                      int64_t i) {
    if (e.attr != ds.attrs[static_cast<size_t>(i)]) return false;
    uint32_t bits;
    std::memcpy(&bits, &ds.length_norm[static_cast<size_t>(i)],
                sizeof(uint32_t));
    if (e.length_norm_bits != bits) return false;
    const int len = ds.effective_len(i);
    if (static_cast<size_t>(len) != e.seq.size()) return false;
    const int32_t* row = ds.seqs.data() + static_cast<size_t>(i) * ds.max_len;
    return std::memcmp(e.seq.data(), row, sizeof(int32_t) * e.seq.size()) == 0;
  }

  int64_t capacity_ = 0;
  int64_t shard_capacity_ = 0;
  Shard shards_[kShards];
};

// The serve-plane dispatch shape with the legacy memo: probe, forward the
// miss subset, scatter + insert (what MicroBatcher::DispatchLoop did
// before PredictProbsMemoized absorbed it).
void LegacySweep(core::InferenceEngine* engine, const data::EncodedDataset& ds,
                 LegacyVerdictMemo* memo, std::vector<float>* probs,
                 double* lookup_seconds) {
  const int64_t n = ds.num_cells();
  probs->assign(static_cast<size_t>(n), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(n), 0);
  Stopwatch probe_timer;
  const int64_t hits = memo->Lookup(ds, probs, &hit);
  *lookup_seconds += probe_timer.ElapsedSeconds();
  if (hits >= n) return;
  std::vector<int64_t> miss;
  miss.reserve(static_cast<size_t>(n - hits));
  for (int64_t i = 0; i < n; ++i) {
    if (!hit[static_cast<size_t>(i)]) miss.push_back(i);
  }
  const data::EncodedDataset miss_ds = data::TakeCells(ds, miss);
  std::vector<float> miss_probs;
  engine->PredictProbs(miss_ds, {}, &miss_probs);
  for (size_t k = 0; k < miss.size(); ++k) {
    (*probs)[static_cast<size_t>(miss[k])] = miss_probs[k];
    memo->Insert(miss_ds, static_cast<int64_t>(k), miss_probs[k]);
  }
}

// ---------------------------------------------------------------------------
// Arms
// ---------------------------------------------------------------------------

struct Arm {
  std::string name;
  std::unique_ptr<LegacyVerdictMemo> legacy;
  std::unique_ptr<core::ContentMemo> memo;
  double seconds = 0.0;         ///< wall clock across all chunk sweeps.
  double lookup_seconds = 0.0;  ///< legacy arm: wall clock inside Lookup.
  int64_t cells = 0;
  int64_t mismatches = 0;  ///< float-bit differences vs the reference arm.
  int64_t max_bytes = 0;   ///< high-water resident bytes observed.
  int64_t max_entries = 0; ///< high-water live entries observed.
  uint64_t checksum = 1469598103934665603ULL;  ///< FNV over prob bits.
};

void FoldChecksum(const std::vector<float>& probs, uint64_t* checksum) {
  for (const float p : probs) {
    uint32_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      *checksum ^= (bits >> (8 * b)) & 0xFFu;
      *checksum *= 1099511628211ULL;
    }
  }
}

int64_t CountMismatches(const std::vector<float>& got,
                        const std::vector<float>& want) {
  int64_t n = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, &got[i], sizeof(a));
    std::memcpy(&b, &want[i], sizeof(b));
    if (a != b) ++n;
  }
  return n;
}

int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KB on Linux.
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_memo.json");
  flags.AddInt("rows", 1000000, "synthetic table rows");
  flags.AddInt("cols", 2, "synthetic table columns");
  flags.AddInt("uniques", 100000, "distinct cell contents per column");
  flags.AddInt("chunk-rows", 65536, "rows streamed per sweep chunk");
  flags.AddInt("eval-batch", 256, "cells per forward batch");
  flags.AddBool("gate", false,
                "exit nonzero on parity/bytes-ratio/eviction/speed/RSS "
                "failures");
  flags.AddDouble("min-bytes-ratio", 4.0,
                  "gate: legacy bytes / succinct bytes lower bound");
  flags.AddDouble("min-speed-ratio", 0.95,
                  "gate: succinct / legacy cells-per-sec lower bound on the "
                  "real-table all-hit sweeps");
  flags.AddInt("rss-cap-mb", 0, "gate: peak RSS ceiling in MiB (0 = off)");
  flags.AddBool("skip-datasets", false,
                "skip the real-table speed-ratio section");
  BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_memo_footprint");

  datagen::SyntheticSpec spec;
  spec.rows = flags.GetInt("rows");
  spec.cols = flags.GetInt("cols");
  spec.uniques_per_col = flags.GetInt("uniques");
  spec.seed = config.seed;
  const int64_t chunk_rows =
      std::max<int64_t>(1, flags.GetInt("chunk-rows"));
  const int eval_batch = flags.GetInt("eval-batch");

  std::cout << "=== Memo footprint (rows=" << spec.rows << ", cols="
            << spec.cols << ", uniques/col=" << spec.uniques_per_col
            << ") ===\n\n";

  const datagen::SyntheticDataGen gen(spec);
  const int64_t total_uniques = gen.total_unique_cells();
  // A quarter of the uniques: the evict arm drops shards all through the
  // sweep, whatever the table's scale.
  const int64_t evict_capacity = std::max<int64_t>(16, total_uniques / 4);

  // Tiny model: the bench measures the memo layer, not the forward path —
  // but predictions still flow through the real engine so parity means
  // something.
  core::ModelConfig model_config;
  model_config.vocab = spec.vocab;
  model_config.max_len = spec.max_len;
  model_config.n_attrs = spec.cols;
  model_config.units = 16;
  model_config.stacks = 1;
  model_config.enriched = true;
  model_config.seed = config.seed;
  core::ErrorDetectionModel model(model_config);

  data::EncodedDataset chunk;
  gen.FillChunk(0, std::min<int64_t>(spec.rows, 2048), &chunk);
  model.CalibrateBatchNorm(chunk, eval_batch);

  core::InferenceOptions engine_options;
  engine_options.eval_batch = eval_batch;
  core::InferenceEngine engine(model, engine_options);

  std::vector<Arm> arms;
  {
    Arm unbounded;
    unbounded.name = "succinct";
    core::ContentMemoOptions options;
    options.capacity = total_uniques * 2 + 1024;
    options.expected_entries = total_uniques;
    arms.push_back(std::move(unbounded));
    arms.back().memo = std::make_unique<core::ContentMemo>(options);

    Arm legacy;
    legacy.name = "legacy";
    legacy.legacy =
        std::make_unique<LegacyVerdictMemo>(total_uniques * 2 + 1024);
    arms.push_back(std::move(legacy));

    Arm evict;
    evict.name = "evict";
    core::ContentMemoOptions evict_options;
    evict_options.capacity = evict_capacity;
    arms.push_back(std::move(evict));
    arms.back().memo = std::make_unique<core::ContentMemo>(evict_options);
  }

  // Stream the table once per arm, chunk-interleaved: each chunk is
  // generated once, swept by every arm, and the verdict streams compared
  // bit-for-bit against the first (unbounded succinct) arm.
  std::vector<float> reference;
  std::vector<float> probs;
  for (int64_t row = 0; row < spec.rows; row += chunk_rows) {
    const int64_t n_rows = std::min<int64_t>(chunk_rows, spec.rows - row);
    gen.FillChunk(row, n_rows, &chunk);
    for (size_t a = 0; a < arms.size(); ++a) {
      Arm& arm = arms[a];
      Stopwatch timer;
      if (arm.legacy != nullptr) {
        LegacySweep(&engine, chunk, arm.legacy.get(), &probs,
                    &arm.lookup_seconds);
      } else {
        engine.PredictProbsMemoized(chunk, arm.memo.get(), &probs);
      }
      arm.seconds += timer.ElapsedSeconds();
      arm.cells += chunk.num_cells();
      FoldChecksum(probs, &arm.checksum);
      if (a == 0) {
        reference = probs;
      } else {
        arm.mismatches += CountMismatches(probs, reference);
      }
      const int64_t bytes = arm.legacy != nullptr ? arm.legacy->ApproxBytes()
                                                  : arm.memo->bytes();
      const int64_t entries = arm.legacy != nullptr ? arm.legacy->entries()
                                                    : arm.memo->entries();
      arm.max_bytes = std::max(arm.max_bytes, bytes);
      arm.max_entries = std::max(arm.max_entries, entries);
    }
  }

  // ---- Report the synthetic section ----
  const int64_t total_cells = arms[0].cells;
  eval::TableWriter writer({"Arm", "Cells/s", "Probe ns", "Bytes", "MaxBytes",
                            "B/unique", "Entries", "MaxEntries", "Evict",
                            "Mism"});
  double legacy_bytes = 0.0, succinct_bytes = 0.0;
  bool evict_ok = true;
  int64_t total_mismatches = 0;
  for (Arm& arm : arms) {
    int64_t final_bytes, entries, evictions = 0;
    double probe_ns;
    core::ContentMemoStats stats;
    if (arm.legacy != nullptr) {
      final_bytes = arm.legacy->ApproxBytes();
      entries = arm.legacy->entries();
      probe_ns = arm.cells > 0
                     ? arm.lookup_seconds * 1e9 / static_cast<double>(arm.cells)
                     : 0.0;
      legacy_bytes = static_cast<double>(final_bytes);
    } else {
      stats = arm.memo->stats();
      final_bytes = stats.bytes;
      entries = stats.entries;
      evictions = stats.evictions;
      probe_ns = stats.lookups > 0
                     ? stats.probe_seconds * 1e9 /
                           static_cast<double>(stats.lookups)
                     : 0.0;
      if (arm.name == "succinct") {
        succinct_bytes = static_cast<double>(final_bytes);
      } else if (evictions == 0 || arm.max_entries > evict_capacity) {
        evict_ok = false;
      }
    }
    total_mismatches += arm.mismatches;
    const double cps = arm.seconds > 0
                           ? static_cast<double>(arm.cells) / arm.seconds
                           : 0.0;
    const double per_unique =
        entries > 0 ? static_cast<double>(final_bytes) /
                          static_cast<double>(entries)
                    : 0.0;
    writer.AddRow({arm.name, FormatFixed(cps, 0), FormatFixed(probe_ns, 0),
                   std::to_string(final_bytes), std::to_string(arm.max_bytes),
                   FormatFixed(per_unique, 1), std::to_string(entries),
                   std::to_string(arm.max_entries), std::to_string(evictions),
                   std::to_string(arm.mismatches)});
  }
  writer.Print(std::cout);
  const double bytes_ratio =
      succinct_bytes > 0 ? legacy_bytes / succinct_bytes : 0.0;
  std::cout << "\ncells=" << total_cells << " uniques=" << total_uniques
            << " legacy/succinct bytes ratio=" << FormatFixed(bytes_ratio, 2)
            << "x\n";

  // ---- Real-table all-hit speed ratio (the serving steady state) ----
  struct DatasetRow {
    std::string dataset;
    int64_t cells = 0;
    double legacy_cps = 0.0;
    double succinct_cps = 0.0;
    bool match = false;
  };
  std::vector<DatasetRow> dataset_rows;
  if (!flags.GetBool("skip-datasets")) {
    std::vector<std::string> names = config.datasets;
    if (names.empty()) names = {"beers", "hospital", "tax"};
    for (const std::string& dataset : names) {
      const datagen::DatasetPair pair = MakePair(dataset, config);
      auto frame = data::PrepareData(pair.dirty, pair.clean);
      if (!frame.ok()) {
        std::cerr << dataset << ": PrepareData failed: "
                  << frame.status().message() << "\n";
        return 1;
      }
      const data::CharIndex chars = data::CharIndex::Build(*frame);
      const data::EncodedDataset all = data::EncodeCells(*frame, chars);

      core::ModelConfig ds_config;
      ds_config.vocab = all.vocab;
      ds_config.max_len = all.max_len;
      ds_config.n_attrs = all.n_attrs;
      ds_config.enriched = true;
      ds_config.seed = config.seed;
      core::ErrorDetectionModel ds_model(ds_config);
      ds_model.CalibrateBatchNorm(all, eval_batch);
      core::InferenceEngine ds_engine(ds_model, engine_options);

      DatasetRow row;
      row.dataset = dataset;
      row.cells = all.num_cells();

      // Populate both memos once, then time --reps all-hit sweeps with the
      // arms interleaved inside each rep: on a small table one sweep is
      // sub-millisecond, so a scheduler hiccup during one arm's window
      // would skew the ratio if the arms ran back to back. Best-of-reps
      // per arm absorbs the remaining noise.
      LegacyVerdictMemo legacy_memo(1 << 20);
      std::vector<float> legacy_probs;
      double ignored = 0.0;
      LegacySweep(&ds_engine, all, &legacy_memo, &legacy_probs, &ignored);

      // Mirror the serve plane: the bundle manifest pre-sizes the memo from
      // the table's unique-cell count; the cell count is an upper bound.
      core::ContentMemoOptions memo_options;
      memo_options.capacity = 1 << 20;
      memo_options.expected_entries = all.num_cells();
      core::ContentMemo succinct_memo(memo_options);
      std::vector<float> succinct_probs;
      ds_engine.PredictProbsMemoized(all, &succinct_memo, &succinct_probs);

      for (int rep = 0; rep < config.reps; ++rep) {
        {
          Stopwatch timer;
          LegacySweep(&ds_engine, all, &legacy_memo, &probs, &ignored);
          const double secs = timer.ElapsedSeconds();
          if (secs > 0) {
            row.legacy_cps = std::max(
                row.legacy_cps, static_cast<double>(all.num_cells()) / secs);
          }
        }
        {
          Stopwatch timer;
          ds_engine.PredictProbsMemoized(all, &succinct_memo, &probs);
          const double secs = timer.ElapsedSeconds();
          if (secs > 0) {
            row.succinct_cps = std::max(
                row.succinct_cps, static_cast<double>(all.num_cells()) / secs);
          }
        }
      }
      row.match = CountMismatches(succinct_probs, legacy_probs) == 0 &&
                  CountMismatches(probs, legacy_probs) == 0;
      dataset_rows.push_back(row);
    }

    std::cout << "\n";
    eval::TableWriter ds_writer(
        {"Dataset", "Cells", "Legacy c/s", "Succinct c/s", "Ratio", "Match"});
    for (const DatasetRow& row : dataset_rows) {
      const double ratio =
          row.legacy_cps > 0 ? row.succinct_cps / row.legacy_cps : 0.0;
      ds_writer.AddRow({row.dataset, std::to_string(row.cells),
                        FormatFixed(row.legacy_cps, 0),
                        FormatFixed(row.succinct_cps, 0),
                        FormatFixed(ratio, 2) + "x",
                        row.match ? "yes" : "NO"});
    }
    ds_writer.Print(std::cout);
  }

  const int64_t peak_rss = PeakRssBytes();
  const int64_t rss_cap_bytes =
      static_cast<int64_t>(flags.GetInt("rss-cap-mb")) * (1 << 20);
  std::cout << "\npeak RSS " << (peak_rss >> 20) << " MiB\n";

  // ---- Gates ----
  const double min_bytes_ratio = flags.GetDouble("min-bytes-ratio");
  const double min_speed_ratio = flags.GetDouble("min-speed-ratio");
  bool parity_ok = total_mismatches == 0;
  bool ratio_ok = bytes_ratio >= min_bytes_ratio;
  bool speed_ok = true;
  for (const DatasetRow& row : dataset_rows) {
    if (!row.match) parity_ok = false;
    if (row.legacy_cps > 0 &&
        row.succinct_cps / row.legacy_cps < min_speed_ratio) {
      speed_ok = false;
    }
  }
  const bool rss_ok = rss_cap_bytes <= 0 || peak_rss <= rss_cap_bytes;

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    JsonWriter json(out);
    json.BeginObject();
    json.Key("rows").Int(spec.rows);
    json.Key("cols").Int(spec.cols);
    json.Key("uniques_per_col").Int(spec.uniques_per_col);
    json.Key("chunk_rows").Int(chunk_rows);
    json.Key("evict_capacity").Int(evict_capacity);
    json.Key("seed").Int(static_cast<int64_t>(config.seed));
    json.Key("cells").Int(total_cells);
    json.Key("unique_cells").Int(total_uniques);
    json.Key("arms").BeginArray();
    for (Arm& arm : arms) {
      json.BeginObject();
      json.Key("arm").String(arm.name);
      json.Key("cells_per_sec")
          .Number(arm.seconds > 0
                      ? static_cast<double>(arm.cells) / arm.seconds
                      : 0.0);
      json.Key("sweep_seconds").Number(arm.seconds);
      if (arm.legacy != nullptr) {
        const int64_t bytes = arm.legacy->ApproxBytes();
        const int64_t entries = arm.legacy->entries();
        json.Key("bytes").Int(bytes);
        json.Key("entries").Int(entries);
        json.Key("bytes_per_unique")
            .Number(entries > 0 ? static_cast<double>(bytes) /
                                      static_cast<double>(entries)
                                : 0.0);
        json.Key("probe_ns_per_cell")
            .Number(arm.cells > 0 ? arm.lookup_seconds * 1e9 /
                                        static_cast<double>(arm.cells)
                                  : 0.0);
      } else {
        const core::ContentMemoStats stats = arm.memo->stats();
        json.Key("bytes").Int(stats.bytes);
        json.Key("entries").Int(stats.entries);
        json.Key("bytes_per_unique")
            .Number(stats.entries > 0
                        ? static_cast<double>(stats.bytes) /
                              static_cast<double>(stats.entries)
                        : 0.0);
        json.Key("probe_ns_per_cell")
            .Number(stats.lookups > 0
                        ? stats.probe_seconds * 1e9 /
                              static_cast<double>(stats.lookups)
                        : 0.0);
        json.Key("hits").Int(stats.hits);
        json.Key("bloom_negatives").Int(stats.bloom_negatives);
        json.Key("bloom_fps").Int(stats.bloom_fps);
        json.Key("bloom_fp_rate")
            .Number(stats.lookups > stats.bloom_negatives
                        ? static_cast<double>(stats.bloom_fps) /
                              static_cast<double>(stats.lookups -
                                                  stats.bloom_negatives)
                        : 0.0);
        json.Key("evictions").Int(stats.evictions);
        json.Key("evicted_entries").Int(stats.evicted_entries);
      }
      json.Key("max_bytes").Int(arm.max_bytes);
      json.Key("max_entries").Int(arm.max_entries);
      json.Key("mismatches").Int(arm.mismatches);
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(arm.checksum));
      json.Key("prob_checksum").String(hex);
      json.EndObject();
    }
    json.EndArray();
    json.Key("bytes_ratio").Number(bytes_ratio);
    json.Key("datasets").BeginArray();
    for (const DatasetRow& row : dataset_rows) {
      json.BeginObject();
      json.Key("dataset").String(row.dataset);
      json.Key("cells").Int(row.cells);
      json.Key("legacy_cells_per_sec").Number(row.legacy_cps);
      json.Key("succinct_cells_per_sec").Number(row.succinct_cps);
      json.Key("speed_ratio")
          .Number(row.legacy_cps > 0 ? row.succinct_cps / row.legacy_cps
                                     : 0.0);
      json.Key("predictions_match").Bool(row.match);
      json.EndObject();
    }
    json.EndArray();
    json.Key("peak_rss_bytes").Int(peak_rss);
    json.Key("gates").BeginObject();
    json.Key("parity_ok").Bool(parity_ok);
    json.Key("bytes_ratio_ok").Bool(ratio_ok);
    json.Key("evict_ok").Bool(evict_ok);
    json.Key("speed_ok").Bool(speed_ok);
    json.Key("rss_ok").Bool(rss_ok);
    json.EndObject();
    json.EndObject();
    out << "\n";
    std::cout << "wrote " << config.json_path << "\n";
  }

  if (!parity_ok) std::cout << "GATE: verdict mismatch across memo arms\n";
  if (!ratio_ok) {
    std::cout << "GATE: bytes ratio " << FormatFixed(bytes_ratio, 2)
              << "x below " << FormatFixed(min_bytes_ratio, 2) << "x\n";
  }
  if (!evict_ok) {
    std::cout << "GATE: evict arm never evicted or held more than "
              << evict_capacity << " entries\n";
  }
  if (!speed_ok) {
    std::cout << "GATE: succinct all-hit sweep slower than "
              << FormatFixed(min_speed_ratio, 2) << "x legacy\n";
  }
  if (!rss_ok) std::cout << "GATE: peak RSS above --rss-cap-mb\n";
  const bool ok = parity_ok && ratio_ok && evict_ok && speed_ok && rss_ok;
  if (!ok && flags.GetBool("gate")) return 1;
  return 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
