#ifndef BIRNN_EVAL_CACHE_H_
#define BIRNN_EVAL_CACHE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "datagen/injector.h"
#include "eval/metrics.h"
#include "obs/registry.h"
#include "util/status.h"

namespace birnn::eval {

/// Version of the cached-artifact schema *and* of the numerics that produce
/// the artifacts. Bump whenever (a) the entry file format changes or (b) any
/// code change can alter the bits of a training/evaluation run (kernels,
/// shard partitioning, sampler logic, dataset generators, ...). A bump
/// invalidates every existing cache entry — warm runs silently fall back to
/// recomputation, never to stale numbers.
inline constexpr uint32_t kCacheSchemaVersion = 4;

/// Content fingerprint of a table: headers, shape, and every cell, in row
/// order. Any edit to any cell changes the fingerprint.
uint64_t FingerprintTable(const data::Table& table);

/// Content fingerprint of a benchmark dataset pair: name + dirty + clean
/// tables. The injected-error metadata is implied by dirty vs clean and is
/// not hashed separately.
uint64_t FingerprintPair(const datagen::DatasetPair& pair);

/// Injected errors of one class and how many of them a detection report
/// flags (the §5.5 error analysis).
struct ErrorTypeCount {
  int64_t errors = 0;
  int64_t detected = 0;
};
using ErrorTypeCounts = std::map<datagen::ErrorType, ErrorTypeCount>;

/// The unit the harness caches: the complete outcome of one
/// (dataset, system, repetition) job.
struct JobOutcome {
  bool ok = false;  ///< false: the run failed (never cached).
  Metrics metrics;
  /// Per-epoch curves (empty unless the job tracked them).
  std::vector<core::EpochStats> history;
  /// Per error class of the pair's injected errors outside the labeled
  /// tuples (detector jobs only).
  ErrorTypeCounts error_types;
  /// Train/detect time measured *inside* the job on its own thread
  /// (wall-clock of the work, not of the harness).
  double train_seconds = 0.0;
  /// CPU time of the job thread (excludes inner pool workers).
  double train_cpu_seconds = 0.0;
  /// Set by the scheduler when the outcome came from the cache.
  bool from_cache = false;
};

/// Snapshot of one cache's observability counters (all monotonically
/// increasing). Backed by obs::Counter instances owned by the cache, so the
/// same numbers also land on the global obs registry under
/// `eval/cache/{hits,misses,stores,corrupt}` — per-instance reads stay
/// exact while scrapes see the process-wide aggregate.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stores = 0;
  int64_t corrupt = 0;  ///< entries that failed to parse (recomputed).
};

/// Content-addressed on-disk store of `JobOutcome`s.
///
/// Key = FNV-1a over (schema version, dataset fingerprint, canonical job
/// config string); entry = one text file `<key-hex>.birnn` in the cache
/// directory, doubles serialized as hexfloats so a warm hit returns
/// bit-identical values. Lookups that hit a missing, truncated or corrupted
/// file simply miss (the caller recomputes and `Store` overwrites); stores
/// write to a temp file and rename, so a killed run never leaves a
/// half-written entry behind and cold runs resume where they stopped.
///
/// Thread-safe: Lookup/Store may be called concurrently (distinct jobs have
/// distinct keys; the stats counters are lock-free obs::Counters).
class ArtifactCache {
 public:
  /// `dir` empty resolves to $BIRNN_CACHE_DIR, falling back to
  /// ".birnn-cache". The directory is created on first Store.
  explicit ArtifactCache(std::string dir = "");

  /// The directory this cache reads/writes.
  const std::string& dir() const { return dir_; }

  /// Resolution helper (exposed for tests/docs): explicit dir > env > default.
  static std::string ResolveDir(const std::string& dir);

  /// Content address of one job.
  static uint64_t Key(uint64_t dataset_fingerprint,
                      const std::string& job_config,
                      uint32_t schema_version = kCacheSchemaVersion);

  /// True and fills `out` on a valid entry; false on miss or corruption.
  bool Lookup(uint64_t key, JobOutcome* out);

  /// Persists `outcome` under `key`. Failed jobs (`!outcome.ok`) are
  /// rejected with InvalidArgument — a transient failure must not poison
  /// warm runs.
  Status Store(uint64_t key, const JobOutcome& outcome);

  CacheStats stats() const;

 private:
  std::string EntryPath(uint64_t key) const;

  std::string dir_;
  obs::Counter hits_{"eval/cache/hits"};
  obs::Counter misses_{"eval/cache/misses"};
  obs::Counter stores_{"eval/cache/stores"};
  obs::Counter corrupt_{"eval/cache/corrupt"};
};

}  // namespace birnn::eval

#endif  // BIRNN_EVAL_CACHE_H_
