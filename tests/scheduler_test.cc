// eval::Scheduler + eval::ArtifactCache: the determinism contract
// (parallel == serial, bit for bit), cache hit/invalidation semantics,
// and corrupted-entry recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "datagen/datasets.h"
#include "eval/cache.h"
#include "eval/scheduler.h"

namespace birnn::eval {
namespace {

datagen::DatasetPair SmallPair(uint64_t seed = 77) {
  datagen::GenOptions gen;
  gen.scale = 0.05;
  gen.seed = seed;
  return datagen::MakeHospital(gen);
}

RunnerOptions SmallDetectorOptions() {
  RunnerOptions options;
  options.repetitions = 3;
  options.base_seed = 42;
  options.detector.n_label_tuples = 10;
  options.detector.units = 12;
  options.detector.trainer.epochs = 4;
  return options;
}

// A unique temp dir per test so caches never cross-contaminate.
class TempCacheDir {
 public:
  explicit TempCacheDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("birnn-scheduler-test-" + tag))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void ExpectBitIdentical(const RepeatedResult& a, const RepeatedResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].precision, b.runs[r].precision) << "rep " << r;
    EXPECT_EQ(a.runs[r].recall, b.runs[r].recall) << "rep " << r;
    EXPECT_EQ(a.runs[r].f1, b.runs[r].f1) << "rep " << r;
    EXPECT_EQ(a.runs[r].accuracy, b.runs[r].accuracy) << "rep " << r;
  }
  EXPECT_EQ(a.precision.mean, b.precision.mean);
  EXPECT_EQ(a.recall.mean, b.recall.mean);
  EXPECT_EQ(a.f1.mean, b.f1.mean);
  EXPECT_EQ(a.f1.stddev, b.f1.stddev);
  ASSERT_EQ(a.error_types.size(), b.error_types.size());
  for (const auto& [type, count] : a.error_types) {
    ASSERT_EQ(b.error_types.count(type), 1u);
    EXPECT_EQ(count.errors, b.error_types.at(type).errors);
    EXPECT_EQ(count.detected, b.error_types.at(type).detected);
  }
}

TEST(ThreadBudgetTest, SplitsHardwareAcrossJobs) {
  // 8 hardware threads, 4 jobs in flight: each job owns 2 threads — the
  // job thread itself plus 1 inner worker.
  ThreadBudget b = ComputeThreadBudget(8, 4, 100);
  EXPECT_EQ(b.outer, 4);
  EXPECT_EQ(b.inner, 1);

  // More workers requested than jobs exist: outer clamps to n_jobs.
  b = ComputeThreadBudget(8, 16, 2);
  EXPECT_EQ(b.outer, 2);
  EXPECT_EQ(b.inner, 3);

  // Oversubscribed request: every job still gets at least itself.
  b = ComputeThreadBudget(2, 8, 8);
  EXPECT_EQ(b.outer, 8);
  EXPECT_EQ(b.inner, 0);

  // Serial mode.
  b = ComputeThreadBudget(8, 0, 10);
  EXPECT_EQ(b.outer, 0);
  EXPECT_EQ(b.inner, 0);
}

TEST(SchedulerTest, ParallelMatchesSerialBitForBit) {
  const datagen::DatasetPair pair = SmallPair();
  const RunnerOptions options = SmallDetectorOptions();

  // Reference: the serial path (threads = 0).
  Scheduler serial({.threads = 0});
  const Scheduler::ExperimentId sid = serial.SubmitDetector(pair, options);
  serial.RunAll();
  const RepeatedResult reference = serial.Take(sid);
  ASSERT_EQ(reference.runs.size(), 3u);
  // Every injected error is counted once per repetition, under its class.
  int64_t errors = 0;
  for (const auto& [type, count] : reference.error_types) {
    EXPECT_LE(count.detected, count.errors);
    errors += count.errors;
  }
  EXPECT_EQ(errors, 3 * static_cast<int64_t>(pair.injected_errors.size()));

  for (const int threads : {1, 4, 8}) {
    Scheduler scheduler({.threads = threads});
    const Scheduler::ExperimentId id = scheduler.SubmitDetector(pair, options);
    scheduler.RunAll();
    const RepeatedResult result = scheduler.Take(id);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectBitIdentical(reference, result);
  }
}

TEST(SchedulerTest, BaselinesMatchSerialBitForBit) {
  const datagen::DatasetPair pair = SmallPair();

  Scheduler serial({.threads = 0});
  const auto raha_s = serial.SubmitRaha(pair, 2, 10, 7);
  const auto rotom_s = serial.SubmitRotom(pair, 2, 50, /*ssl=*/true, 7);
  serial.RunAll();
  const RepeatedResult raha_ref = serial.Take(raha_s);
  const RepeatedResult rotom_ref = serial.Take(rotom_s);

  Scheduler parallel({.threads = 4});
  const auto raha_p = parallel.SubmitRaha(pair, 2, 10, 7);
  const auto rotom_p = parallel.SubmitRotom(pair, 2, 50, /*ssl=*/true, 7);
  parallel.RunAll();
  ExpectBitIdentical(raha_ref, parallel.Take(raha_p));
  ExpectBitIdentical(rotom_ref, parallel.Take(rotom_p));
}

TEST(SchedulerTest, WarmCacheHitsAreBitIdentical) {
  TempCacheDir dir("warm");
  const datagen::DatasetPair pair = SmallPair();
  const RunnerOptions options = SmallDetectorOptions();

  ArtifactCache cold_cache(dir.path());
  Scheduler cold({.threads = 2, .cache = &cold_cache});
  const auto cold_id = cold.SubmitDetector(pair, options);
  cold.RunAll();
  const RepeatedResult cold_result = cold.Take(cold_id);
  EXPECT_EQ(cold.stats().computed, 3);
  EXPECT_EQ(cold.stats().cache_hits, 0);

  ArtifactCache warm_cache(dir.path());
  Scheduler warm({.threads = 2, .cache = &warm_cache});
  const auto warm_id = warm.SubmitDetector(pair, options);
  warm.RunAll();
  const RepeatedResult warm_result = warm.Take(warm_id);
  EXPECT_EQ(warm.stats().computed, 0);
  EXPECT_EQ(warm.stats().cache_hits, 3);
  EXPECT_EQ(warm_result.cache_hits, 3);
  ExpectBitIdentical(cold_result, warm_result);
  // Warm hits replay the recorded train times bit-exactly too.
  EXPECT_EQ(cold_result.train_seconds.mean, warm_result.train_seconds.mean);
}

TEST(SchedulerTest, ThreadCountDoesNotChangeCacheKeys) {
  // A warm run with a different thread count must still hit: thread counts
  // are excluded from the config strings because they cannot change bits.
  core::DetectorOptions a;
  core::DetectorOptions b = a;
  b.train_threads = 8;
  b.eval_threads = 4;
  b.trainer.train_threads = 8;
  EXPECT_EQ(DetectorJobConfig(a), DetectorJobConfig(b));

  core::DetectorOptions c = a;
  c.trainer.epochs += 1;
  EXPECT_NE(DetectorJobConfig(a), DetectorJobConfig(c));
}

TEST(CacheTest, KeyDependsOnAllComponents) {
  const uint64_t base = ArtifactCache::Key(1, "cfg", 1);
  EXPECT_NE(base, ArtifactCache::Key(2, "cfg", 1));   // fingerprint
  EXPECT_NE(base, ArtifactCache::Key(1, "cfg2", 1));  // config
  EXPECT_NE(base, ArtifactCache::Key(1, "cfg", 2));   // schema version
  EXPECT_EQ(base, ArtifactCache::Key(1, "cfg", 1));   // stable
}

TEST(CacheTest, FingerprintTracksContent) {
  const datagen::DatasetPair a = SmallPair(1);
  const datagen::DatasetPair b = SmallPair(2);
  EXPECT_EQ(FingerprintPair(a), FingerprintPair(SmallPair(1)));
  EXPECT_NE(FingerprintPair(a), FingerprintPair(b));

  datagen::DatasetPair edited = SmallPair(1);
  edited.dirty.set_cell(0, 0, edited.dirty.cell(0, 0) + "x");
  EXPECT_NE(FingerprintPair(a), FingerprintPair(edited));
}

TEST(CacheTest, RoundTripsOutcomeBitExactly) {
  TempCacheDir dir("roundtrip");
  ArtifactCache cache(dir.path());

  JobOutcome outcome;
  outcome.ok = true;
  outcome.metrics.precision = 0.1 + 0.2;  // deliberately non-representable
  outcome.metrics.recall = 1.0 / 3.0;
  outcome.metrics.f1 = 0.7071067811865476;
  outcome.metrics.accuracy = 0.999999999999;
  outcome.train_seconds = 1.2345678901234567;
  outcome.train_cpu_seconds = 0.3333333333333333;
  core::EpochStats epoch;
  epoch.epoch = 3;
  epoch.train_loss = 0.123456789f;
  epoch.train_accuracy = 0.5;
  epoch.test_accuracy = 0.25;
  outcome.history.push_back(epoch);
  outcome.error_types[datagen::ErrorType::kTypo] = {270, 172};
  outcome.error_types[datagen::ErrorType::kViolatedAttributeDependency] = {
      90, 0};

  const uint64_t key = ArtifactCache::Key(123, "cfg");
  ASSERT_TRUE(cache.Store(key, outcome).ok());

  JobOutcome loaded;
  ASSERT_TRUE(cache.Lookup(key, &loaded));
  EXPECT_TRUE(loaded.ok);
  EXPECT_TRUE(loaded.from_cache);
  EXPECT_EQ(loaded.metrics.precision, outcome.metrics.precision);
  EXPECT_EQ(loaded.metrics.recall, outcome.metrics.recall);
  EXPECT_EQ(loaded.metrics.f1, outcome.metrics.f1);
  EXPECT_EQ(loaded.metrics.accuracy, outcome.metrics.accuracy);
  EXPECT_EQ(loaded.train_seconds, outcome.train_seconds);
  EXPECT_EQ(loaded.train_cpu_seconds, outcome.train_cpu_seconds);
  ASSERT_EQ(loaded.history.size(), 1u);
  EXPECT_EQ(loaded.history[0].epoch, 3);
  EXPECT_EQ(loaded.history[0].train_loss, epoch.train_loss);
  EXPECT_EQ(loaded.history[0].train_accuracy, epoch.train_accuracy);
  EXPECT_EQ(loaded.history[0].test_accuracy, epoch.test_accuracy);
  ASSERT_EQ(loaded.error_types.size(), 2u);
  EXPECT_EQ(loaded.error_types[datagen::ErrorType::kTypo].errors, 270);
  EXPECT_EQ(loaded.error_types[datagen::ErrorType::kTypo].detected, 172);
  const ErrorTypeCount& vad =
      loaded.error_types[datagen::ErrorType::kViolatedAttributeDependency];
  EXPECT_EQ(vad.errors, 90);
  EXPECT_EQ(vad.detected, 0);

  // An error class outside datagen::ErrorType makes the entry corrupt.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t at = text.find("\nt 1 270 172\n");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, 5, "\nt 9 ");
    std::ofstream(entry.path(), std::ios::trunc) << text;
  }
  EXPECT_FALSE(cache.Lookup(key, &loaded));
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST(CacheTest, RejectsFailedOutcomes) {
  TempCacheDir dir("failed");
  ArtifactCache cache(dir.path());
  JobOutcome failed;
  failed.ok = false;
  EXPECT_FALSE(cache.Store(1, failed).ok());
  JobOutcome out;
  EXPECT_FALSE(cache.Lookup(1, &out));
}

TEST(CacheTest, MissingEntryIsAMiss) {
  TempCacheDir dir("missing");
  ArtifactCache cache(dir.path());
  JobOutcome out;
  EXPECT_FALSE(cache.Lookup(42, &out));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(CacheTest, CorruptedEntriesMissAndRecover) {
  TempCacheDir dir("corrupt");
  const datagen::DatasetPair pair = SmallPair();
  const RunnerOptions options = SmallDetectorOptions();

  ArtifactCache cache(dir.path());
  Scheduler cold({.threads = 0, .cache = &cache});
  const auto cold_id = cold.SubmitDetector(pair, options);
  cold.RunAll();
  const RepeatedResult reference = cold.Take(cold_id);

  // Truncate/garble every entry on disk.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "birnn-artifact v1\nnot a valid entry\n";
  }

  // The damaged entries must count as misses and be recomputed, with the
  // same bits as the original cold run; Store overwrites them.
  ArtifactCache recover_cache(dir.path());
  Scheduler recover({.threads = 2, .cache = &recover_cache});
  const auto rid = recover.SubmitDetector(pair, options);
  recover.RunAll();
  const RepeatedResult recovered = recover.Take(rid);
  EXPECT_EQ(recover.stats().cache_hits, 0);
  EXPECT_EQ(recover.stats().computed, 3);
  EXPECT_GE(recover_cache.stats().corrupt, 3);
  ExpectBitIdentical(reference, recovered);

  // After recovery the entries are valid again.
  ArtifactCache warm_cache(dir.path());
  Scheduler warm({.threads = 0, .cache = &warm_cache});
  const auto wid = warm.SubmitDetector(pair, options);
  warm.RunAll();
  EXPECT_EQ(warm.stats().cache_hits, 3);
  ExpectBitIdentical(reference, warm.Take(wid));
}

TEST(CacheTest, ResolveDirPrecedence) {
  EXPECT_EQ(ArtifactCache::ResolveDir("/x/y"), "/x/y");
  // Without an explicit dir, the env var (if set) or the default applies.
  const char* env = std::getenv("BIRNN_CACHE_DIR");
  const std::string resolved = ArtifactCache::ResolveDir("");
  if (env != nullptr) {
    EXPECT_EQ(resolved, env);
  } else {
    EXPECT_EQ(resolved, ".birnn-cache");
  }
}

TEST(SchedulerTest, HarnessWallClockIsReported) {
  const datagen::DatasetPair pair = SmallPair();
  Scheduler scheduler({.threads = 2});
  const auto id = scheduler.SubmitRaha(pair, 2, 8, 3);
  scheduler.RunAll();
  const RepeatedResult result = scheduler.Take(id);
  EXPECT_GT(result.harness_wall_seconds, 0.0);
  // Per-rep train time is measured inside the job, not the harness wall.
  EXPECT_EQ(result.train_seconds.n, 2u);
}

}  // namespace
}  // namespace birnn::eval
