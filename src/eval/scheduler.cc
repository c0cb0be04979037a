#include "eval/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "obs/obs.h"
#include "raha/detector.h"
#include "rotom/baseline.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace birnn::eval {

namespace {

/// Exact rendering for config-string floats (hexfloat: no rounding
/// ambiguity, so two configs hash equal iff their bits are equal).
std::string FmtExact(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void Append(std::string* s, const char* key, const std::string& value) {
  *s += '|';
  *s += key;
  *s += '=';
  *s += value;
}
void Append(std::string* s, const char* key, int64_t value) {
  Append(s, key, std::to_string(value));
}
void Append(std::string* s, const char* key, uint64_t value) {
  Append(s, key, std::to_string(value));
}
void Append(std::string* s, const char* key, bool value) {
  Append(s, key, std::string(value ? "1" : "0"));
}
void Append(std::string* s, const char* key, double value) {
  Append(s, key, FmtExact(value));
}

/// Truth labels of a pair in cell order (row-major) — shared by every Raha
/// repetition of one experiment.
std::vector<int32_t> BuildTruth(const datagen::DatasetPair& pair) {
  const int n_cols = pair.dirty.num_columns();
  std::vector<int32_t> truth(
      static_cast<size_t>(pair.dirty.num_rows()) * n_cols, 0);
  for (int r = 0; r < pair.dirty.num_rows(); ++r) {
    for (int c = 0; c < n_cols; ++c) {
      truth[static_cast<size_t>(r) * n_cols + static_cast<size_t>(c)] =
          pair.dirty.cell(r, c) != pair.clean.cell(r, c) ? 1 : 0;
    }
  }
  return truth;
}

}  // namespace

ThreadBudget ComputeThreadBudget(int hardware_threads, int requested_outer,
                                 int n_jobs) {
  ThreadBudget budget;
  if (requested_outer <= 0 || n_jobs <= 0) return budget;  // serial
  budget.outer = std::min(requested_outer, n_jobs);
  const int share = std::max(1, hardware_threads / budget.outer);
  budget.inner = share - 1;
  return budget;
}

std::string DetectorJobConfig(const core::DetectorOptions& o) {
  // Every field that can change a run's bits. `train_threads`,
  // `eval_threads` and `bucketed_inference` are deliberately absent: the
  // repo's determinism contract (DESIGN.md §6/§7) proves they cannot.
  std::string s = "detector/v1";
  Append(&s, "model", o.model);
  Append(&s, "sampler", o.sampler);
  Append(&s, "tuples", static_cast<int64_t>(o.n_label_tuples));
  Append(&s, "units", static_cast<int64_t>(o.units));
  Append(&s, "stacks", static_cast<int64_t>(o.stacks));
  Append(&s, "bidir", o.bidirectional);
  Append(&s, "cell", o.cell_type);
  Append(&s, "emb", static_cast<int64_t>(o.char_emb_dim));
  Append(&s, "attr_branch", o.use_attr_branch);
  Append(&s, "len_branch", o.use_length_branch);
  Append(&s, "prep_maxlen", static_cast<int64_t>(o.prepare.max_value_len));
  Append(&s, "prep_trim", o.prepare.trim_leading_whitespace);
  Append(&s, "prep_nan", o.prepare.treat_nan_as_empty);
  Append(&s, "epochs", static_cast<int64_t>(o.trainer.epochs));
  Append(&s, "lr", static_cast<double>(o.trainer.learning_rate));
  Append(&s, "rho", static_cast<double>(o.trainer.rmsprop_rho));
  Append(&s, "batch_frac", o.trainer.batch_fraction);
  Append(&s, "shuffle", o.trainer.shuffle);
  Append(&s, "trainer_seed", o.trainer.seed);
  Append(&s, "calibrate_bn", o.trainer.calibrate_batchnorm);
  Append(&s, "track_test", o.trainer.track_test_accuracy);
  Append(&s, "test_max_cells", o.trainer.test_eval_max_cells);
  Append(&s, "eval_batch", static_cast<int64_t>(o.trainer.eval_batch));
  Append(&s, "grad_shard", static_cast<int64_t>(o.trainer.grad_shard_cells));
  Append(&s, "seed", o.seed);
  return s;
}

std::string RahaJobConfig(int n_label_tuples, uint64_t seed) {
  std::string s = "raha/v1";
  Append(&s, "tuples", static_cast<int64_t>(n_label_tuples));
  Append(&s, "seed", seed);
  return s;
}

std::string RotomJobConfig(int n_label_cells, bool ssl, uint64_t seed) {
  std::string s = "rotom/v1";
  Append(&s, "cells", static_cast<int64_t>(n_label_cells));
  Append(&s, "ssl", ssl);
  Append(&s, "seed", seed);
  return s;
}

Scheduler::Scheduler(SchedulerOptions options) : options_(options) {}

Scheduler::Experiment& Scheduler::NewExperiment(
    const datagen::DatasetPair& pair, std::string system, int repetitions) {
  BIRNN_CHECK(!ran_) << "submit before RunAll()";
  BIRNN_CHECK_GE(repetitions, 0);
  Experiment exp;
  exp.dataset = pair.name;
  exp.system = std::move(system);
  exp.jobs.resize(static_cast<size_t>(repetitions));
  experiments_.push_back(std::move(exp));
  return experiments_.back();
}

Scheduler::ExperimentId Scheduler::SubmitDetector(
    const datagen::DatasetPair& pair, const RunnerOptions& options) {
  Experiment& exp = NewExperiment(
      pair, options.detector.model == "etsb" ? "ETSB-RNN" : "TSB-RNN",
      options.repetitions);
  const uint64_t fingerprint = FingerprintPair(pair);
  const datagen::DatasetPair* pair_ptr = &pair;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    core::DetectorOptions det = options.detector;
    det.seed = options.base_seed + static_cast<uint64_t>(rep);
    Job& job = exp.jobs[static_cast<size_t>(rep)];
    job.cache_key = ArtifactCache::Key(fingerprint, DetectorJobConfig(det));
    job.compute = [pair_ptr, det](int inner_threads) {
      core::DetectorOptions local = det;
      if (inner_threads >= 0) {
        local.train_threads = inner_threads;
        local.eval_threads = inner_threads;
      }
      JobOutcome out;
      const double cpu0 = ThreadCpuSeconds();
      core::ErrorDetector detector(local);
      auto report_or = detector.Run(pair_ptr->dirty, pair_ptr->clean);
      out.train_cpu_seconds = ThreadCpuSeconds() - cpu0;
      if (!report_or.ok()) {
        BIRNN_LOG(Error) << "detector run failed on " << pair_ptr->name
                         << ": " << report_or.status().ToString();
        return out;
      }
      out.ok = true;
      out.metrics = report_or->test_metrics;
      const size_t n_cols =
          static_cast<size_t>(pair_ptr->dirty.num_columns());
      for (const datagen::InjectedError& err : pair_ptr->injected_errors) {
        ErrorTypeCount& count = out.error_types[err.type];
        ++count.errors;
        if (report_or->predicted[static_cast<size_t>(err.row) * n_cols +
                                 static_cast<size_t>(err.col)]) {
          ++count.detected;
        }
      }
      out.history = std::move(report_or->history.epochs);
      out.train_seconds = report_or->history.train_seconds;
      return out;
    };
  }
  return experiments_.size() - 1;
}

Scheduler::ExperimentId Scheduler::SubmitRaha(const datagen::DatasetPair& pair,
                                              int repetitions,
                                              int n_label_tuples,
                                              uint64_t base_seed) {
  Experiment& exp = NewExperiment(pair, "Raha", repetitions);
  const uint64_t fingerprint = FingerprintPair(pair);
  const datagen::DatasetPair* pair_ptr = &pair;
  const auto truth =
      std::make_shared<const std::vector<int32_t>>(BuildTruth(pair));
  for (int rep = 0; rep < repetitions; ++rep) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(rep);
    Job& job = exp.jobs[static_cast<size_t>(rep)];
    job.cache_key = ArtifactCache::Key(
        fingerprint, RahaJobConfig(n_label_tuples, seed));
    job.compute = [pair_ptr, truth, n_label_tuples, seed](int inner_threads) {
      Rng rng(seed);
      raha::RahaOptions options;
      options.n_label_tuples = n_label_tuples;
      options.feature_threads = std::max(0, inner_threads);
      raha::RahaDetector detector(options);
      JobOutcome out;
      Stopwatch timer;
      const double cpu0 = ThreadCpuSeconds();
      std::vector<int64_t> labeled;
      const raha::DetectionMask predicted =
          detector.DetectErrors(pair_ptr->dirty, pair_ptr->clean, &rng,
                                &labeled);
      out.train_seconds = timer.ElapsedSeconds();
      out.train_cpu_seconds = ThreadCpuSeconds() - cpu0;

      // Evaluate on test cells only (tuples that were not labeled).
      const int n_cols = pair_ptr->dirty.num_columns();
      std::vector<uint8_t> in_train(
          static_cast<size_t>(pair_ptr->dirty.num_rows()), 0);
      for (int64_t r : labeled) in_train[static_cast<size_t>(r)] = 1;
      Confusion confusion;
      for (int r = 0; r < pair_ptr->dirty.num_rows(); ++r) {
        if (in_train[static_cast<size_t>(r)]) continue;
        for (int c = 0; c < n_cols; ++c) {
          const size_t i =
              static_cast<size_t>(r) * n_cols + static_cast<size_t>(c);
          confusion.Add(predicted[i], (*truth)[i]);
        }
      }
      out.metrics = Metrics::From(confusion);
      out.ok = true;
      return out;
    };
  }
  return experiments_.size() - 1;
}

Scheduler::ExperimentId Scheduler::SubmitRotom(
    const datagen::DatasetPair& pair, int repetitions, int n_label_cells,
    bool ssl, uint64_t base_seed) {
  Experiment& exp = NewExperiment(pair, ssl ? "Rotom+SSL" : "Rotom",
                                  repetitions);
  const uint64_t fingerprint = FingerprintPair(pair);
  const datagen::DatasetPair* pair_ptr = &pair;
  for (int rep = 0; rep < repetitions; ++rep) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(rep);
    Job& job = exp.jobs[static_cast<size_t>(rep)];
    job.cache_key = ArtifactCache::Key(
        fingerprint, RotomJobConfig(n_label_cells, ssl, seed));
    job.compute = [pair_ptr, n_label_cells, ssl, seed](int /*inner_threads*/) {
      rotom::RotomOptions options;
      options.n_label_cells = n_label_cells;
      options.ssl = ssl;
      options.seed = seed;
      rotom::RotomBaseline baseline(options);
      JobOutcome out;
      Stopwatch timer;
      const double cpu0 = ThreadCpuSeconds();
      auto result = baseline.Detect(pair_ptr->dirty, pair_ptr->clean);
      out.train_cpu_seconds = ThreadCpuSeconds() - cpu0;
      if (!result.ok()) {
        BIRNN_LOG(Error) << "rotom run failed on " << pair_ptr->name << ": "
                         << result.status().ToString();
        return out;
      }
      out.train_seconds = timer.ElapsedSeconds();
      out.metrics = result->test_metrics;
      out.ok = true;
      return out;
    };
  }
  return experiments_.size() - 1;
}

void Scheduler::RunAll() {
  BIRNN_CHECK(!ran_) << "RunAll() may only be called once";
  ran_ = true;
  OBS_SPAN("eval/run_all");
  Stopwatch timer;

  std::vector<Job*> jobs;
  for (Experiment& exp : experiments_) {
    for (Job& job : exp.jobs) jobs.push_back(&job);
  }
  stats_.jobs = static_cast<int64_t>(jobs.size());

  int requested = options_.threads;
  if (requested < 0) requested = HardwareConcurrency();
  const ThreadBudget budget = ComputeThreadBudget(
      HardwareConcurrency(), requested, static_cast<int>(jobs.size()));
  const int inner = budget.outer > 0 ? budget.inner : -1;
  stats_.outer_threads = budget.outer;
  stats_.inner_threads = inner;

  ArtifactCache* cache = options_.cache;
  const auto run_job = [cache, inner](Job* job) {
    OBS_SPAN("eval/job");
    Stopwatch job_timer;
    if (cache != nullptr && cache->Lookup(job->cache_key, &job->outcome)) {
      OBS_HISTOGRAM_RECORD("eval/job_seconds", job_timer.ElapsedSeconds());
      return;
    }
    job->outcome = job->compute(inner);
    job->outcome.from_cache = false;
    if (cache != nullptr && job->outcome.ok) {
      const Status status = cache->Store(job->cache_key, job->outcome);
      if (!status.ok()) {
        BIRNN_LOG(Warning) << "cache store failed: " << status.ToString();
      }
    }
    OBS_HISTOGRAM_RECORD("eval/job_seconds", job_timer.ElapsedSeconds());
    OBS_HISTOGRAM_RECORD("eval/job_cpu_seconds",
                         job->outcome.train_cpu_seconds);
  };

  if (budget.outer == 0) {
    for (Job* job : jobs) run_job(job);
  } else {
    ThreadPool pool(budget.outer);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (Job* job : jobs) {
      tasks.push_back([&run_job, job] { run_job(job); });
    }
    pool.SubmitBulk(std::move(tasks));
    pool.Wait();
  }

  for (const Job* job : jobs) {
    if (!job->outcome.ok) {
      ++stats_.failures;
    } else if (job->outcome.from_cache) {
      ++stats_.cache_hits;
    } else {
      ++stats_.computed;
    }
  }
  stats_.wall_seconds = timer.ElapsedSeconds();
  OBS_COUNTER_ADD("eval/jobs", stats_.jobs);
  OBS_COUNTER_ADD("eval/computed", stats_.computed);
  OBS_COUNTER_ADD("eval/cache_hits", stats_.cache_hits);
  OBS_COUNTER_ADD("eval/failures", stats_.failures);
}

RepeatedResult Scheduler::Take(ExperimentId id) {
  BIRNN_CHECK(ran_) << "call RunAll() before Take()";
  BIRNN_CHECK_LT(id, experiments_.size());
  Experiment& exp = experiments_[id];

  RepeatedResult result;
  result.dataset = exp.dataset;
  result.system = exp.system;
  result.harness_wall_seconds = stats_.wall_seconds;

  std::vector<double> ps, rs, f1s, train_times, cpu_times;
  // Repetition order, exactly like the serial loop: failed repetitions are
  // skipped, successful ones aggregate in rep order — bit-identical to the
  // serial harness for every thread count and completion order.
  for (Job& job : exp.jobs) {
    if (!job.outcome.ok) continue;
    result.runs.push_back(job.outcome.metrics);
    result.histories.push_back(std::move(job.outcome.history));
    for (const auto& [type, count] : job.outcome.error_types) {
      result.error_types[type].errors += count.errors;
      result.error_types[type].detected += count.detected;
    }
    ps.push_back(job.outcome.metrics.precision);
    rs.push_back(job.outcome.metrics.recall);
    f1s.push_back(job.outcome.metrics.f1);
    train_times.push_back(job.outcome.train_seconds);
    cpu_times.push_back(job.outcome.train_cpu_seconds);
    if (job.outcome.from_cache) ++result.cache_hits;
  }
  result.precision = birnn::Summarize(ps);
  result.recall = birnn::Summarize(rs);
  result.f1 = birnn::Summarize(f1s);
  result.train_seconds = birnn::Summarize(train_times);
  result.train_cpu_seconds = birnn::Summarize(cpu_times);
  return result;
}

}  // namespace birnn::eval
