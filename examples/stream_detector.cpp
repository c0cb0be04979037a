// Streaming (CDC) detection: train once, then keep verdicts current while
// the table changes underneath you — without re-detecting the whole table.
//
// 1. Train an ETSB-RNN detector on synthetic Hospital data. The trained
//    state carries frozen column statistics (per-attribute max value
//    length, empty/error rates, dictionary fingerprint), which every
//    bundle persists and streaming encodes against.
// 2. Open a stream::TableSession on the detector and replay the dirty
//    table as inserts. Only the arriving cells are encoded and scored —
//    bit-identically to the offline run, so the materialized verdict store
//    equals the offline DetectionReport exactly.
// 3. Apply single-cell updates and a delete, the way a change-data-capture
//    feed would. An update re-scores exactly one cell; a delete re-scores
//    none. Verdicts are versioned by the delta that produced them.
// 4. Feed the session out-of-distribution values (characters the train
//    dictionary never saw, lengths beyond the train-time maximum) and
//    watch drift alarms latch against the frozen baselines.
//
// Build & run:  ./build/examples/stream_detector
//
// For the same flow over the wire, the serve plane speaks a "delta" op
// (see DESIGN.md §15); for embedding in a C host (a database UDF, say),
// see embed_capi.c.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "datagen/datasets.h"
#include "serve/bundle.h"
#include "stream/session.h"

int main() {
  using birnn::stream::TableSession;

  // 1. Train offline.
  birnn::datagen::GenOptions gen;
  gen.scale = 0.1;
  gen.seed = 7;
  const birnn::datagen::DatasetPair hospital =
      birnn::datagen::MakeHospital(gen);

  birnn::core::DetectorOptions options;
  options.model = "etsb";
  options.trainer.epochs = 30;
  birnn::core::ErrorDetector detector(options);
  birnn::core::TrainedDetector trained;
  auto report = detector.Run(hospital.dirty, hospital.clean, &trained);
  if (!report.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("trained on %s: %s\n", hospital.name.c_str(),
              report->test_metrics.ToString().c_str());

  // 2. Wrap the trained state as a loaded detector and open a session.
  // (SaveDetectorBundle / LoadDetectorBundle round-trips the same state
  // through a bundle directory, frozen statistics included.)
  auto loaded = birnn::serve::MakeLoadedDetector(std::move(trained));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto shared = std::make_shared<const birnn::serve::LoadedDetector>(
      std::move(loaded).value());
  auto session = TableSession::Create(shared);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  TableSession& s = **session;

  // Replay the dirty table as inserts; the verdict store now equals the
  // offline report bit for bit.
  const int n_attrs = hospital.dirty.num_columns();
  for (int r = 0; r < hospital.dirty.num_rows(); ++r) {
    std::vector<std::string> tuple;
    for (int a = 0; a < n_attrs; ++a) tuple.push_back(hospital.dirty.cell(r, a));
    if (auto st = s.Insert(r, std::move(tuple)); !st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const auto replayed = s.MaterializedVerdicts();
  int64_t agree = 0;
  for (size_t i = 0; i < replayed.size(); ++i) {
    agree += replayed[i] == report->predicted[i];
  }
  std::printf("replayed %lld cells as inserts; %lld/%zu match offline\n",
              static_cast<long long>(s.stats().cells_scored),
              static_cast<long long>(agree), replayed.size());

  // 3. CDC-style changes: one corrupted cell arrives, then gets fixed.
  std::vector<std::pair<int, birnn::stream::CellVerdict>> affected;
  (void)s.Update(0, 1, "xxxxxx", &affected);  // hospital-style corruption
  std::printf("update(0,1,\"xxxxxx\") -> p_error=%.3f version=%llu\n",
              affected[0].second.p_error,
              static_cast<unsigned long long>(affected[0].second.version));
  (void)s.Update(0, 1, hospital.clean.cell(0, 1), &affected);
  std::printf("update(0,1,clean)     -> p_error=%.3f version=%llu\n",
              affected[0].second.p_error,
              static_cast<unsigned long long>(affected[0].second.version));
  (void)s.Delete(1);
  std::printf("after delete: %lld live rows, %lld cells scored total\n",
              static_cast<long long>(s.stats().rows),
              static_cast<long long>(s.stats().cells_scored));

  // 4. Drift: attribute 2 starts receiving values the training table never
  // prepared the detector for.
  for (int i = 0; i < 400; ++i) {
    (void)s.Update(0, 2, "@@@@ TOTALLY UNEXPECTED INPUT @@@@");
  }
  for (const birnn::stream::DriftAlarm& alarm : s.drift_alarms()) {
    std::printf("drift alarm: attr=%d kind=%s frozen=%.3f live=%.3f\n",
                alarm.attr, birnn::stream::DriftKindName(alarm.kind),
                alarm.frozen, alarm.live);
  }
  std::printf("session: %lld deltas, %lld memo hits, %lld drift alarms\n",
              static_cast<long long>(s.stats().deltas),
              static_cast<long long>(s.stats().memo_hits),
              static_cast<long long>(s.stats().drift_alarms));
  return 0;
}
