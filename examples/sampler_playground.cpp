// sampler_playground — see what the three trainset-selection algorithms
// (§4.2) actually pick and how diverse their picks are.
//
//   ./build/examples/sampler_playground --dataset hospital --tuples 20

#include <cstdio>
#include <unordered_set>

#include "data/prepare.h"
#include "datagen/datasets.h"
#include "sampling/sampler.h"
#include "util/flags.h"

namespace {

/// Distinct attribute+value pairs covered by the selected tuples — the
/// "information content" DiverSet maximizes.
size_t DistinctConcats(const birnn::data::CellFrame& frame,
                       const std::vector<int64_t>& ids) {
  std::unordered_set<std::string> seen;
  for (int64_t id : ids) {
    for (int a = 0; a < frame.num_attrs(); ++a) {
      seen.insert(frame.attr_names()[static_cast<size_t>(a)] + '\x1F' +
                  frame.cell(id, a).value);
    }
  }
  return seen.size();
}

/// How many of the selected tuples contain at least one true error — a
/// trainset with no positives cannot teach the classifier anything.
int TuplesWithErrors(const birnn::data::CellFrame& frame,
                     const std::vector<int64_t>& ids) {
  int with_errors = 0;
  for (int64_t id : ids) {
    for (int a = 0; a < frame.num_attrs(); ++a) {
      if (frame.cell(id, a).label == 1) {
        ++with_errors;
        break;
      }
    }
  }
  return with_errors;
}

int Run(int argc, char** argv) {
  birnn::FlagSet flags;
  flags.AddString("dataset", "hospital", "benchmark dataset to sample from");
  flags.AddInt("tuples", 20, "tuples to select");
  flags.AddInt("seed", 7, "random seed");
  flags.AddDouble("scale", 0.3, "dataset scale");
  birnn::Status st = flags.Parse(argc, argv);
  if (!st.ok() || flags.help_requested()) {
    std::printf("%s", flags.Usage("sampler_playground").c_str());
    return st.ok() ? 0 : 2;
  }

  birnn::datagen::GenOptions gen;
  gen.scale = flags.GetDouble("scale");
  auto pair_or = birnn::datagen::MakeDataset(flags.GetString("dataset"), gen);
  if (!pair_or.ok()) {
    std::fprintf(stderr, "%s\n", pair_or.status().ToString().c_str());
    return 1;
  }
  auto frame_or = birnn::data::PrepareData(pair_or->dirty, pair_or->clean);
  if (!frame_or.ok()) {
    std::fprintf(stderr, "%s\n", frame_or.status().ToString().c_str());
    return 1;
  }
  const birnn::data::CellFrame& frame = *frame_or;
  std::printf("dataset %s: %ld tuples x %d attributes, error rate %.3f\n\n",
              pair_or->name.c_str(), static_cast<long>(frame.num_tuples()),
              frame.num_attrs(), frame.ErrorRate());

  const int n = flags.GetInt("tuples");
  for (const char* name : {"randomset", "rahaset", "diverset"}) {
    auto sampler_or = birnn::sampling::MakeSampler(name);
    if (!sampler_or.ok()) continue;
    birnn::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
    auto ids_or = (*sampler_or)->Select(frame, n, &rng);
    if (!ids_or.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name,
                   ids_or.status().ToString().c_str());
      continue;
    }
    const std::vector<int64_t>& ids = *ids_or;
    std::printf("%-10s distinct attr+value pairs: %3zu / %d   tuples with "
                "errors: %2d / %d\n",
                (*sampler_or)->name().c_str(), DistinctConcats(frame, ids),
                n * frame.num_attrs(), TuplesWithErrors(frame, ids), n);
    std::printf("           picked ids:");
    for (int64_t id : ids) std::printf(" %ld", static_cast<long>(id));
    std::printf("\n\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
