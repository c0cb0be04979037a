// Workload process of the repo benchmark. run.py starts one process per
// workload (and one for the untimed bundle preamble), so peak RSS and
// thread counts are each workload's own.
//
//   perfbench preamble     --workload=serve_zipf|stream_fresh --seed=N
//                          --dir=OUT
//   perfbench offline_tax  --seed=N --seconds=S --trace=0|1 --dir=WORK
//   perfbench serve_zipf   --seed=N --seconds=S --trace=0|1 --dir=BUNDLE
//   perfbench stream_fresh --seed=N --seconds=S --trace=0|1 --dir=BUNDLE
//   perfbench inputs       --seed=N   (prints the generated inputs)
#include <iostream>

#include "common.h"
#include "core/detector.h"
#include "inputs.h"
#include "serve/bundle.h"
#include "workloads.h"

namespace perfbench {

int RunPreamble(const Args& args) {
  const bool serve = args.workload == "serve_zipf";
  if (!serve && args.workload != "stream_fresh") {
    Die("preamble needs --workload=serve_zipf|stream_fresh");
  }
  const birnn::datagen::DatasetPair table =
      serve ? ServeTable(args.smoke) : StreamTable(args.smoke);
  birnn::core::DetectorOptions options;
  // Serving cost depends on the model's shape, not on how well it is
  // trained, so the bundle gets a short fixed schedule.
  options.trainer.epochs = 4;
  options.seed = args.seed;
  birnn::core::TrainedDetector trained;
  auto report = birnn::core::ErrorDetector(options).Run(
      table.dirty, table.clean, &trained);
  if (!report.ok()) {
    Die("preamble training failed: " + report.status().ToString());
  }
  const birnn::Status saved =
      birnn::serve::SaveDetectorBundle(trained, args.dir);
  if (!saved.ok()) Die("preamble save failed: " + saved.ToString());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::string mode = argv[1];
  if (mode == "preamble") return RunPreamble(args);
  if (mode == "offline_tax") return RunOfflineTax(args);
  if (mode == "serve_zipf") return RunServeZipf(args);
  if (mode == "stream_fresh") return RunStreamFresh(args);
  if (mode == "inputs") {
    std::cout << DumpInputs(args.seed, args.smoke, 2000, 4000);
    return 0;
  }
  Die("unknown mode: " + mode);
}
