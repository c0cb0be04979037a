// Entry points of the workload processes (one per process, see main.cc).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Trains the bundle serve_zipf (hospital) or stream_fresh (beers) loads,
/// with a short fixed schedule, and saves it to `args.dir`. Untimed.
int RunPreamble(const Args& args);
int RunOfflineTax(const Args& args);
int RunServeZipf(const Args& args);
int RunStreamFresh(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
