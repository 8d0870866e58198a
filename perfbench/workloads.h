// The benchmark's workloads. Each fills the report with its end-to-end
// metrics (or, traced, its per-layer metrics) and returns a process exit
// code: non-zero only when the workload could not run at all.
#ifndef ERBIUM_PERFBENCH_WORKLOADS_H_
#define ERBIUM_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunEntityServing(const Args& args, Report* report);
int RunDurableIngest(const Args& args, Report* report);
int RunErAnalytics(const Args& args, Report* report);

}  // namespace perfbench

#endif  // ERBIUM_PERFBENCH_WORKLOADS_H_
