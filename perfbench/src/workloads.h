// The benchmark's workloads. Each runs its set-up, then its measured loop
// for RunArgs::seconds, checks every operation's output, and fills the
// report with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). A non-OK Status is a set-up failure: the run has
// no result.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

tpcp::Status RunZoOutOfCore(const RunArgs& args, Report* report);
tpcp::Status RunMcInCore(const RunArgs& args, Report* report);
tpcp::Status RunCsfDist(const RunArgs& args, Report* report);
tpcp::Status RunTpcpdJobs(const RunArgs& args, Report* report);

/// The exec target of csf-dist's forked workers: serves one dist worker
/// and writes its storage counters to `stats_path` (when non-empty).
int ServeBenchDistWorker(const std::string& env_uri,
                         const std::string& factor_prefix, int port,
                         int worker, const std::string& stats_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
