// perfbench — the end-to-end benchmark of the 2PCP system.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads: zo-outofcore, mc-incore, csf-dist, tpcpd-jobs (see
// BENCHMARK.json for why each exists). The last stdout line is the result:
//
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:value,…}}
//
// holding every metric the run measured. perfbench/run.py keeps the
// end-to-end ones under --trace 0 and the per-layer ones under --trace 1.
// Earlier lines carry the environment stamp and any gate failures. Exit
// code 0 with a result line, 1 without one.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "linalg/simd.h"
#include "server/json.h"
#include "workloads.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    }
  }
  return flags;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <zo-outofcore|"
               "mc-incore|csf-dist|tpcpd-jobs> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n",
               why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);

  if (flags.count("dist-worker-port")) {
    return perfbench::ServeBenchDistWorker(
        flags["dist-worker-uri"], flags["dist-worker-prefix"],
        std::atoi(flags["dist-worker-port"].c_str()),
        std::atoi(flags["dist-worker-id"].c_str()),
        flags["dist-worker-stats"]);
  }

  perfbench::RunArgs args;
  args.workload = flags["workload"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::atof(flags["seconds"].c_str());
  args.trace = flags["trace"] == "1";
  args.work_dir = flags["work-dir"];
  if (args.seconds <= 0.0) return Usage("--seconds must be > 0");
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  using Runner = tpcp::Status (*)(const perfbench::RunArgs&,
                                  perfbench::Report*);
  const std::map<std::string, Runner> workloads = {
      {"zo-outofcore", perfbench::RunZoOutOfCore},
      {"mc-incore", perfbench::RunMcInCore},
      {"csf-dist", perfbench::RunCsfDist},
      {"tpcpd-jobs", perfbench::RunTpcpdJobs},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  // rss_reset=0: the kernel refused to reset VmHWM, so peak_rss_mib is the
  // process's lifetime peak, set-up included.
  std::printf("env: nproc=%d simd=%s build=%s rss_reset=%d workload=%s "
              "seed=%llu seconds=%g trace=%d\n",
              perfbench::OnlineCpus(), tpcp::simd::kTargetName,
              PERFBENCH_BUILD_TYPE, perfbench::ResetPeakRss() ? 1 : 0,
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Report report;
  const tpcp::Status status = it->second(args, &report);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                 args.workload.c_str(), status.ToString().c_str());
    return 1;
  }

  // Every metric the workload set, as name: value; run.py keeps the run's
  // kind and attaches the units from BENCHMARK.json.
  tpcp::JsonValue metrics = tpcp::JsonValue::Object();
  for (const auto& [name, value] : report.metrics) metrics.Set(name, value);
  tpcp::JsonValue result = tpcp::JsonValue::Object();
  result.Set("correct", report.correct);
  result.Set("attempted", report.attempted);
  result.Set("failed", report.failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Serialize().c_str());
  return 0;
}
