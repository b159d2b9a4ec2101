// tpcp_tool — command-line driver for the 2PCP library, built on the
// Session API (api/session.h).
//
//   tpcp_tool generate  <dir|uri> <I> <J> <K> <parts> [rank] [density] [seed]
//       Streams a synthetic low-rank dense tensor into a manifest-backed
//       block store under <dir>/tensor, partitioned <parts> ways per mode.
//       --slab-format=dense|coo|csf selects the block encoding (default
//       dense); every consumer reads every format.
//
//   tpcp_tool decompose <dir|uri> <rank> [schedule] [policy]
//                       [buffer-fraction] [prefetch-depth] [io-threads]
//       Decomposes <dir>/tensor with the solver named by --solver
//       (default 2pcp), writing factors to <dir>/factors and printing
//       timings, fit and I/O statistics.
//
//   tpcp_tool jobs      <specfile> [--workers] [--cancel-at-vi=IDX:VI,...]
//       Submits a batch of decompositions to a JobService — one job per
//       non-comment line of <specfile>, each line in `decompose` argument
//       syntax — runs them concurrently, renders live per-job progress on
//       stderr and prints one grep-able summary line per job. Cancelled
//       jobs leave a checkpoint; rerunning the same spec file resumes
//       them (shown as "resumed at vi N").
//
//   tpcp_tool plan      <dir|uri> <rank> [schedule] [policy]
//                       [buffer-fraction] [--plan-reorder] [...]
//       Prints the Phase-2 execution plan for the stored tensor's grid —
//       waves, batch widths, shard counts, predicted swaps before/after
//       conflict-aware reordering — without decomposing anything. Every
//       line is prefixed "plan:" so CI can grep it. With --workers=N the
//       cluster simulator additionally prints per-worker ownership
//       ("dist:" lines), predicted swaps / exchange bytes / transfer
//       seconds per virtual iteration ("cluster:" lines;
//       --link-latency-us and --link-bandwidth-mbps set the link price)
//       and the overlapped-vs-barrier wall-clock ("cluster-overlap:").
//       --workers=auto instead searches N=1..8 and prints one
//       "cluster-auto:" row per N plus the chosen fleet size
//       (--overlap=on picks by pipelined wall-clock, off by barrier).
//
//   tpcp_tool dist      <dir|uri> <rank> [decompose options] [--workers=N]
//                       [--heartbeat-ms=1000] [--max-respawns=2]
//                       [--degrade=off|shrink|single] [--overlap=on|off]
//       Distributed Phase 2: runs Phase 1 in-process, then spawns N local
//       worker processes (re-exec'ing this binary as `dist-worker`) and
//       drives them through the wave protocol (dist/coordinator.h).
//       Factors and fit trace are bit-identical to `decompose` with the
//       same arguments. A worker that dies or wedges mid-run is detected
//       via heartbeats, respawned from the last checkpoint up to
//       --max-respawns times, then the run degrades per --degrade (shed
//       the worker, or finish in-process); recovery lines print to
//       stdout ("dist: worker N failed ..."). --overlap=on pipelines the
//       wave relay into the next wave's compute window (bit-identical
//       output; the hidden relay volume prints as an "overlap:" line).
//       Needs a store worker processes can open — not mem://.
//       `dist-worker` is the internal worker entry point.
//
//   tpcp_tool simulate  <parts> <buffer-fraction>
//       Prints the exact per-virtual-iteration swap table for a cubic grid
//       (no data needed — swap counts are configuration-determined).
//
//   tpcp_tool solvers
//       Lists the registered solvers and storage schemes/wrappers.
//
//   tpcp_tool client <verb> [--host=127.0.0.1] [--port=7214] [...]
//       Thin client for a running tpcpd daemon (tools/tpcpd.cc): submit /
//       poll / await / list / cancel / tenant-stats over the
//       length-prefixed JSON wire protocol; prints the raw response.
//       `tpcp_tool client` alone shows the verb flags.
//
// <dir|uri> is either a plain directory (shorthand for posix://<dir>) or a
// storage URI: mem://, posix:///path, compressed+posix:///path?level=3,
// throttled+mem://?mbps=50&latency_ms=1, faulty+..., and any registered
// extension scheme.
//
// Optional settings are flags (accepted anywhere after the subcommand):
//   --solver=2pcp|naive-oocp|grid-parafac|haten2
//   --schedule=mc|fo|zo|ho|sn|rnd      --policy=lru|mru|for
//   --init=random|hosvd                --buffer-fraction=F
//   --prefetch-depth=N --io-threads=N  --threads=N (Phase-1 workers)
//   --compute-threads=N                (Phase-2 parallel refinement math)
//   --max-vi=N --max-seconds=S --seed=N
//   --fit-tolerance=T                  (Phase-2 stop; negative = never)
//   --plan-reorder                     (conflict-aware reordering, adopted
//                                       only under certified swap parity;
//                                       the default for block-centric
//                                       schedules — see --no-plan-reorder)
//   --no-plan-reorder                  (pin the source order: disable the
//                                       block-centric reordering default)
//   --reorder-window=N                 (reorder window in steps; 0 = one
//                                       virtual iteration)
//   --shard-blocks=N                   (slab blocks per shard for
//                                       singleton-wave steps; 0 = off)
//   --kernel-fma                       (fused-multiply-add refinement
//                                       kernels; fingerprinted — resumes
//                                       must keep the same setting)
//   --policy-hints                     (LRU/MRU take the plan's eviction
//                                       hints as victim advice)
//   --resume                           (continue from the persisted factor
//                                       store / Phase-2 checkpoint)
//   --param=key=value                  (solver-specific, repeatable)
//   --progress                         (live per-block / per-iteration lines
//                                       on stderr)
// The bare positional forms of the pre-Session tool keep working; every
// numeric argument is parsed checked — garbage is an error, not a zero.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/job_service.h"
#include "api/session.h"
#include "core/cost_model.h"
#include "core/names.h"
#include "core/progress_observer.h"
#include "core/swap_simulator.h"
#include "core/phase2_engine.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "grid/manifest.h"
#include "schedule/planner.h"
#include "server/json.h"
#include "server/net.h"
#include "util/format.h"
#include "util/parse.h"

using namespace tpcp;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s generate  <dir|uri> <I> <J> <K> <parts> [rank=10] [density=1.0] "
      "[seed=42] [--slab-format=dense|coo|csf]\n"
      "  %s decompose <dir|uri> <rank> [schedule=ho] [policy=for] "
      "[buffer-fraction=0.5] [prefetch-depth=0] [io-threads=2]\n"
      "             [--solver=2pcp] [--init=random] [--threads=1] "
      "[--compute-threads=1] [--max-vi=100] [--max-seconds=0] [--seed=1]\n"
      "             [--fit-tolerance=0.01] [--resume] "
      "[--param=key=value ...] [--progress]\n"
      "  %s jobs      <specfile> [--workers=2] [--total-threads=0]\n"
      "             [--cancel-at-vi=IDX:VI,...] [--quiet]\n"
      "             (each specfile line: decompose arguments; # comments)\n"
      "  %s plan      <dir|uri> <rank> [schedule=ho] [policy=for] "
      "[buffer-fraction=0.5]\n"
      "             [--plan-reorder] [--reorder-window=0] "
      "[--shard-blocks=0]\n"
      "             [--prefetch-depth=0] [--plan-waves=8] "
      "[--workers=0|N|auto]\n"
      "             [--link-latency-us=100] [--link-bandwidth-mbps=1250] "
      "[--overlap=on|off]\n"
      "  %s dist      <dir|uri> <rank> [decompose options] [--workers=2]\n"
      "              [--heartbeat-ms=1000] [--max-respawns=2]"
      " [--degrade=off|shrink|single] [--overlap=on|off]\n"
      "  %s simulate  <parts> <buffer-fraction>\n"
      "  %s solvers\n"
      "schedules: %s   policies: %s\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      ScheduleTypeChoices().c_str(), PolicyTypeChoices().c_str());
  return 2;
}

/// Command line split into positionals and --key[=value] flags.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::map<std::string, std::string> params;  // from repeated --param=k=v
};

bool SplitTokens(const std::vector<std::string>& tokens, Args* out) {
  for (const std::string& arg : tokens) {
    if (arg.rfind("--", 0) != 0) {
      out->positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key.empty()) {
      std::fprintf(stderr, "malformed flag '%s'\n", arg.c_str());
      return false;
    }
    if (key == "param") {
      const size_t peq = value.find('=');
      if (peq == std::string::npos || peq == 0) {
        std::fprintf(stderr, "--param expects key=value, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->params[value.substr(0, peq)] = value.substr(peq + 1);
    } else {
      out->flags[key] = value;
    }
  }
  return true;
}

bool SplitArgs(int argc, char** argv, int first, Args* out) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<size_t>(argc - first));
  for (int i = first; i < argc; ++i) tokens.push_back(argv[i]);
  return SplitTokens(tokens, out);
}

/// A plain directory is shorthand for posix://<dir>.
std::string ToStorageUri(const std::string& dir_or_uri) {
  if (dir_or_uri.find("://") != std::string::npos) return dir_or_uri;
  return "posix://" + dir_or_uri;
}

bool ReportBad(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return false;
}

/// Flag/positional accessors with checked parsing. `pos` is the index into
/// the positional list a legacy caller would have used (-1: flag-only).
class OptionReader {
 public:
  OptionReader(const Args& args, size_t first_positional)
      : args_(args), next_(first_positional) {}

  bool ok() const { return ok_; }

  /// Call after reading every known option: a flag nobody consumed is a
  /// typo, and silently ignoring it would run a different configuration
  /// than the user asked for.
  bool NoUnknownFlags() {
    for (const auto& [key, value] : args_.flags) {
      if (consumed_.find(key) == consumed_.end()) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        ok_ = false;
      }
    }
    return ok_;
  }

  std::string Text(const char* flag, const std::string& fallback) {
    const std::string* raw = Raw(flag, /*consumes_positional=*/true);
    return raw != nullptr ? *raw : fallback;
  }

  int64_t Int(const char* flag, int64_t fallback, bool positional_too = true,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max()) {
    const std::string* raw = Raw(flag, positional_too);
    if (raw == nullptr) return fallback;
    auto value = ParseInt64(*raw);
    if (!value.ok()) {
      ok_ = ReportBad(flag, value.status());
      return fallback;
    }
    if (*value < min || *value > max) {
      ok_ = ReportBad(flag, Status::InvalidArgument(
                                *raw + " is outside [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]"));
      return fallback;
    }
    return *value;
  }

  double Double(const char* flag, double fallback, bool positional_too,
                double min, double max) {
    const std::string* raw = Raw(flag, positional_too);
    if (raw == nullptr) return fallback;
    auto value = ParseDouble(*raw);
    if (!value.ok()) {
      ok_ = ReportBad(flag, value.status());
      return fallback;
    }
    if (*value < min || *value > max) {
      ok_ = ReportBad(flag, Status::InvalidArgument(
                                *raw + " is outside [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]"));
      return fallback;
    }
    return *value;
  }

  bool Present(const char* flag) {
    consumed_.insert(flag);
    return args_.flags.find(flag) != args_.flags.end();
  }

 private:
  /// The flag value if set, else the next unconsumed positional (when
  /// `consumes_positional`), else nullptr.
  const std::string* Raw(const char* flag, bool consumes_positional) {
    consumed_.insert(flag);
    const auto it = args_.flags.find(flag);
    if (it != args_.flags.end()) return &it->second;
    if (consumes_positional && next_ < args_.positional.size()) {
      return &args_.positional[next_++];
    }
    return nullptr;
  }

  const Args& args_;
  size_t next_;
  bool ok_ = true;
  std::set<std::string> consumed_;
};

/// --progress: live lines on stderr, kept off stdout so the summary stays
/// grep-able.
class StderrProgress : public ProgressObserver {
 public:
  void OnPhase1BlockDone(int64_t done, int64_t total,
                         double block_fit) override {
    std::fprintf(stderr, "phase1: block %lld/%lld fit %.4f\n",
                 static_cast<long long>(done), static_cast<long long>(total),
                 block_fit);
  }
  void OnPhase1Done(double seconds, double mean_block_fit) override {
    std::fprintf(stderr, "phase1: done in %.2fs (mean block fit %.4f)\n",
                 seconds, mean_block_fit);
  }
  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override {
    std::fprintf(stderr, "phase2: vi %d fit %.4f (%llu swap-ins)\n",
                 iteration, surrogate_fit,
                 static_cast<unsigned long long>(swap_ins));
  }
  void OnPhase2Done(int virtual_iterations, bool converged,
                    double surrogate_fit, const BufferStats& stats) override {
    std::fprintf(stderr,
                 "phase2: done after %d vi (%s), fit %.4f, "
                 "%llu prefetch hits, %.2fs stalled\n",
                 virtual_iterations, converged ? "converged" : "cap",
                 surrogate_fit,
                 static_cast<unsigned long long>(stats.prefetch_hits),
                 stats.stall_seconds);
  }
};

int Generate(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  if (args.positional.size() < 5) return Usage(argv[0]);

  OptionReader opts(args, 1);
  const int64_t i = opts.Int("I", 0, true, 1);
  const int64_t j = opts.Int("J", 0, true, 1);
  const int64_t k = opts.Int("K", 0, true, 1);
  const int64_t parts = opts.Int("parts", 0, true, 1);
  LowRankSpec spec;
  spec.rank = opts.Int("rank", 10, true, 1);
  spec.density = opts.Double("density", 1.0, true, 0.0, 1.0);
  spec.seed = static_cast<uint64_t>(opts.Int("seed", 42, true, 0));
  spec.noise_level = 0.05;
  const std::string format_name = opts.Text("slab-format", "dense");
  if (!opts.NoUnknownFlags()) return 2;
  SlabFormat format = SlabFormat::kDense;
  if (!SlabFormatFromName(format_name.c_str(), &format)) {
    std::fprintf(stderr,
                 "--slab-format expects dense, coo or csf, got '%s'\n",
                 format_name.c_str());
    return 2;
  }
  spec.shape = Shape({i, j, k});

  auto grid = GridPartition::CreateUniform(spec.shape, parts);
  if (!grid.ok()) return ReportBad("generate", grid.status()), 1;

  auto session = Session::Open({ToStorageUri(args.positional[0])});
  if (!session.ok()) return ReportBad("open storage", session.status()), 1;
  auto store = (*session)->CreateTensorStore(*grid, format);
  if (!store.ok()) return ReportBad("create store", store.status()), 1;
  if (Status s = GenerateLowRankIntoStore(spec, *store); !s.ok()) {
    return ReportBad("generate", s), 1;
  }
  auto bytes = (*store)->TotalBytes();
  std::printf("wrote %s tensor as %lld %s blocks (%s) under %s\n",
              spec.shape.ToString().c_str(),
              static_cast<long long>(grid->NumBlocks()),
              SlabFormatName(format),
              bytes.ok() ? HumanBytes(*bytes).c_str() : "?",
              args.positional[0].c_str());
  return 0;
}

/// One decomposition request: the shared vocabulary of the `decompose`
/// subcommand and of every line of a `jobs` spec file.
struct DecomposeConfig {
  std::string uri;
  std::string solver = "2pcp";
  TwoPhaseCpOptions options;
  std::map<std::string, std::string> params;
  bool progress = false;
};

/// Parses "<dir|uri> <rank> [schedule] [policy] [buffer-fraction]
/// [prefetch-depth] [io-threads]" plus the shared flags. Returns false
/// (with the problem reported on stderr) on any malformed piece.
bool ParseDecomposeConfig(const Args& args, DecomposeConfig* config) {
  if (args.positional.empty() ||
      (args.positional.size() < 2 && args.flags.count("rank") == 0)) {
    std::fprintf(stderr, "decompose needs <dir|uri> and a rank\n");
    return false;
  }
  TwoPhaseCpOptions& options = config->options;
  OptionReader opts(args, 1);
  options.rank = opts.Int("rank", 10, true, 1);
  const std::string schedule = opts.Text("schedule", "ho");
  const std::string policy = opts.Text("policy", "for");
  options.buffer_fraction =
      opts.Double("buffer-fraction", 0.5, true, 1e-6, 1.0);
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  options.prefetch_depth =
      static_cast<int>(opts.Int("prefetch-depth", 0, true, 0, kIntMax));
  options.io_threads =
      static_cast<int>(opts.Int("io-threads", 2, true, 1, kIntMax));
  options.compute_threads =
      static_cast<int>(opts.Int("compute-threads", 1, false, 1, kIntMax));
  config->solver = opts.Text("solver", "2pcp");
  const std::string init = opts.Text("init", "random");
  options.num_threads =
      static_cast<int>(opts.Int("threads", 1, false, 1, kIntMax));
  options.max_virtual_iterations =
      static_cast<int>(opts.Int("max-vi", 100, false, 1, kIntMax));
  options.max_seconds =
      opts.Double("max-seconds", 0.0, false, 0.0, 1e9);
  options.fit_tolerance =
      opts.Double("fit-tolerance", options.fit_tolerance, false, -1.0, 1.0);
  options.seed = static_cast<uint64_t>(opts.Int("seed", 1, false, 0));
  options.plan_reorder = opts.Present("plan-reorder");
  // --no-plan-reorder pins the source order: block-centric schedules
  // otherwise reorder by default (plan_reorder_auto).
  if (opts.Present("no-plan-reorder")) {
    if (options.plan_reorder) {
      std::fprintf(stderr,
                   "--plan-reorder and --no-plan-reorder conflict\n");
      return false;
    }
    options.plan_reorder_auto = false;
  }
  options.plan_reorder_window =
      opts.Int("reorder-window", 0, false, 0, kIntMax);
  options.shard_slab_blocks =
      opts.Int("shard-blocks", 0, false, 0, kIntMax);
  options.kernel_fma = opts.Present("kernel-fma");
  options.policy_victim_hints = opts.Present("policy-hints");
  options.resume_phase2 = opts.Present("resume");
  config->progress = opts.Present("progress");
  if (!opts.ok()) return false;

  if (auto parsed = ScheduleTypeFromName(schedule); parsed.ok()) {
    options.schedule = *parsed;
  } else {
    return ReportBad("--schedule", parsed.status());
  }
  if (auto parsed = PolicyTypeFromName(policy); parsed.ok()) {
    options.policy = *parsed;
  } else {
    return ReportBad("--policy", parsed.status());
  }
  if (auto parsed = InitMethodFromName(init); parsed.ok()) {
    options.init = *parsed;
  } else {
    return ReportBad("--init", parsed.status());
  }
  if (!opts.NoUnknownFlags()) return false;
  config->uri = ToStorageUri(args.positional[0]);
  config->params = args.params;
  return true;
}

int Decompose(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);

  DecomposeConfig config;
  if (!ParseDecomposeConfig(args, &config)) return 2;
  TwoPhaseCpOptions& options = config.options;
  const std::string& solver = config.solver;

  StderrProgress progress;
  if (config.progress) options.observer = &progress;

  auto session = Session::Open({config.uri});
  if (!session.ok()) return ReportBad("open storage", session.status()), 1;
  auto store = (*session)->OpenTensorStore();
  if (!store.ok()) {
    ReportBad("open tensor store", store.status());
    std::fprintf(stderr, "(run `generate` first?)\n");
    return 1;
  }
  const GridPartition& grid = (*store)->grid();

  auto result = (*session)->Decompose(solver, options, config.params);
  if (!result.ok()) return ReportBad("decompose", result.status()), 1;
  const SolveResult& r = *result;

  std::printf("decomposed %s (grid %s) at rank %lld via %s [%s + %s]\n",
              grid.tensor_shape().ToString().c_str(), grid.ToString().c_str(),
              static_cast<long long>(options.rank), r.solver.c_str(),
              ScheduleTypeName(options.schedule),
              PolicyTypeName(options.policy));
  if (r.failed) {
    std::printf("  FAILED (expected baseline failure): %s\n",
                r.failure.c_str());
    return 0;
  }
  if (r.phase2_start_iteration > 0) {
    std::printf("  resumed at vi %d (phase 1 skipped)\n",
                r.phase2_start_iteration);
  }
  if (r.blocks_decomposed > 0) {
    std::printf("  phase 1: %.2fs over %lld blocks (mean block fit %.4f)\n",
                r.phase1_seconds,
                static_cast<long long>(r.blocks_decomposed),
                r.phase1_mean_block_fit);
    std::printf("  phase 2: %.2fs, %d virtual iterations (%s), surrogate "
                "fit %.4f\n",
                r.phase2_seconds, r.virtual_iterations,
                r.converged ? "converged" : "cap", r.surrogate_fit);
    std::printf("  buffer:  %.2f swaps/virtual-iteration, hit rate %.1f%%\n",
                r.swaps_per_virtual_iteration,
                100.0 * r.buffer_stats.HitRate());
    std::printf("  overlap: prefetch depth %d, %llu prefetch hits, "
                "%.2fs stalled, %.2fs writing back\n",
                options.prefetch_depth,
                static_cast<unsigned long long>(
                    r.buffer_stats.prefetch_hits),
                r.buffer_stats.stall_seconds,
                r.buffer_stats.writeback_seconds);
  } else {
    std::printf("  %d iterations (%s%s), fit %.4f in %.2fs\n",
                r.virtual_iterations,
                r.converged ? "converged" : "cap",
                r.timed_out ? ", timed out" : "", r.surrogate_fit,
                r.total_seconds);
    if (r.bytes_streamed > 0) {
      std::printf("  streamed %s of tensor data\n",
                  HumanBytes(r.bytes_streamed).c_str());
    }
    if (r.mapreduce_jobs > 0) {
      std::printf("  %llu MapReduce jobs, %s shuffled (%llu records)\n",
                  static_cast<unsigned long long>(r.mapreduce_jobs),
                  HumanBytes(r.shuffle_bytes).c_str(),
                  static_cast<unsigned long long>(r.shuffle_records));
    }
  }
  std::printf("  I/O:     %s\n", (*session)->env()->stats().ToString().c_str());
  if ((*session)->factor_store() != nullptr) {
    std::printf("factors written under %s\n", args.positional[0].c_str());
  }
  return 0;
}

/// `plan` — print the Phase-2 execution plan for a stored tensor's grid.
/// Shares `decompose`'s argument vocabulary (the plan is exactly what a
/// decompose run with these arguments would execute) plus --plan-waves=N
/// to bound the per-wave listing. Certification always runs here so the
/// summary carries predicted swaps even when reordering is off.
int Plan(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  // Peel the plan-only flags off before the shared parser (which rejects
  // unknown flags).
  const auto peel_int = [&args](const char* flag, int64_t fallback,
                                int64_t min) -> int64_t {
    auto it = args.flags.find(flag);
    if (it == args.flags.end()) return fallback;
    auto parsed = ParseInt64(it->second);
    if (!parsed.ok() || *parsed < min) return -1;
    args.flags.erase(it);
    return *parsed;
  };
  const int64_t plan_waves = peel_int("plan-waves", 8, 0);
  if (plan_waves < 0) {
    std::fprintf(stderr, "--plan-waves expects a non-negative integer\n");
    return 2;
  }
  // --workers=auto searches fleet sizes with the overlap-aware simulator
  // instead of pricing one explicit N.
  bool workers_auto = false;
  if (auto it = args.flags.find("workers");
      it != args.flags.end() && it->second == "auto") {
    workers_auto = true;
    args.flags.erase(it);
  }
  const int64_t workers = peel_int("workers", 0, 0);
  if (workers < 0 || workers > 64) {
    std::fprintf(stderr, "--workers expects an integer in [0, 64] or "
                 "'auto'\n");
    return 2;
  }
  bool plan_overlap = false;
  if (auto it = args.flags.find("overlap"); it != args.flags.end()) {
    if (it->second == "on") {
      plan_overlap = true;
    } else if (it->second != "off") {
      std::fprintf(stderr, "--overlap expects on or off\n");
      return 2;
    }
    args.flags.erase(it);
  }
  const int64_t link_latency_us = peel_int("link-latency-us", 100, 0);
  const int64_t link_bandwidth_mbps = peel_int("link-bandwidth-mbps", 1250, 1);
  if (link_latency_us < 0 || link_bandwidth_mbps < 1) {
    std::fprintf(stderr, "bad --link-latency-us / --link-bandwidth-mbps\n");
    return 2;
  }
  DecomposeConfig config;
  if (!ParseDecomposeConfig(args, &config)) return 2;
  const TwoPhaseCpOptions& options = config.options;

  auto session = Session::Open({config.uri});
  if (!session.ok()) return ReportBad("open storage", session.status()), 1;
  auto store = (*session)->OpenTensorStore();
  if (!store.ok()) {
    ReportBad("open tensor store", store.status());
    std::fprintf(stderr, "(run `generate` first?)\n");
    return 1;
  }
  const GridPartition& grid = (*store)->grid();

  const UpdateSchedule schedule =
      UpdateSchedule::Create(options.schedule, grid);
  // The exact planner inputs a decompose run with these arguments would
  // use — with certification forced on so the summary always carries
  // predicted swaps, reordering requested or not.
  PlannerOptions planner_options = Phase2PlannerOptions(options, grid);
  planner_options.certify = true;
  const ExecutionPlan plan = Planner::Build(schedule, planner_options);
  std::printf("plan: tensor=%s buffer=%s (of %s total)\n",
              grid.tensor_shape().ToString().c_str(),
              HumanBytes(planner_options.buffer_bytes).c_str(),
              HumanBytes(UnitCatalog(grid, options.rank).TotalBytes())
                  .c_str());
  std::fputs(plan.Summary(plan_waves).c_str(), stdout);
  ClusterSimConfig csim;
  csim.policy = options.policy;
  csim.buffer_bytes = planner_options.buffer_bytes;
  csim.victim_hints = options.policy_victim_hints;
  csim.link.latency_seconds = static_cast<double>(link_latency_us) * 1e-6;
  csim.link.bandwidth_bytes_per_second =
      static_cast<double>(link_bandwidth_mbps) * 1e6;
  csim.overlap = plan_overlap;
  if (workers > 0) {
    // Cluster view: ownership split plus the simulator's predicted
    // per-worker swaps, exchange bytes and link-priced transfer time.
    const DistributedPlan dplan(&plan, options.rank,
                                static_cast<int>(workers));
    std::fputs(dplan.Summary().c_str(), stdout);
    csim.num_workers = static_cast<int>(workers);
    for (const ClusterWorkerCost& cost :
         SimulateCluster(dplan, options.rank, csim)) {
      std::printf("%s\n", cost.ToString().c_str());
    }
    std::printf("%s\n",
                SimulateClusterOverlap(dplan, options.rank, csim)
                    .ToString()
                    .c_str());
  } else if (workers_auto) {
    // Fleet-size search: price every N, pick the cheapest per-vi
    // wall-clock (pipelined when --overlap=on, barrier otherwise).
    // N=1 is the degenerate single-worker fleet — the comparison floor.
    int best = 0;
    double best_seconds = 0.0;
    for (int n = 1; n <= 8; ++n) {
      const DistributedPlan dplan(&plan, options.rank, n);
      csim.num_workers = n;
      const ClusterOverlapCost cost =
          SimulateClusterOverlap(dplan, options.rank, csim);
      const double seconds = plan_overlap ? cost.pipelined_seconds_per_vi
                                          : cost.barrier_seconds_per_vi;
      std::printf("cluster-auto: workers=%d barrier_s/vi=%.6f "
                  "pipelined_s/vi=%.6f hidden_s/vi=%.6f\n",
                  n, cost.barrier_seconds_per_vi,
                  cost.pipelined_seconds_per_vi,
                  cost.hidden_seconds_per_vi);
      if (best == 0 || seconds < best_seconds) {
        best = n;
        best_seconds = seconds;
      }
    }
    std::printf("cluster-auto: chosen workers=%d predicted_s/vi=%.6f "
                "(%s)\n",
                best, best_seconds,
                plan_overlap ? "pipelined" : "barrier");
  }
  return 0;
}

int Simulate(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  if (args.positional.size() < 2) return Usage(argv[0]);
  OptionReader opts(args, 0);
  const int64_t parts = opts.Int("parts", 0, true, 2, 64);
  const double fraction =
      opts.Double("buffer-fraction", 0.0, true, 1e-6, 1.0);
  if (!opts.NoUnknownFlags()) return 2;
  if (parts < 2 || fraction <= 0.0 || fraction > 1.0) return Usage(argv[0]);

  std::printf("swaps per virtual iteration, %lld^3 partitions, buffer %.3f "
              "of total requirement\n",
              static_cast<long long>(parts), fraction);
  std::printf("%-6s %10s %10s %10s\n", "sched", "LRU", "MRU", "FOR");
  for (ScheduleType schedule :
       {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
        ScheduleType::kZOrder, ScheduleType::kHilbertOrder,
        ScheduleType::kSnakeOrder, ScheduleType::kRandomOrder}) {
    std::printf("%-6s", ScheduleTypeName(schedule));
    for (PolicyType policy :
         {PolicyType::kLru, PolicyType::kMru, PolicyType::kForward}) {
      SwapSimConfig config;
      config.grid = GridPartition::Uniform(Shape({64, 64, 64}), parts);
      config.rank = 8;
      config.schedule = schedule;
      config.policy = policy;
      config.buffer_fraction = fraction;
      std::printf(" %10.2f",
                  SimulateSwaps(config).swaps_per_virtual_iteration);
    }
    std::printf("\n");
  }
  return 0;
}

/// Cancels its job once the refinement reaches a target virtual
/// iteration — deterministic cancellation for tests and demos, driven by
/// the engine's own progress events (JobService forwards them without
/// holding its lock, so calling Cancel from here is safe).
class CancelAtVi : public ProgressObserver {
 public:
  CancelAtVi(JobService* service, JobId id, int vi)
      : service_(service), id_(id), vi_(vi) {}

  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override {
    (void)surrogate_fit;
    (void)swap_ins;
    if (iteration >= vi_ && !fired_.exchange(true)) {
      const Status s = service_->Cancel(id_);
      if (!s.ok()) ReportBad("cancel-at-vi", s);
    }
  }

 private:
  JobService* service_;
  JobId id_;
  int vi_;
  std::atomic<bool> fired_{false};
};

/// "IDX:VI[,IDX:VI...]" — 1-based job line index to cancel at iteration VI.
bool ParseCancelList(const std::string& value,
                     std::map<int64_t, int>* cancel_at) {
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    const size_t colon = item.find(':');
    auto idx = ParseInt64(item.substr(0, colon));
    auto vi = colon == std::string::npos
                  ? Result<int64_t>(Status::InvalidArgument("missing ':'"))
                  : ParseInt64(item.substr(colon + 1));
    if (!idx.ok() || !vi.ok() || *idx < 1 || *vi < 1) {
      std::fprintf(stderr,
                   "--cancel-at-vi expects IDX:VI pairs (1-based), got "
                   "'%s'\n",
                   item.c_str());
      return false;
    }
    (*cancel_at)[*idx] = static_cast<int>(*vi);
  }
  return true;
}

int Jobs(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  if (args.positional.empty()) return Usage(argv[0]);
  OptionReader opts(args, 1);
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  JobServiceOptions service_options;
  service_options.num_workers =
      static_cast<int>(opts.Int("workers", 2, false, 1, 64));
  service_options.total_threads =
      static_cast<int>(opts.Int("total-threads", 0, false, 0, kIntMax));
  const bool quiet = opts.Present("quiet");
  std::map<int64_t, int> cancel_at;
  if (opts.Present("cancel-at-vi") &&
      !ParseCancelList(args.flags.at("cancel-at-vi"), &cancel_at)) {
    return 2;
  }
  if (!opts.ok() || !opts.NoUnknownFlags()) return 2;

  // One job per non-comment line, in `decompose` argument syntax.
  const std::string& spec_path = args.positional[0];
  std::ifstream file(spec_path);
  if (!file) {
    std::fprintf(stderr, "cannot read spec file '%s'\n", spec_path.c_str());
    return 1;
  }
  std::vector<DecomposeConfig> configs;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    std::string token;
    while (fields >> token) tokens.push_back(token);
    if (tokens.empty() || tokens.front()[0] == '#') continue;
    Args job_args;
    DecomposeConfig config;
    if (!SplitTokens(tokens, &job_args) ||
        !ParseDecomposeConfig(job_args, &config)) {
      std::fprintf(stderr, "%s:%lld: bad job line\n", spec_path.c_str(),
                   static_cast<long long>(line_number));
      return 2;
    }
    configs.push_back(std::move(config));
  }
  if (configs.empty()) {
    std::fprintf(stderr, "spec file '%s' has no jobs\n", spec_path.c_str());
    return 1;
  }
  for (const auto& [idx, vi] : cancel_at) {
    if (idx > static_cast<int64_t>(configs.size())) {
      std::fprintf(stderr, "--cancel-at-vi=%lld:... but only %zu jobs\n",
                   static_cast<long long>(idx), configs.size());
      return 2;
    }
  }

  // Declared before the service: workers may still invoke these observers
  // while the service shuts down on an early-error return below.
  std::vector<std::unique_ptr<CancelAtVi>> cancellers;
  JobService service(service_options);
  std::vector<JobId> ids;
  for (size_t i = 0; i < configs.size(); ++i) {
    DecomposeConfig& config = configs[i];
    if (config.progress) {
      std::fprintf(stderr,
                   "note: --progress is ignored in jobs mode (per-job "
                   "progress is rendered below)\n");
    }
    JobSpec spec;
    spec.session.env_uri = config.uri;
    spec.solver = config.solver;
    spec.options = config.options;
    spec.params = config.params;
    // JobIds are dense from 1 in submission order (api/job.h), so the
    // canceller can be armed with its id before Submit races it.
    const JobId expected_id = static_cast<JobId>(i) + 1;
    if (const auto it = cancel_at.find(expected_id); it != cancel_at.end()) {
      cancellers.push_back(
          std::make_unique<CancelAtVi>(&service, expected_id, it->second));
      spec.options.observer = cancellers.back().get();
    }
    auto id = service.Submit(std::move(spec));
    if (!id.ok()) return ReportBad("submit", id.status()), 1;
    if (*id != expected_id) {
      std::fprintf(stderr, "internal: unexpected job id\n");
      return 1;
    }
    ids.push_back(*id);
    if (!quiet) {
      std::fprintf(stderr, "job %lld: submitted %s via %s (rank %lld)\n",
                   static_cast<long long>(*id), config.uri.c_str(),
                   config.solver.c_str(),
                   static_cast<long long>(config.options.rank));
    }
  }

  // Render loop: one stderr line per observable change, until every job
  // is terminal.
  std::map<JobId, std::string> last_rendered;
  for (;;) {
    bool all_terminal = true;
    for (const JobInfo& info : service.List()) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "job %lld [%-9s] phase1 %lld/%lld%s | vi %d fit %.4f "
                    "(%llu swap-ins)",
                    static_cast<long long>(info.id),
                    JobStateName(info.state),
                    static_cast<long long>(info.progress.phase1_blocks_done),
                    static_cast<long long>(info.progress.phase1_blocks_total),
                    info.progress.phase1_done ? " done" : "",
                    info.progress.virtual_iteration, info.progress.fit,
                    static_cast<unsigned long long>(info.progress.swap_ins));
      std::string& last = last_rendered[info.id];
      if (!quiet && last != buffer) {
        last = buffer;
        std::fprintf(stderr, "%s\n", buffer);
      }
      if (!IsTerminal(info.state)) all_terminal = false;
    }
    if (all_terminal) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Grep-able summary, one line per job, in submission order.
  bool any_failed = false;
  for (JobId id : ids) {
    const JobInfo info = service.Poll(id).value();
    switch (info.state) {
      case JobState::kSucceeded: {
        const SolveResult& r = info.result;
        std::printf("job %lld: succeeded fit %.4f after %d vi%s "
                    "(wait %.2fs run %.2fs)\n",
                    static_cast<long long>(id), r.surrogate_fit,
                    r.virtual_iterations,
                    r.phase2_start_iteration > 0
                        ? (" resumed at vi " +
                           std::to_string(r.phase2_start_iteration))
                              .c_str()
                        : "",
                    info.wait_seconds, info.run_seconds);
        break;
      }
      case JobState::kCancelled:
        // A Phase-2 checkpoint only exists once the refinement started;
        // queued or mid-Phase-1 cancellations restart from scratch.
        std::printf("job %lld: cancelled at vi %d%s\n",
                    static_cast<long long>(id),
                    info.progress.virtual_iteration,
                    info.progress.phase1_done
                        ? " (checkpointed, resubmit to resume)"
                        : " (before refinement; resubmit restarts)");
        break;
      case JobState::kFailed:
        any_failed = true;
        std::printf("job %lld: failed: %s\n", static_cast<long long>(id),
                    info.status.ToString().c_str());
        break;
      default:
        any_failed = true;
        std::printf("job %lld: internal: non-terminal after drain\n",
                    static_cast<long long>(id));
        break;
    }
  }
  return any_failed ? 1 : 0;
}

// Thin tpcpd client: one verb, one frame round-trip, raw JSON response on
// stdout. Exit 0 when the server answered {"ok":true}.
int Client(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(
        stderr,
        "usage: %s client <verb> [--host=127.0.0.1] [--port=7214]\n"
        "                 [--compress=deflate] [--token=SECRET] ...\n"
        "(--token authenticates the connection as --tenant; required for\n"
        " tenants registered with token=)\n"
        "verbs:\n"
        "  submit --tenant=NAME [--name=LABEL] [--priority=N]\n"
        "         [--solver=2pcp] [--opt=key=value ...] [--param=k=v ...]\n"
        "         [--generate=IxJxK] [--parts=N] [--gen-rank=N]\n"
        "         [--noise=F] [--gen-seed=N]\n"
        "  poll --job=N | await --job=N [--timeout=S] | cancel --job=N\n"
        "  list [--tenant=NAME] [--state=queued|running|preempted|...]\n"
        "  tenant-stats\n",
        argv[0]);
    return 2;
  }
  const std::string verb = argv[2];
  std::string host = "127.0.0.1";
  int64_t port = 7214;
  bool want_compress = false;
  std::string token;
  JsonValue request = JsonValue::Object();
  request.Set("cmd", verb);
  JsonValue options = JsonValue::Object();
  JsonValue params = JsonValue::Object();
  JsonValue generate = JsonValue::Object();
  bool has_options = false, has_params = false, has_generate = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "client flags are --key=value, got '%s'\n",
                   arg.c_str());
      return 2;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    const auto kv = [&]() -> Result<std::pair<std::string, std::string>> {
      const size_t peq = value.find('=');
      if (peq == std::string::npos || peq == 0) {
        return Status::InvalidArgument("--" + key +
                                       " expects key=value, got '" + value +
                                       "'");
      }
      return std::make_pair(value.substr(0, peq), value.substr(peq + 1));
    };
    if (key == "host") {
      host = value;
    } else if (key == "token") {
      token = value;
    } else if (key == "compress") {
      if (value != "deflate" && value != "none") {
        std::fprintf(stderr, "bad --compress '%s' (deflate|none)\n",
                     value.c_str());
        return 2;
      }
      want_compress = value == "deflate";
    } else if (key == "port") {
      const auto parsed = ParseInt64(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --port '%s'\n", value.c_str());
        return 2;
      }
      port = *parsed;
    } else if (key == "tenant" || key == "name" || key == "solver" ||
               key == "state") {
      request.Set(key, value);
    } else if (key == "priority" || key == "job" || key == "parts" ||
               key == "gen-rank" || key == "gen-seed") {
      const auto parsed = ParseInt64(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --%s '%s'\n", key.c_str(), value.c_str());
        return 2;
      }
      if (key == "parts") {
        generate.Set("parts", *parsed);
        has_generate = true;
      } else if (key == "gen-rank") {
        generate.Set("rank", *parsed);
        has_generate = true;
      } else if (key == "gen-seed") {
        generate.Set("seed", *parsed);
        has_generate = true;
      } else {
        request.Set(key, *parsed);
      }
    } else if (key == "timeout") {
      const auto parsed = ParseDouble(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --timeout '%s'\n", value.c_str());
        return 2;
      }
      request.Set("timeout_seconds", *parsed);
    } else if (key == "noise") {
      const auto parsed = ParseDouble(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --noise '%s'\n", value.c_str());
        return 2;
      }
      generate.Set("noise", *parsed);
      has_generate = true;
    } else if (key == "opt") {
      const auto pair = kv();
      if (!pair.ok()) {
        std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
        return 2;
      }
      options.Set(pair->first, pair->second);
      has_options = true;
    } else if (key == "param") {
      const auto pair = kv();
      if (!pair.ok()) {
        std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
        return 2;
      }
      params.Set(pair->first, pair->second);
      has_params = true;
    } else if (key == "generate") {
      // IxJxK dims list.
      JsonValue dims = JsonValue::Array();
      size_t start = 0;
      while (start <= value.size()) {
        const size_t x = value.find('x', start);
        const std::string piece = value.substr(
            start, x == std::string::npos ? std::string::npos : x - start);
        const auto parsed = ParseInt64(piece);
        if (!parsed.ok()) {
          std::fprintf(stderr, "bad --generate dims '%s'\n", value.c_str());
          return 2;
        }
        dims.Append(*parsed);
        if (x == std::string::npos) break;
        start = x + 1;
      }
      generate.Set("dims", std::move(dims));
      has_generate = true;
    } else {
      std::fprintf(stderr, "unknown client flag --%s\n", key.c_str());
      return 2;
    }
  }
  if (has_options) request.Set("options", std::move(options));
  if (has_params) request.Set("params", std::move(params));
  if (has_generate) request.Set("generate", std::move(generate));

  auto client = TpcpdClient::Connect(host, static_cast<int>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (want_compress) {
    // Best effort: an older daemon declines and we keep speaking plain.
    const auto granted = (*client)->NegotiateCompression();
    if (!granted.ok()) {
      std::fprintf(stderr, "%s\n", granted.status().ToString().c_str());
      return 1;
    }
  }
  if (!token.empty()) {
    const JsonValue* tenant = request.Find("tenant");
    if (tenant == nullptr) {
      std::fprintf(stderr, "--token requires --tenant=NAME\n");
      return 2;
    }
    const Status authed =
        (*client)->Authenticate(tenant->string_value(), token);
    if (!authed.ok()) {
      std::fprintf(stderr, "%s\n", authed.ToString().c_str());
      return 1;
    }
  }
  const auto response = (*client)->Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->Serialize().c_str());
  const JsonValue* ok = response->Find("ok");
  return (ok != nullptr && ok->is_bool() && ok->bool_value()) ? 0 : 1;
}

/// `dist-worker` — internal entry point for the worker processes `dist`
/// spawns. Not part of the public surface; argv carries only the store
/// location and the rendezvous port (grid and options travel in the init
/// message).
int DistWorker(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return 2;
  OptionReader opts(args, 0);
  const std::string uri = opts.Text("uri", "");
  const std::string prefix = opts.Text("prefix", "factors");
  const int64_t port = opts.Int("port", 0, false, 1, 65535);
  const int64_t worker = opts.Int("worker", -1, false, 0, 63);
  if (!opts.ok() || !opts.NoUnknownFlags() || uri.empty() || port == 0 ||
      worker < 0) {
    std::fprintf(stderr,
                 "dist-worker needs --uri=... --port=N --worker=N\n");
    return 2;
  }
  auto opened = OpenEnv(uri);
  if (!opened.ok()) return ReportBad("dist-worker", opened.status()), 1;
  const Status s = ServeDistWorker(opened->get(), prefix,
                                   static_cast<int>(port),
                                   static_cast<int>(worker));
  if (!s.ok()) return ReportBad("dist-worker", s), 1;
  return 0;
}

/// `dist` — Phase 1 in-process, Phase 2 across N spawned worker
/// processes. Mirrors Session::RunSolver's factor-store lifecycle exactly
/// so the resulting store is byte-identical to `decompose` with the same
/// arguments.
int Dist(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  int64_t workers = 2;
  if (auto it = args.flags.find("workers"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.ok() || *parsed < 1 || *parsed > 64) {
      std::fprintf(stderr, "--workers expects an integer in [1, 64]\n");
      return 2;
    }
    workers = *parsed;
    args.flags.erase(it);
  }
  int64_t heartbeat_ms = 1000;
  if (auto it = args.flags.find("heartbeat-ms"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.ok() || *parsed < 0) {
      std::fprintf(stderr, "--heartbeat-ms expects an integer >= 0\n");
      return 2;
    }
    heartbeat_ms = *parsed;
    args.flags.erase(it);
  }
  int64_t max_respawns = 2;
  if (auto it = args.flags.find("max-respawns"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.ok() || *parsed < 0) {
      std::fprintf(stderr, "--max-respawns expects an integer >= 0\n");
      return 2;
    }
    max_respawns = *parsed;
    args.flags.erase(it);
  }
  DegradeMode degrade = DegradeMode::kShrink;
  if (auto it = args.flags.find("degrade"); it != args.flags.end()) {
    auto parsed = DegradeModeFromName(it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    degrade = *parsed;
    args.flags.erase(it);
  }
  bool overlap = false;
  if (auto it = args.flags.find("overlap"); it != args.flags.end()) {
    if (it->second == "on") {
      overlap = true;
    } else if (it->second != "off") {
      std::fprintf(stderr, "--overlap expects on or off\n");
      return 2;
    }
    args.flags.erase(it);
  }
  DecomposeConfig config;
  if (!ParseDecomposeConfig(args, &config)) return 2;
  TwoPhaseCpOptions& options = config.options;
  if (config.solver != "2pcp") {
    std::fprintf(stderr, "dist supports only the 2pcp solver\n");
    return 2;
  }
  if (config.uri.rfind("mem://", 0) == 0) {
    std::fprintf(stderr,
                 "dist workers are separate processes; the store must be "
                 "openable by all of them (posix://, not mem://)\n");
    return 2;
  }
  StderrProgress progress;
  if (config.progress) options.observer = &progress;

  auto session = Session::Open({config.uri});
  if (!session.ok()) return ReportBad("open storage", session.status()), 1;
  auto store = (*session)->OpenTensorStore();
  if (!store.ok()) {
    ReportBad("open tensor store", store.status());
    std::fprintf(stderr, "(run `generate` first?)\n");
    return 1;
  }
  const GridPartition& grid = (*store)->grid();
  Env* env = (*session)->env();

  // Factor-store lifecycle as Session::RunSolver: a fresh run must not
  // inherit a stale manifest; a resume must keep its checkpoint.
  const std::string factor_prefix = "factors";
  if (!options.resume_phase2) {
    const Status stale = env->DeleteFile(ManifestFileName(factor_prefix));
    if (!stale.ok() && !stale.IsNotFound()) {
      return ReportBad("dist", stale), 1;
    }
  }
  BlockFactorStore factors(env, factor_prefix, grid, options.rank);

  TwoPhaseCp cp(*store, &factors, options);
  if (!options.resume_phase2) {
    std::unique_ptr<ThreadPool> pool;
    if (options.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(options.num_threads);
    }
    if (const Status s = cp.RunPhase1(pool.get()); !s.ok()) {
      return ReportBad("phase 1", s), 1;
    }
  }

  std::vector<pid_t> children;
  DistributedRunOptions dopts;
  dopts.num_workers = static_cast<int>(workers);
  dopts.heartbeat_ms = static_cast<int>(heartbeat_ms);
  dopts.max_respawns = static_cast<int>(max_respawns);
  dopts.degrade = degrade;
  dopts.overlap = overlap;
  // Recovery lines go to stdout so harnesses (the CI chaos-smoke job) can
  // grep for "respawning" / "degrading".
  dopts.log = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  dopts.spawn_worker = [&children, &config](int port, int worker) -> Status {
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IOError("fork failed");
    if (pid == 0) {
      const std::string uri_arg = "--uri=" + config.uri;
      const std::string port_arg = "--port=" + std::to_string(port);
      const std::string worker_arg = "--worker=" + std::to_string(worker);
      ::execl("/proc/self/exe", "tpcp_tool", "dist-worker", uri_arg.c_str(),
              port_arg.c_str(), worker_arg.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    children.push_back(pid);
    return Status::OK();
  };

  DistributedRunResult dist;
  const Status run = RunDistributedPhase2(&factors, options, dopts, &dist);
  // Reap all workers either way; on a coordinator error the closed
  // channels make them exit on their own.
  bool worker_failed = false;
  for (const pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) == pid) {
      if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
        worker_failed = true;
      }
    }
  }
  if (!run.ok()) return ReportBad("dist", run), 1;
  // After an in-run recovery, crashed/abandoned worker processes exiting
  // non-zero is the expected debris of a successful run.
  if (worker_failed && dist.respawns == 0 && dist.degrades == 0) {
    std::fprintf(stderr, "dist: a worker process exited with an error\n");
    return 1;
  }

  // Final manifest, as Session::RunSolver writes after a successful run.
  if (const Status s =
          WriteManifest(env, factor_prefix,
                        StoreManifest::Factors(grid, options.rank));
      !s.ok()) {
    return ReportBad("dist", s), 1;
  }

  const Phase2Result& p2 = dist.phase2;
  std::printf("dist: decomposed %s (grid %s) at rank %lld across %lld "
              "workers [%s + %s]\n",
              grid.tensor_shape().ToString().c_str(), grid.ToString().c_str(),
              static_cast<long long>(options.rank),
              static_cast<long long>(workers),
              ScheduleTypeName(options.schedule),
              PolicyTypeName(options.policy));
  if (p2.start_iteration > 0) {
    std::printf("  resumed at vi %d (phase 1 skipped)\n",
                p2.start_iteration);
  }
  std::printf("  phase 2: %.2fs, %d virtual iterations (%s), surrogate "
              "fit %.4f\n",
              p2.seconds, p2.virtual_iterations,
              p2.converged ? "converged" : "cap", p2.surrogate_fit);
  if (dist.respawns > 0 || dist.degrades > 0) {
    const std::string finish =
        dist.finished_single_process
            ? std::string("single-process")
            : std::to_string(dist.final_workers) + " worker(s)";
    std::printf("  recovery: %d respawn(s), %d degrade(s), finished %s, "
                "%s wasted\n",
                dist.respawns, dist.degrades, finish.c_str(),
                HumanBytes(dist.wasted_bytes).c_str());
  }
  if (overlap) {
    std::printf("  overlap: relayed %s inside compute windows (hid "
                "%.3fs)\n",
                HumanBytes(dist.overlapped_bytes).c_str(),
                dist.hidden_seconds);
  }
  for (int w = 0; w < dopts.num_workers; ++w) {
    const WorkerTraffic& t = dist.measured[static_cast<size_t>(w)];
    std::printf("  worker %d: xchg up %s / down %s (%lld msgs), "
                "persisted %s\n",
                w, HumanBytes(t.up_bytes).c_str(),
                HumanBytes(t.down_bytes).c_str(),
                static_cast<long long>(t.up_messages + t.down_messages),
                HumanBytes(
                    dist.measured_persist_bytes[static_cast<size_t>(w)])
                    .c_str());
  }
  std::printf("factors written under %s\n", args.positional[0].c_str());
  return 0;
}

int Solvers() {
  std::printf("solvers:");
  for (const std::string& name : Session::Solvers()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nstorage schemes:");
  for (const std::string& name : EnvFactoryRegistry::Global().Schemes()) {
    std::printf(" %s://", name.c_str());
  }
  std::printf("\nstorage wrappers:");
  for (const std::string& name : EnvFactoryRegistry::Global().Wrappers()) {
    std::printf(" %s+", name.c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  if (command == "generate") return Generate(argc, argv);
  if (command == "decompose") return Decompose(argc, argv);
  if (command == "jobs") return Jobs(argc, argv);
  if (command == "plan") return Plan(argc, argv);
  if (command == "dist") return Dist(argc, argv);
  if (command == "dist-worker") return DistWorker(argc, argv);
  if (command == "simulate") return Simulate(argc, argv);
  if (command == "solvers") return Solvers();
  if (command == "client") return Client(argc, argv);
  return Usage(argv[0]);
}
