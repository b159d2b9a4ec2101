// tpcp_tool — command-line driver for the 2PCP library, built on the
// Session API (api/session.h).
//
//   tpcp_tool generate  <dir|uri> --dims=IxJxK --parts=N [--rank=10]
//                       [--density=1.0] [--seed=42] [--slab-format=dense]
//       Streams a synthetic low-rank tensor into a manifest-backed block
//       store under <dir>/tensor, partitioned N ways per mode. The slab
//       format (dense|coo|csf) selects the block encoding; every consumer
//       reads every format.
//
//   tpcp_tool decompose <dir|uri> [options] [--solver=2pcp]
//                       [--param=key=value ...] [--progress]
//       Decomposes <dir>/tensor with the named solver, writing factors to
//       <dir>/factors and printing timings, fit and I/O statistics.
//       --progress prints live per-block / per-iteration lines on stderr.
//
//   tpcp_tool jobs      <specfile> [--workers=2] [--total-threads=0]
//                       [--cancel-at-vi=IDX:VI,...] [--quiet]
//       Submits a batch of decompositions to a JobService — one job per
//       non-comment line of <specfile>, each line `decompose`'s arguments
//       (<dir|uri> and flags) — runs them concurrently, renders live
//       per-job progress on stderr and prints one grep-able summary line
//       per job. Cancelled jobs leave a checkpoint; rerunning the same
//       spec file resumes them (shown as "resumed at vi N").
//
//   tpcp_tool plan      <dir|uri> [options] [--plan-waves=8]
//                       [--workers=0|N|auto] [--link-latency-us=100]
//                       [--link-bandwidth-mbps=1250]
//       Prints the Phase-2 execution plan a decompose run with these
//       options would execute — waves, batch widths, shard counts,
//       predicted swaps before/after conflict-aware reordering — without
//       decomposing anything. Every line is prefixed "plan:" so CI can
//       grep it. With --workers=N the cluster simulator adds per-worker
//       ownership ("dist:"), predicted swaps / exchange bytes / transfer
//       seconds per virtual iteration ("cluster:", priced by the link
//       flags) and the fleet's wall-clock per virtual iteration
//       ("cluster-wall:"). --workers=auto searches N=1..8, one
//       "cluster-auto:" row each plus the fleet size with the cheapest
//       wall-clock.
//
//   tpcp_tool dist      <dir|uri> [options] [--workers=2]
//                       [--heartbeat-ms=1000] [--max-respawns=2]
//                       [--degrade=off|shrink|single] [--progress]
//       `decompose` with Phase 2 distributed: the session runs the fleet
//       solver (DistributedSolver, dist/coordinator.h), which runs Phase 1
//       in-process, then spawns N local worker processes (re-exec'ing
//       this binary as `dist-worker`) and drives them through the wave
//       protocol. Factors, fit trace and MANIFEST are bit-identical to
//       `decompose` with the same options. The fleet takes no --solver or
//       --param. A worker that dies or wedges mid-run is detected
//       via heartbeats, respawned from the last checkpoint up to
//       --max-respawns times, then the run degrades per --degrade (shed
//       the worker, or finish in-process); recovery lines print to
//       stdout ("dist: worker N failed ..."). Every wave ends at a
//       barrier that relays its images before the next wave starts.
//       Needs a store worker processes can open — not mem://.
//       `dist-worker` is the internal worker entry point.
//
//   tpcp_tool simulate  --parts=N --buffer-fraction=F
//       Prints the exact per-virtual-iteration swap table for a cubic grid
//       (no data needed — swap counts are configuration-determined).
//
//   tpcp_tool solvers
//       Lists the registered solvers and storage schemes/wrappers.
//
//   tpcp_tool client    <verb> [--host=127.0.0.1] [--port=7214] [...]
//       Thin client for a running tpcpd daemon (tools/tpcpd.cc): submit /
//       poll / await / list / cancel / tenant-stats over the
//       length-prefixed JSON wire protocol; prints the raw response.
//       `tpcp_tool client` alone shows the verb flags.
//
// <dir|uri> is either a plain directory (shorthand for posix://<dir>) or a
// storage URI: mem://, posix:///path, compressed+posix:///path,
// throttled+mem://?mbps=50&latency_ms=1, faulty+..., and any registered
// extension scheme.
//
// [options] are the decomposition options: the keys of core/config.h's
// OptionsToMap spelled with '-' for '_' (--rank=8, --schedule=mc,
// --max-virtual-iterations=40, --plan-reorder=0), documented there.
// core/config parses and range-checks them; the tool's one own default is
// --schedule=ho. A flag given without a value means 1 (--resume-phase2).
//
// Each subcommand takes at most one positional argument and everything
// else as --flags. A surplus positional, an unknown flag or a malformed or
// out-of-range value is exit 2.

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
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "schedule/planner.h"
#include "server/json.h"
#include "server/net.h"
#include "util/format.h"
#include "util/parse.h"

using namespace tpcp;

namespace {

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s generate  <dir|uri> --dims=IxJxK --parts=N [--rank=10] "
      "[--density=1.0] [--seed=42]\n"
      "             [--slab-format=dense|coo|csf]\n"
      "  %s decompose <dir|uri> [options] [--solver=2pcp] "
      "[--param=key=value ...] [--progress]\n"
      "  %s jobs      <specfile> [--workers=2] [--total-threads=0]\n"
      "             [--cancel-at-vi=IDX:VI,...] [--quiet]\n"
      "             (each specfile line: decompose arguments; # comments)\n"
      "  %s plan      <dir|uri> [options] [--plan-waves=8] "
      "[--workers=0|N|auto]\n"
      "             [--link-latency-us=100] [--link-bandwidth-mbps=1250]\n"
      "  %s dist      <dir|uri> [options] [--workers=2] "
      "[--heartbeat-ms=1000] [--max-respawns=2]\n"
      "             [--degrade=off|shrink|single] [--progress]\n"
      "  %s simulate  --parts=N --buffer-fraction=F\n"
      "  %s solvers\n"
      "  %s client    <verb> [...]   (alone: lists the verbs)\n"
      "options: the keys of core/config.h's OptionsToMap with '-' for '_',\n"
      "  e.g. --rank=8 --schedule=mc --buffer-fraction=0.4 "
      "--max-virtual-iterations=40;\n"
      "  default --schedule=ho; a bare --flag means =1\n"
      "schedules: %s   policies: %s\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      ScheduleTypeChoices().c_str(), PolicyTypeChoices().c_str());
  return 2;
}

/// Command line split into positionals and --key[=value] flags. The
/// repeatable key=value flags (--param, and the client's --opt) collect
/// into `pairs`, keyed by flag.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::map<std::string, std::map<std::string, std::string>> pairs;
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
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    if (key.empty()) {
      std::fprintf(stderr, "malformed flag '%s'\n", arg.c_str());
      return false;
    }
    if (key == "param" || key == "opt") {
      const size_t peq = value.find('=');
      if (eq == std::string::npos || peq == std::string::npos || peq == 0) {
        std::fprintf(stderr, "--%s expects key=value, got '%s'\n",
                     key.c_str(), arg.c_str());
        return false;
      }
      out->pairs[key][value.substr(0, peq)] = value.substr(peq + 1);
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

/// A subcommand's one positional argument, `what`.
bool OnePositional(const Args& args, const char* what) {
  if (args.positional.size() == 1) return true;
  std::fprintf(stderr,
               "expected exactly one positional argument, %s, got %zu "
               "(everything else is a --flag)\n",
               what, args.positional.size());
  return false;
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

/// "IxJxK" (any number of modes) as positive extents. Shared by
/// `generate --dims` and `client --generate`.
Result<std::vector<int64_t>> ParseDims(const std::string& text) {
  std::vector<int64_t> dims;
  size_t start = 0;
  for (;;) {
    const size_t x = text.find('x', start);
    const Result<int64_t> dim = ParseInt64(
        text.substr(start, x == std::string::npos ? x : x - start));
    if (!dim.ok() || *dim < 1) {
      return Status::InvalidArgument(
          "dims must be IxJxK with positive extents, got '" + text + "'");
    }
    dims.push_back(*dim);
    if (x == std::string::npos) return dims;
    start = x + 1;
  }
}

/// Checked, range-limited reads of the tool's own flags. Every read
/// consumes its flag; the decomposition options are whatever is left
/// (ReadOptions), and NoUnknownFlags reports the rest as typos.
class FlagReader {
 public:
  explicit FlagReader(const Args& args) : args_(args) {}

  bool ok() const { return ok_; }
  bool Has(const char* flag) const { return args_.flags.count(flag) > 0; }

  std::string Text(const char* flag, const std::string& fallback) {
    const std::string* raw = Raw(flag);
    return raw != nullptr ? *raw : fallback;
  }

  int64_t Int(const char* flag, int64_t fallback,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max()) {
    const std::string* raw = Raw(flag);
    if (raw == nullptr) return fallback;
    const Result<int64_t> value = ParseInt64(*raw);
    if (!value.ok()) return Bad(flag, value.status(), fallback);
    if (*value < min || *value > max) {
      return Bad(flag, OutOfRange(*raw, std::to_string(min),
                                  std::to_string(max)),
                 fallback);
    }
    return *value;
  }

  double Double(const char* flag, double fallback, double min, double max) {
    const std::string* raw = Raw(flag);
    if (raw == nullptr) return fallback;
    const Result<double> value = ParseDouble(*raw);
    if (!value.ok()) return Bad(flag, value.status(), fallback);
    if (*value < min || *value > max) {
      return Bad(flag, OutOfRange(*raw, Fixed(min, 6), Fixed(max, 6)),
                 fallback);
    }
    return *value;
  }

  /// Absent: false; a bare --flag: true.
  bool Bool(const char* flag) {
    const std::string* raw = Raw(flag);
    if (raw == nullptr) return false;
    const Result<bool> value = ParseBool(*raw);
    return value.ok() ? *value : Bad(flag, value.status(), false);
  }

  /// The repeatable --flag=k=v entries.
  std::map<std::string, std::string> Pairs(const char* flag) {
    consumed_.insert(flag);
    const auto it = args_.pairs.find(flag);
    return it != args_.pairs.end() ? it->second
                                   : std::map<std::string, std::string>();
  }

  /// Every flag not read so far, marked read.
  std::map<std::string, std::string> TakeUnread() {
    std::map<std::string, std::string> unread;
    for (const auto& [key, value] : args_.flags) {
      if (consumed_.insert(key).second) unread[key] = value;
    }
    return unread;
  }

  /// Call after reading every known flag: a flag nobody read is a typo,
  /// and silently ignoring it would run a different configuration than
  /// the user asked for.
  bool NoUnknownFlags() {
    for (const auto& [key, value] : TakeUnread()) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      ok_ = false;
    }
    for (const auto& [key, value] : args_.pairs) {
      if (consumed_.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        ok_ = false;
      }
    }
    return ok_;
  }

 private:
  const std::string* Raw(const char* flag) {
    consumed_.insert(flag);
    const auto it = args_.flags.find(flag);
    return it != args_.flags.end() ? &it->second : nullptr;
  }

  static Status OutOfRange(const std::string& raw, const std::string& min,
                           const std::string& max) {
    return Status::InvalidArgument(raw + " is outside [" + min + ", " +
                                   max + "]");
  }

  template <typename T>
  T Bad(const char* flag, const Status& status, T fallback) {
    ok_ = ReportBad((std::string("--") + flag).c_str(), status);
    return fallback;
  }

  const Args& args_;
  bool ok_ = true;
  std::set<std::string> consumed_;
};

/// The decomposition options: the tool's --schedule=ho default, then every
/// flag `flags` has not read, as the OptionsToMap key it spells ('-' for
/// '_'). core/config parses and range-checks the map.
bool ReadOptions(FlagReader* flags, TwoPhaseCpOptions* options) {
  static const std::map<std::string, std::string> kKeys =
      OptionsToMap(TwoPhaseCpOptions());
  std::map<std::string, std::string> map = {{"schedule", "ho"}};
  for (const auto& [flag, value] : flags->TakeUnread()) {
    std::string key = flag;
    std::replace(key.begin(), key.end(), '-', '_');
    if (flag.find('_') != std::string::npos || kKeys.count(key) == 0) {
      std::fprintf(stderr, "unknown flag --%s (options: see core/config.h)\n",
                   flag.c_str());
      return false;
    }
    map[key] = value;
  }
  if (!flags->NoUnknownFlags()) return false;
  Result<TwoPhaseCpOptions> parsed = OptionsFromMap(map);
  if (!parsed.ok()) return ReportBad("options", parsed.status());
  *options = *parsed;
  return true;
}

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
  if (!SplitArgs(argc, argv, 2, &args) ||
      !OnePositional(args, "<dir|uri>")) {
    return 2;
  }
  FlagReader flags(args);
  const std::string dims_text = flags.Text("dims", "");
  const int64_t parts = flags.Int("parts", 0, 1);
  LowRankSpec spec;
  spec.rank = flags.Int("rank", 10, 1);
  spec.density = flags.Double("density", 1.0, 0.0, 1.0);
  spec.seed = static_cast<uint64_t>(flags.Int("seed", 42, 0));
  spec.noise_level = 0.05;
  const std::string format_name = flags.Text("slab-format", "dense");
  if (!flags.NoUnknownFlags()) return 2;
  if (dims_text.empty() || parts == 0) {
    std::fprintf(stderr, "generate needs --dims=IxJxK and --parts=N\n");
    return 2;
  }
  const Result<std::vector<int64_t>> dims = ParseDims(dims_text);
  if (!dims.ok()) return ReportBad("--dims", dims.status()), 2;
  SlabFormat format = SlabFormat::kDense;
  if (!SlabFormatFromName(format_name.c_str(), &format)) {
    std::fprintf(stderr,
                 "--slab-format expects dense, coo or csf, got '%s'\n",
                 format_name.c_str());
    return 2;
  }
  spec.shape = Shape(*dims);

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

/// Opens the session at `uri` and its tensor store, reporting a failure
/// on stderr (nullptr then). The open path of `decompose`, `plan` and
/// `dist`.
std::unique_ptr<Session> OpenStore(const std::string& uri) {
  auto session = Session::Open({uri});
  if (!session.ok()) {
    ReportBad("open storage", session.status());
    return nullptr;
  }
  auto store = (*session)->OpenTensorStore();
  if (!store.ok()) {
    ReportBad("open tensor store", store.status());
    std::fprintf(stderr, "(run `generate` first?)\n");
    return nullptr;
  }
  return std::move(*session);
}

/// One decomposition request: the shared vocabulary of `decompose` and
/// every line of a `jobs` spec file.
struct DecomposeConfig {
  std::string uri;
  std::string solver = "2pcp";
  TwoPhaseCpOptions options;
  std::map<std::string, std::string> params;
  bool progress = false;
};

/// "<dir|uri> [options] [--solver] [--param=k=v ...] [--progress]", after
/// the caller read its own flags from `flags`. Returns false (with the
/// problem reported on stderr) on any malformed piece.
bool ReadDecomposeConfig(const Args& args, FlagReader* flags,
                         DecomposeConfig* config) {
  if (!OnePositional(args, "<dir|uri>")) return false;
  config->uri = ToStorageUri(args.positional[0]);
  config->solver = flags->Text("solver", "2pcp");
  config->params = flags->Pairs("param");
  config->progress = flags->Bool("progress");
  return flags->ok() && ReadOptions(flags, &config->options);
}

int Decompose(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return 2;
  FlagReader flags(args);
  DecomposeConfig config;
  if (!ReadDecomposeConfig(args, &flags, &config)) return 2;
  TwoPhaseCpOptions& options = config.options;
  const std::string& solver = config.solver;

  StderrProgress progress;
  if (config.progress) options.observer = &progress;

  const std::unique_ptr<Session> session = OpenStore(config.uri);
  if (session == nullptr) return 1;
  const GridPartition& grid = session->tensor_store()->grid();

  auto result = session->Decompose(solver, options, config.params);
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
  std::printf("  I/O:     %s\n", session->env()->stats().ToString().c_str());
  if (session->factor_store() != nullptr) {
    std::printf("factors written under %s\n", args.positional[0].c_str());
  }
  return 0;
}

/// `plan` — print the Phase-2 execution plan for a stored tensor's grid.
/// Takes `decompose`'s options (the plan is exactly what a decompose run
/// with them would execute) plus --plan-waves=N to bound the per-wave
/// listing and the cluster-simulator flags. Certification always runs
/// here so the summary carries predicted swaps even when reordering is
/// off.
int Plan(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args) ||
      !OnePositional(args, "<dir|uri>")) {
    return 2;
  }
  FlagReader flags(args);
  const int64_t plan_waves = flags.Int("plan-waves", 8, 0);
  // --workers=auto searches fleet sizes with the cluster simulator
  // instead of pricing one explicit N.
  const bool workers_auto = flags.Text("workers", "") == "auto";
  const int64_t workers = workers_auto ? 0 : flags.Int("workers", 0, 0, 64);
  const int64_t link_latency_us = flags.Int("link-latency-us", 100, 0);
  const int64_t link_bandwidth_mbps =
      flags.Int("link-bandwidth-mbps", 1250, 1);
  TwoPhaseCpOptions options;
  if (!flags.ok() || !ReadOptions(&flags, &options)) return 2;

  const std::unique_ptr<Session> session =
      OpenStore(ToStorageUri(args.positional[0]));
  if (session == nullptr) return 1;
  const GridPartition& grid = session->tensor_store()->grid();

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
    // wall-clock. N=1 is the degenerate single-worker fleet — the
    // comparison floor.
    int best = 0;
    double best_seconds = 0.0;
    for (int n = 1; n <= 8; ++n) {
      const DistributedPlan dplan(&plan, options.rank, n);
      csim.num_workers = n;
      const double seconds =
          SimulateClusterOverlap(dplan, options.rank, csim)
              .pipelined_seconds_per_vi;
      std::printf("cluster-auto: workers=%d wall_s/vi=%.6f\n", n, seconds);
      if (best == 0 || seconds < best_seconds) {
        best = n;
        best_seconds = seconds;
      }
    }
    std::printf("cluster-auto: chosen workers=%d predicted_s/vi=%.6f\n",
                best, best_seconds);
  }
  return 0;
}

int Simulate(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args)) return 2;
  FlagReader flags(args);
  const int64_t parts = flags.Int("parts", 0, 2, 64);
  const double fraction = flags.Double("buffer-fraction", 0.0, 1e-6, 1.0);
  if (!flags.NoUnknownFlags()) return 2;
  if (!args.positional.empty()) return Usage(argv[0]);
  if (parts == 0 || fraction == 0.0) {
    std::fprintf(stderr,
                 "simulate needs --parts=N and --buffer-fraction=F\n");
    return 2;
  }

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
    if (!idx.ok() || !vi.ok() || *idx < 1 || *vi < 1 || *vi > kIntMax) {
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
  if (!SplitArgs(argc, argv, 2, &args) ||
      !OnePositional(args, "<specfile>")) {
    return 2;
  }
  FlagReader flags(args);
  JobServiceOptions service_options;
  service_options.num_workers =
      static_cast<int>(flags.Int("workers", 2, 1, 64));
  service_options.total_threads =
      static_cast<int>(flags.Int("total-threads", 0, 0, kIntMax));
  const bool quiet = flags.Bool("quiet");
  std::map<int64_t, int> cancel_at;
  if (!ParseCancelList(flags.Text("cancel-at-vi", ""), &cancel_at) ||
      !flags.NoUnknownFlags()) {
    return 2;
  }

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
    const bool split = SplitTokens(tokens, &job_args);
    FlagReader job_flags(job_args);
    DecomposeConfig config;
    if (!split || !ReadDecomposeConfig(job_args, &job_flags, &config)) {
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
        "                 [--token=SECRET] ...\n"
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
  Args args;
  if (!SplitArgs(argc, argv, 2, &args) || !OnePositional(args, "<verb>")) {
    return 2;
  }
  FlagReader flags(args);
  const std::string host = flags.Text("host", "127.0.0.1");
  const int64_t port = flags.Int("port", 7214, 1, 65535);
  const std::string token = flags.Text("token", "");
  JsonValue request = JsonValue::Object();
  request.Set("cmd", args.positional[0]);
  for (const char* key : {"tenant", "name", "solver", "state"}) {
    if (flags.Has(key)) request.Set(key, flags.Text(key, ""));
  }
  if (flags.Has("priority")) {
    request.Set("priority", flags.Int("priority", 0, -kIntMax, kIntMax));
  }
  if (flags.Has("job")) request.Set("job", flags.Int("job", 0, 1));
  if (flags.Has("timeout")) {
    request.Set("timeout_seconds", flags.Double("timeout", 0.0, 0.0, 1e9));
  }
  // Flag name -> request field name.
  using Rename = std::pair<const char*, const char*>;
  for (const auto& [flag, field] :
       {Rename("opt", "options"), Rename("param", "params")}) {
    JsonValue object = JsonValue::Object();
    for (const auto& [key, value] : flags.Pairs(flag)) object.Set(key, value);
    if (!object.object_items().empty()) request.Set(field, std::move(object));
  }
  JsonValue generate = JsonValue::Object();
  if (flags.Has("generate")) {
    const Result<std::vector<int64_t>> dims =
        ParseDims(flags.Text("generate", ""));
    if (!dims.ok()) return ReportBad("--generate", dims.status()), 2;
    JsonValue array = JsonValue::Array();
    for (const int64_t dim : *dims) array.Append(dim);
    generate.Set("dims", std::move(array));
  }
  for (const auto& [flag, field] :
       {Rename("parts", "parts"), Rename("gen-rank", "rank"),
        Rename("gen-seed", "seed")}) {
    if (flags.Has(flag)) generate.Set(field, flags.Int(flag, 0));
  }
  if (flags.Has("noise")) {
    generate.Set("noise", flags.Double("noise", 0.0, 0.0, 1e9));
  }
  if (!generate.object_items().empty()) {
    request.Set("generate", std::move(generate));
  }
  if (!token.empty() && request.Find("tenant") == nullptr) {
    std::fprintf(stderr, "--token requires --tenant=NAME\n");
    return 2;
  }
  if (!flags.NoUnknownFlags()) return 2;

  auto client = TpcpdClient::Connect(host, static_cast<int>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (!token.empty()) {
    const Status authed = (*client)->Authenticate(
        request.Find("tenant")->string_value(), token);
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
  FlagReader flags(args);
  const std::string uri = flags.Text("uri", "");
  const int64_t port = flags.Int("port", 0, 1, 65535);
  const int64_t worker = flags.Int("worker", -1, 0, 63);
  if (!flags.NoUnknownFlags() || !args.positional.empty() || uri.empty() ||
      port == 0 || worker < 0) {
    std::fprintf(stderr,
                 "dist-worker needs --uri=... --port=N --worker=N\n");
    return 2;
  }
  auto opened = OpenEnv(uri);
  if (!opened.ok()) return ReportBad("dist-worker", opened.status()), 1;
  const Status s = ServeDistWorker(opened->get(),
                                   SessionOptions().factor_prefix,
                                   static_cast<int>(port),
                                   static_cast<int>(worker));
  if (!s.ok()) return ReportBad("dist-worker", s), 1;
  return 0;
}

/// `dist` — `decompose` with Phase 2 across N spawned worker processes
/// (dist/coordinator.h). The Session runs it like any solver, so
/// the store it leaves is byte-identical to `decompose` with the same
/// arguments. What is left here is the fleet: its flags, the fork/exec
/// spawner, reaping the workers and the fleet's report lines.
int Dist(int argc, char** argv) {
  Args args;
  if (!SplitArgs(argc, argv, 2, &args) ||
      !OnePositional(args, "<dir|uri>")) {
    return 2;
  }
  FlagReader flags(args);
  DistributedRunOptions fleet;
  fleet.num_workers = static_cast<int>(flags.Int("workers", 2, 1, 64));
  fleet.heartbeat_ms =
      static_cast<int>(flags.Int("heartbeat-ms", 1000, 0, kIntMax));
  fleet.max_respawns =
      static_cast<int>(flags.Int("max-respawns", 2, 0, kIntMax));
  const Result<DegradeMode> degrade =
      DegradeModeFromName(flags.Text("degrade", "shrink"));
  if (!degrade.ok()) return ReportBad("--degrade", degrade.status()), 2;
  fleet.degrade = *degrade;
  const bool progress = flags.Bool("progress");
  TwoPhaseCpOptions options;
  if (!flags.ok() || !ReadOptions(&flags, &options)) return 2;
  const std::string uri = ToStorageUri(args.positional[0]);
  if (uri.rfind("mem://", 0) == 0) {
    std::fprintf(stderr,
                 "dist workers are separate processes; the store must be "
                 "openable by all of them (posix://, not mem://)\n");
    return 2;
  }
  StderrProgress progress_lines;
  if (progress) options.observer = &progress_lines;

  // Recovery lines go to stdout so harnesses (the CI chaos-smoke job) can
  // grep for "respawning" / "degrading".
  fleet.log = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  std::vector<pid_t> children;
  fleet.spawn_worker = [&children, &uri](int port, int worker) -> Status {
    // The argv is built before fork(): the Session keeps its Phase-1 pool
    // threads alive, and the child of a multi-threaded process may call
    // only async-signal-safe functions — here execv and _exit.
    std::vector<std::string> words = {
        "tpcp_tool", "dist-worker", "--uri=" + uri,
        "--port=" + std::to_string(port),
        "--worker=" + std::to_string(worker)};
    std::vector<char*> child_argv;
    for (std::string& word : words) child_argv.push_back(word.data());
    child_argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IOError("fork failed");
    if (pid == 0) {
      ::execv("/proc/self/exe", child_argv.data());
      ::_exit(127);
    }
    children.push_back(pid);
    return Status::OK();
  };

  const std::unique_ptr<Session> session = OpenStore(uri);
  if (session == nullptr) return 1;
  DistributedSolver solver(fleet);
  const Result<SolveResult> result = session->Decompose(&solver, options);
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
  if (!result.ok()) return ReportBad("dist", result.status()), 1;
  const DistributedRunResult& dist = solver.dist_result();
  // After an in-run recovery, crashed/abandoned worker processes exiting
  // non-zero is the expected debris of a successful run.
  if (worker_failed && dist.respawns == 0 && dist.degrades == 0) {
    std::fprintf(stderr, "dist: a worker process exited with an error\n");
    return 1;
  }

  const SolveResult& r = *result;
  const GridPartition& grid = session->tensor_store()->grid();
  std::printf("dist: decomposed %s (grid %s) at rank %lld across %d "
              "workers [%s + %s]\n",
              grid.tensor_shape().ToString().c_str(), grid.ToString().c_str(),
              static_cast<long long>(options.rank), fleet.num_workers,
              ScheduleTypeName(options.schedule),
              PolicyTypeName(options.policy));
  if (r.phase2_start_iteration > 0) {
    std::printf("  resumed at vi %d (phase 1 skipped)\n",
                r.phase2_start_iteration);
  }
  std::printf("  phase 2: %.2fs, %d virtual iterations (%s), surrogate "
              "fit %.4f\n",
              r.phase2_seconds, r.virtual_iterations,
              r.converged ? "converged" : "cap", r.surrogate_fit);
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
  for (int w = 0; w < fleet.num_workers; ++w) {
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
  if (command == "solvers") return argc == 2 ? Solvers() : Usage(argv[0]);
  if (command == "client") return Client(argc, argv);
  return Usage(argv[0]);
}
