// Distributed Phase 2: a forked fleet against the in-process engine, and
// weighted vs modulo ownership balance on a skewed store.
//
//   bench_dist_overlap [--json=BENCH_dist_overlap.json]
//
// Its stores live in a fresh directory under $TMPDIR (default /tmp),
// removed when the bench exits.
//
// Part 1 — fleet: a 2-worker *forked* run (fork + exec of this binary,
// the same process topology as `tpcp_tool dist`) on a fiber-order plan
// (singleton waves, so every step is a relay barrier), next to an
// in-process TwoPhaseCp run of the same store recipe. The fleet must match
// the engine bit-for-bit on the final factors and keep measured ==
// predicted on the byte ledger — the bench records both checks, the
// Phase-2 wall-clocks and the relayed bytes. The fleet has two
// clocks: fleet_phase2_seconds starts once every worker is ready, so it
// times what the engine's RunPhase2 clock times (the sweep and the final
// commit); wall_seconds_with_spawn also covers forking and exec'ing the
// workers and their handshake.
//
// Part 2 — ownership: on a skewed grid (parts {1, K, K}: one giant
// mode-0 unit next to 2K small ones), per-worker plan-step counts and
// owned bytes under the weighted DistributedPlan map vs the historical
// `part % N` rule, for a 3-worker fleet. The figure of merit is the
// max/mean per-worker step-count ratio (1.0 = perfectly balanced);
// weighted must come out strictly lower.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "buffer/data_unit.h"
#include "core/phase2_engine.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "grid/manifest.h"
#include "schedule/planner.h"
#include "storage/env_uri.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

constexpr int64_t kDim = 24;
constexpr int64_t kParts = 4;
constexpr int kWorkers = 2;
constexpr uint64_t kSeed = 31;

TwoPhaseCpOptions BenchOptions() {
  TwoPhaseCpOptions options;
  options.rank = 8;
  options.phase1_max_iterations = 6;
  options.seed = kSeed;
  // Fiber order: singleton waves, one relay barrier per step, and images
  // the liveness analysis prunes for the peer.
  options.schedule = ScheduleType::kFiberOrder;
  options.buffer_fraction = 0.5;
  options.max_virtual_iterations = 3;
  options.fit_tolerance = -1.0;  // fixed work in both runs
  return options;
}

GridPartition BenchGrid() {
  return bench::CheckOk(
      GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts),
      "grid");
}

/// Deterministic store prep (same recipe for every run root): synthetic
/// tensor + Phase 1, leaving block factors at "f". Returns the engine so
/// the in-process run can continue into Phase 2.
std::unique_ptr<TwoPhaseCp> PrepareStore(BlockTensorStore* input,
                                         BlockFactorStore* factors,
                                         const TwoPhaseCpOptions& options) {
  LowRankSpec spec;
  spec.shape = input->grid().tensor_shape();
  spec.rank = options.rank;
  spec.noise_level = 0.05;
  spec.seed = kSeed;
  bench::CheckOk(GenerateLowRankIntoStore(spec, input), "generate");
  auto cp = std::make_unique<TwoPhaseCp>(input, factors, options);
  bench::CheckOk(cp->RunPhase1(), "phase 1");
  return cp;
}

struct FleetRun {
  /// RunDistributedPhase2 end to end, worker spawn and handshake included.
  double wall_seconds = 0.0;
  /// DistributedRunResult::fleet_phase2_seconds: from the ready fleet on.
  double fleet_phase2_seconds = 0.0;
  uint64_t down_bytes = 0;
  uint64_t up_bytes = 0;
  uint64_t persist_bytes = 0;
  bool ledger_exact = false;
  std::string root;
};

/// The in-process reference: Phase 1 and Phase 2 of TwoPhaseCp against a
/// fresh store under `root`. Returns the Phase-2 wall-clock.
double RunEngine(const std::string& root) {
  const TwoPhaseCpOptions options = BenchOptions();
  const GridPartition grid = BenchGrid();
  OpenedEnv env = bench::CheckOk(OpenEnv("posix://" + root), "open env");
  BlockTensorStore input(env.get(), "t", grid);
  BlockFactorStore factors(env.get(), "f", grid, options.rank);
  const std::unique_ptr<TwoPhaseCp> cp =
      PrepareStore(&input, &factors, options);
  Stopwatch watch;
  bench::CheckOk(cp->RunPhase2(), "phase 2");
  return watch.ElapsedSeconds();
}

/// One forked 2-worker distributed run against a fresh store under
/// `root`. Workers are real child processes: fork + exec of this binary
/// in its hidden `--dist-worker` mode.
FleetRun RunDistributed(const std::string& self_exe,
                        const std::string& root) {
  FleetRun run;
  run.root = root;
  const TwoPhaseCpOptions options = BenchOptions();
  const GridPartition grid = BenchGrid();
  OpenedEnv env = bench::CheckOk(OpenEnv("posix://" + root), "open env");
  BlockTensorStore input(env.get(), "t", grid);
  BlockFactorStore factors(env.get(), "f", grid, options.rank);
  PrepareStore(&input, &factors, options);

  std::vector<pid_t> children;
  DistributedRunOptions dopts;
  dopts.num_workers = kWorkers;
  dopts.spawn_worker = [&children, &self_exe, &root](int port,
                                                     int worker) -> Status {
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IOError("fork failed");
    if (pid == 0) {
      const std::string root_arg = "--dist-worker-root=" + root;
      const std::string port_arg = "--dist-worker-port=" + std::to_string(port);
      const std::string id_arg = "--dist-worker-id=" + std::to_string(worker);
      ::execl(self_exe.c_str(), "bench_dist_overlap", root_arg.c_str(),
              port_arg.c_str(), id_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    children.push_back(pid);
    return Status::OK();
  };

  DistributedRunResult result;
  Stopwatch watch;
  bench::CheckOk(RunDistributedPhase2(&factors, options, dopts, &result),
                 "dist run");
  run.wall_seconds = watch.ElapsedSeconds();
  for (const pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) == pid &&
        (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
      std::fprintf(stderr, "bench: a worker process exited with an error\n");
      std::abort();
    }
  }

  run.fleet_phase2_seconds = result.fleet_phase2_seconds;
  run.ledger_exact = result.measured.size() == result.predicted.size();
  for (size_t w = 0; w < result.measured.size(); ++w) {
    run.up_bytes += result.measured[w].up_bytes;
    run.down_bytes += result.measured[w].down_bytes;
    run.persist_bytes += result.measured_persist_bytes[w];
    run.ledger_exact =
        run.ledger_exact &&
        result.measured[w].up_bytes == result.predicted[w].up_bytes &&
        result.measured[w].down_bytes == result.predicted[w].down_bytes &&
        result.measured_persist_bytes[w] == result.predicted_persist_bytes[w];
  }
  return run;
}

/// Byte-identity of the final factor stores of two run roots.
bool FactorsIdentical(const std::string& lhs_root,
                      const std::string& rhs_root) {
  const TwoPhaseCpOptions options = BenchOptions();
  const GridPartition grid = BenchGrid();
  OpenedEnv lhs_env = bench::CheckOk(OpenEnv("posix://" + lhs_root), "lhs");
  OpenedEnv rhs_env = bench::CheckOk(OpenEnv("posix://" + rhs_root), "rhs");
  BlockFactorStore lhs(lhs_env.get(), "f", grid, options.rank);
  BlockFactorStore rhs(rhs_env.get(), "f", grid, options.rank);
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      const Matrix a =
          bench::CheckOk(lhs.ReadSubFactor(mode, part), "read lhs");
      const Matrix b =
          bench::CheckOk(rhs.ReadSubFactor(mode, part), "read rhs");
      if (!(a == b)) return false;
    }
  }
  return true;
}

// ---- Part 2: ownership balance on a skewed store --------------------------

struct OwnershipRow {
  std::string scheme;
  std::vector<int64_t> step_counts;
  std::vector<uint64_t> owned_bytes;
  double step_max_over_mean = 0.0;
  double bytes_max_over_mean = 0.0;
};

OwnershipRow BalanceOf(const std::string& scheme, const ExecutionPlan& plan,
                       const UnitCatalog& catalog, int workers,
                       const std::function<int(const ModePartition&)>& owner) {
  OwnershipRow row;
  row.scheme = scheme;
  row.step_counts.assign(workers, 0);
  row.owned_bytes.assign(workers, 0);
  for (int64_t pos = 0; pos < plan.cycle_length(); ++pos) {
    const ModePartition unit = plan.UnitAt(pos);
    const int w = owner(unit);
    ++row.step_counts[w];
    row.owned_bytes[w] += catalog.UnitBytes(unit);
  }
  int64_t step_max = 0, step_sum = 0;
  uint64_t byte_max = 0, byte_sum = 0;
  for (int w = 0; w < workers; ++w) {
    step_max = std::max(step_max, row.step_counts[w]);
    step_sum += row.step_counts[w];
    byte_max = std::max(byte_max, row.owned_bytes[w]);
    byte_sum += row.owned_bytes[w];
  }
  row.step_max_over_mean = static_cast<double>(step_max) * workers /
                           static_cast<double>(step_sum);
  row.bytes_max_over_mean = static_cast<double>(byte_max) * workers /
                            static_cast<double>(byte_sum);
  return row;
}

std::vector<OwnershipRow> SkewedOwnership(int workers) {
  // One giant mode-0 unit (the whole 2*kDim fiber span in a single part)
  // next to 2*kParts small ones — the shape that starves `part % N`.
  const GridPartition grid = bench::CheckOk(
      GridPartition::Create(Shape({2 * kDim, kDim, kDim}),
                            {1, kParts, kParts}),
      "skewed grid");
  const TwoPhaseCpOptions options = BenchOptions();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(options.schedule, grid);
  const ExecutionPlan plan =
      Planner::Build(schedule, Phase2PlannerOptions(options, grid));
  const UnitCatalog catalog(grid, options.rank);
  const DistributedPlan dplan(&plan, options.rank, workers);
  std::vector<OwnershipRow> rows;
  rows.push_back(BalanceOf(
      "weighted", plan, catalog, workers,
      [&dplan](const ModePartition& unit) { return dplan.OwnerOf(unit); }));
  rows.push_back(BalanceOf(
      "modulo", plan, catalog, workers,
      [workers](const ModePartition& unit) {
        return static_cast<int>(unit.part % workers);
      }));
  return rows;
}

std::string RenderCounts(const std::vector<int64_t>& counts) {
  std::string s;
  for (const int64_t c : counts) {
    if (!s.empty()) s += "/";
    s += std::to_string(c);
  }
  return s;
}

// The parent's scratch directory (empty until created). RemoveScratch
// runs on every exit of the parent: returns from main through atexit, a
// failed check's abort() through the SIGABRT handler. abort() is raised
// only synchronously by the bench's own checks, never from inside the
// allocator, so the handler may free memory. Forked workers exec (or
// _exit) and so never run either.
std::string g_scratch;

void RemoveScratch() {
  if (g_scratch.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(g_scratch, ignored);
  g_scratch.clear();
}

void RemoveScratchAndReraise(int sig) {
  RemoveScratch();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace
}  // namespace tpcp

int main(int argc, char** argv) {
  using tpcp::JsonValue;

  std::string json_path;
  std::map<std::string, std::string> flags;
  if (!tpcp::bench::ParseBenchArgs(argc, argv, &json_path, &flags)) return 2;

  // Hidden worker mode (the exec target of the forked children).
  if (flags.count("dist-worker-root")) {
    auto env = tpcp::OpenEnv("posix://" + flags["dist-worker-root"]);
    if (!env.ok()) return 1;
    const int port = std::atoi(flags["dist-worker-port"].c_str());
    const int worker = std::atoi(flags["dist-worker-id"].c_str());
    return tpcp::ServeDistWorker(env->get(), "f", port, worker).ok() ? 0 : 1;
  }

  const char* tmpdir = std::getenv("TMPDIR");
  std::string tmpl = std::string(tmpdir != nullptr && *tmpdir != '\0'
                                     ? tmpdir
                                     : "/tmp") +
                     "/tpcp_dist_overlap_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "bench: mkdtemp failed\n");
    return 1;
  }
  const std::string scratch = tmpl;
  tpcp::g_scratch = scratch;
  std::atexit(tpcp::RemoveScratch);
  std::signal(SIGABRT, tpcp::RemoveScratchAndReraise);

  std::printf("dist fleet (%d workers) vs in-process engine, phase 2\n",
              tpcp::kWorkers);
  tpcp::bench::PrintRule();
  const double engine_seconds = tpcp::RunEngine(scratch + "/engine");
  const tpcp::FleetRun fleet =
      tpcp::RunDistributed("/proc/self/exe", scratch + "/fleet");
  const bool identical =
      tpcp::FactorsIdentical(scratch + "/engine", fleet.root);
  std::printf("engine     %.3f s\n", engine_seconds);
  std::printf("fleet      %.3f s  from the ready fleet; %.3f s incl. "
              "worker spawn + handshake\n",
              fleet.fleet_phase2_seconds, fleet.wall_seconds);
  std::printf("factors %s, ledger %s\n",
              identical ? "IDENTICAL" : "DIVERGED",
              fleet.ledger_exact ? "exact" : "INEXACT");

  std::printf("\nweighted vs modulo ownership on skewed parts {1,%lld,%lld}, "
              "3 workers\n",
              static_cast<long long>(tpcp::kParts),
              static_cast<long long>(tpcp::kParts));
  tpcp::bench::PrintRule();
  const std::vector<tpcp::OwnershipRow> skew = tpcp::SkewedOwnership(3);
  for (const tpcp::OwnershipRow& row : skew) {
    std::printf("%-9s steps %-10s max/mean %.3f   bytes max/mean %.3f\n",
                row.scheme.c_str(), tpcp::RenderCounts(row.step_counts).c_str(),
                row.step_max_over_mean, row.bytes_max_over_mean);
  }

  if (!json_path.empty()) {
    JsonValue fleet_json = JsonValue::Object();
    fleet_json.Set("fleet_phase2_seconds", fleet.fleet_phase2_seconds)
        .Set("wall_seconds_with_spawn", fleet.wall_seconds)
        .Set("up_bytes", fleet.up_bytes)
        .Set("down_bytes", fleet.down_bytes)
        .Set("persist_bytes", fleet.persist_bytes)
        .Set("ledger_exact", fleet.ledger_exact);
    JsonValue ownership = JsonValue::Array();
    for (const tpcp::OwnershipRow& row : skew) {
      JsonValue steps = JsonValue::Array();
      JsonValue bytes = JsonValue::Array();
      for (const int64_t c : row.step_counts) {
        steps.Append(c);
      }
      for (const uint64_t b : row.owned_bytes) {
        bytes.Append(b);
      }
      JsonValue obj = JsonValue::Object();
      obj.Set("scheme", row.scheme)
          .Set("step_counts", steps)
          .Set("owned_bytes", bytes)
          .Set("step_max_over_mean", row.step_max_over_mean)
          .Set("bytes_max_over_mean", row.bytes_max_over_mean);
      ownership.Append(obj);
    }
    JsonValue top = JsonValue::Object();
    top.Set("bench", "dist_overlap")
        .Set("workers", tpcp::kWorkers)
        .Set("engine_phase2_seconds", engine_seconds)
        .Set("fleet", fleet_json)
        .Set("factors_identical", identical)
        .Set("skewed_ownership", ownership)
        .Set("skew_workers", 3);
    tpcp::bench::WriteJsonFile(json_path, top);
  }
  return 0;
}
