// csf-dist: the same layers used the other way. The input is a sparse CSF
// store (Phase-1 reads are slab decodes, not dense copies) of a planted
// sparse low-rank tensor, Phase 1 runs
// in-process, and Phase 2 runs across 2 forked worker processes (fork +
// exec of this binary in its worker mode), so every metadata refresh
// crosses the dist wire: base64-in-JSON encode, relay and absorb.
//
// Workers are separate processes, so the store must be a shared posix
// root; CheckStoreRoot guards it (see probes.h).

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>

#include "core/cost_model.h"
#include "core/phase2_engine.h"
#include "core/two_phase_cp.h"
#include "dist/coordinator.h"
#include "dist/exchange.h"
#include "dist/worker.h"
#include "grid/block_tensor_store.h"
#include "harness.h"
#include "parallel/thread_pool.h"
#include "probes.h"
#include "schedule/planner.h"
#include "storage/env_uri.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kDim = 96;
constexpr int64_t kParts = 4;
constexpr int64_t kRank = 8;
/// Factor-entry density of the planted tensor: a cell is non-zero where
/// some component's three entries all are, 1 - (1 - 0.19^3)^8 ≈ 5% of cells.
constexpr double kFactorDensity = 0.19;
constexpr int kWorkers = 2;
constexpr int kPhase1Threads = 2;
/// A set-up takes ~7 ms against a ~2 s operation, so a run of 10
/// operations has room for several set-ups each; 1 per operation spread
/// setup_s 9.6% across 5 seeds.
constexpr int kSetupsPerOperation = 3;

tpcp::TwoPhaseCpOptions CsfOptions(uint64_t seed) {
  tpcp::TwoPhaseCpOptions options;
  options.rank = kRank;
  options.seed = seed;
  options.phase1_max_iterations = 40;
  options.phase1_fit_tolerance = -1.0;
  options.fit_tolerance = -1.0;
  options.max_virtual_iterations = 3;
  options.schedule = tpcp::ScheduleType::kFiberOrder;
  options.buffer_fraction = 0.5;
  options.num_threads = kPhase1Threads;
  return options;
}


/// Writes a sparse tensor that is exactly rank kRank: its CP factors are
/// sparse, not its cells masked. Masking a dense low-rank tensor to 5%
/// leaves no low-rank structure: the fit then sits near 0.02, and Phase-1
/// CPU time swung by a third between seeds.
tpcp::Status GeneratePlantedSparse(uint64_t seed,
                                   tpcp::BlockTensorStore* store) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::vector<double>> factors(
      3, std::vector<double>(static_cast<size_t>(kDim * kRank)));
  for (std::vector<double>& factor : factors) {
    for (double& v : factor) {
      v = unit(rng) < kFactorDensity ? 0.5 + unit(rng) : 0.0;
    }
  }
  // Block by block, each cell's sum over components in component order
  // (the same bits a cell-by-cell BlockTensorStore::Generate would write),
  // with the first two modes' products hoisted out of the innermost loop.
  // Through Generate's per-cell callback one set-up took either 14.5 ms or
  // 25 ms, the same in every set-up of one process, which spread setup_s
  // across runs; written directly it takes 6.5-9 ms in every process.
  const tpcp::GridPartition& grid = store->grid();
  std::vector<double> ab(static_cast<size_t>(kRank));
  for (const tpcp::BlockIndex& block : grid.AllBlocks()) {
    const tpcp::Index offsets = grid.BlockOffsets(block);
    const std::vector<int64_t> sizes = grid.BlockSizes(block);
    tpcp::DenseTensor chunk{tpcp::Shape(sizes)};
    double* out = chunk.data();
    for (int64_t i = offsets[0]; i < offsets[0] + sizes[0]; ++i) {
      for (int64_t j = offsets[1]; j < offsets[1] + sizes[1]; ++j) {
        for (int64_t r = 0; r < kRank; ++r) {
          ab[static_cast<size_t>(r)] =
              factors[0][static_cast<size_t>(i * kRank + r)] *
              factors[1][static_cast<size_t>(j * kRank + r)];
        }
        for (int64_t k = offsets[2]; k < offsets[2] + sizes[2]; ++k) {
          const double* c = &factors[2][static_cast<size_t>(k * kRank)];
          double sum = 0.0;
          for (int64_t r = 0; r < kRank; ++r) {
            sum += ab[static_cast<size_t>(r)] * c[r];
          }
          *out++ = sum;
        }
      }
    }
    TPCP_RETURN_IF_ERROR(store->WriteBlock(block, chunk));
  }
  return tpcp::Status::OK();
}

/// Worker processes of one distributed run, reaped with their rusage.
class Fleet {
 public:
  Fleet(std::string env_uri, std::string prefix, std::string stats_dir)
      : env_uri_(std::move(env_uri)),
        prefix_(std::move(prefix)),
        stats_dir_(std::move(stats_dir)) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  /// Reaps anything still running, so no child outlives the run.
  ~Fleet() { Reap(); }

  tpcp::Status Spawn(int port, int worker) {
    const std::vector<std::string> args = {
        "perfbench",
        "--dist-worker-uri=" + env_uri_,
        "--dist-worker-prefix=" + prefix_,
        "--dist-worker-port=" + std::to_string(port),
        "--dist-worker-id=" + std::to_string(worker),
        "--dist-worker-stats=" + StatsPath(worker, spawned_),
    };
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return tpcp::Status::IOError("fork failed");
    if (pid == 0) {
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    children_.push_back(pid);
    stats_paths_.push_back(StatsPath(worker, spawned_));
    ++spawned_;
    return tpcp::Status::OK();
  }

  /// Waits for every child. False when one exited abnormally.
  bool Reap() {
    bool clean = true;
    for (const pid_t pid : children_) {
      int wstatus = 0;
      struct rusage usage;
      if (::wait4(pid, &wstatus, 0, &usage) != pid) {
        clean = false;
        continue;
      }
      peak_rss_mib_ = std::max(peak_rss_mib_, usage.ru_maxrss / 1024.0);
      if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) clean = false;
    }
    children_.clear();
    return clean;
  }

  /// Sum of the workers' storage counters (traced runs), files removed.
  StorageSnapshot CollectStorage() {
    StorageSnapshot total;
    for (const std::string& path : stats_paths_) {
      std::ifstream in(path);
      std::string line;
      if (std::getline(in, line)) total = total + StorageSnapshot::Decode(line);
      std::remove(path.c_str());
    }
    stats_paths_.clear();
    return total;
  }

  double peak_rss_mib() const { return peak_rss_mib_; }

 private:
  std::string StatsPath(int worker, int spawn) const {
    if (stats_dir_.empty()) return "";
    return stats_dir_ + "/worker-" + std::to_string(worker) + "-" +
           std::to_string(spawn) + ".stats";
  }

  std::string env_uri_;
  std::string prefix_;
  std::string stats_dir_;
  std::vector<pid_t> children_;
  std::vector<std::string> stats_paths_;
  int spawned_ = 0;
  double peak_rss_mib_ = 0.0;
};

/// Seconds per byte of one full codec round trip (EncodeMatrix, JSON
/// serialize, JSON parse, DecodeMatrix) of a rows x cols matrix.
double CodecSecondsPerByte(int64_t rows, int64_t cols) {
  tpcp::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = 0.5 + 1e-3 * i;
  const double bytes = static_cast<double>(m.size() * sizeof(double));
  int64_t reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.02) {
    const std::string wire = tpcp::EncodeMatrix(m).Serialize();
    const tpcp::Result<tpcp::JsonValue> parsed = tpcp::JsonValue::Parse(wire);
    if (!parsed.ok() || !tpcp::DecodeMatrix(*parsed).ok()) return 0.0;
    ++reps;
    elapsed = SecondsBetween(start, Clock::now());
  }
  return elapsed / (static_cast<double>(reps) * bytes);
}

struct LedgerTotals {
  uint64_t up = 0, down = 0, persist = 0;
  int64_t messages = 0;
  bool exact = true;
};

LedgerTotals Ledger(const tpcp::DistributedRunResult& result) {
  LedgerTotals t;
  t.exact = result.measured.size() == result.predicted.size() &&
            result.measured_persist_bytes.size() ==
                result.predicted_persist_bytes.size();
  for (size_t w = 0; w < result.measured.size(); ++w) {
    const tpcp::WorkerTraffic& m = result.measured[w];
    t.up += m.up_bytes;
    t.down += m.down_bytes;
    t.messages += m.up_messages + m.down_messages;
    if (w < result.predicted.size()) {
      const tpcp::WorkerTraffic& p = result.predicted[w];
      t.exact = t.exact && m.up_bytes == p.up_bytes &&
                m.down_bytes == p.down_bytes &&
                m.up_messages == p.up_messages &&
                m.down_messages == p.down_messages;
    }
  }
  for (size_t w = 0; w < result.measured_persist_bytes.size(); ++w) {
    t.persist += result.measured_persist_bytes[w];
    t.exact = t.exact && w < result.predicted_persist_bytes.size() &&
              result.measured_persist_bytes[w] ==
                  result.predicted_persist_bytes[w];
  }
  return t;
}

/// True when every sub-factor under the two prefixes is byte-identical.
tpcp::Result<bool> SameFactors(tpcp::Env* env, const tpcp::GridPartition& grid,
                               int64_t rank, const std::string& lhs_prefix,
                               const std::string& rhs_prefix) {
  const tpcp::BlockFactorStore lhs(env, lhs_prefix, grid, rank);
  const tpcp::BlockFactorStore rhs(env, rhs_prefix, grid, rank);
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      TPCP_ASSIGN_OR_RETURN(const tpcp::Matrix a, lhs.ReadSubFactor(mode, part));
      TPCP_ASSIGN_OR_RETURN(const tpcp::Matrix b, rhs.ReadSubFactor(mode, part));
      if (a.rows() != b.rows() || a.cols() != b.cols() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int ServeBenchDistWorker(const std::string& env_uri,
                         const std::string& factor_prefix, int port,
                         int worker, const std::string& stats_path) {
  RegisterBenchEnvWrappers();
  tpcp::Result<tpcp::OpenedEnv> env = tpcp::OpenEnv(env_uri);
  if (!env.ok()) return 1;
  const tpcp::Status status =
      tpcp::ServeDistWorker(env->get(), factor_prefix, port, worker);
  if (!stats_path.empty()) {
    std::ofstream out(stats_path);
    out << DataCounters().Snapshot().Encode() << "\n";
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench dist worker %d: %s\n", worker,
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

tpcp::Status RunCsfDist(const RunArgs& args, Report* report) {
  TPCP_ASSIGN_OR_RETURN(const StoreRoot root,
                        CheckStoreRoot(args.work_dir + "/csf-store"));
  report->notes.push_back(
      "env: store_root_fs=" + root.fs_type +
      (root.ram_backed ? "" : " (not RAM-backed: unlink+create writes)") +
      " rewrite_ms=" + std::to_string(root.rewrite_seconds * 1e3));
  const tpcp::TwoPhaseCpOptions options = CsfOptions(args.seed);
  const int vi = options.max_virtual_iterations;
  TPCP_ASSIGN_OR_RETURN(
      const tpcp::GridPartition grid,
      tpcp::GridPartition::CreateUniform(tpcp::Shape({kDim, kDim, kDim}),
                                         kParts));

  TPCP_ASSIGN_OR_RETURN(tpcp::OpenedEnv env, tpcp::OpenEnv(root.base_uri));
  TPCP_ASSIGN_OR_RETURN(tpcp::OpenedEnv timed,
                        tpcp::OpenEnv("timed+" + root.base_uri));
  tpcp::ThreadPool pool(kPhase1Threads);

  OperationSamples ops;
  std::vector<double> traced_seconds, phase1_seconds, phase2_seconds,
      hidden_seconds;
  StorageSnapshot storage;
  LedgerTotals ledger;
  double socket_bytes = 0.0;
  int respawns = 0;
  uint64_t overlapped_bytes = 0;
  bool have_fit = false;
  std::string last_prefix;
  std::vector<double> setup_seconds, generate_seconds;
  const Clock::time_point loop_start = Clock::now();
  for (int64_t op = 0;; ++op) {
    if (op >= kMinOperations &&
        SecondsBetween(loop_start, Clock::now()) >= args.seconds) {
      break;
    }
    // Set-up, before every operation as in the dense workloads: CSF store
    // generation into memory, kSetupsPerOperation times (the last store is
    // used), each on the next CPU in turn (see PinToCpuSlot); the
    // operation and its forked workers run on all CPUs. Copying the store to the shared root the worker processes
    // read is staging, outside setup_s: written straight to the root, its
    // 64 small files moved a set of runs' median set-up from 0.016 s to
    // 0.027 s with the host's disk load.
    tpcp::OpenedEnv staging;
    for (int i = 0; i < kSetupsPerOperation; ++i) {
      PinToCpuSlot(static_cast<int>(op) * kSetupsPerOperation + i);
      TPCP_ASSIGN_OR_RETURN(staging, tpcp::OpenEnv("mem://"));
      const Clock::time_point setup_start = Clock::now();
      TPCP_ASSIGN_OR_RETURN(
          tpcp::BlockTensorStore generated,
          tpcp::BlockTensorStore::Create(staging.get(), "t", grid,
                                         tpcp::SlabFormat::kCsf));
      const Clock::time_point generate = Clock::now();
      TPCP_RETURN_IF_ERROR(GeneratePlantedSparse(args.seed, &generated));
      const Clock::time_point setup_done = Clock::now();
      setup_seconds.push_back(SecondsBetween(setup_start, setup_done));
      generate_seconds.push_back(SecondsBetween(generate, setup_done));
    }
    PinToCpuSlot(-1);
    ClearPrefix(env.get(), "t/");
    for (const std::string& name : staging->ListFiles("t/")) {
      std::string data;
      TPCP_RETURN_IF_ERROR(staging->ReadFile(name, &data));
      TPCP_RETURN_IF_ERROR(env->WriteFile(name, data));
    }

    const bool traced = args.trace && op % 2 == 1;
    tpcp::Env* op_env = traced ? timed.get() : env.get();
    const std::string prefix = "f" + std::to_string(op);
    TPCP_ASSIGN_OR_RETURN(tpcp::BlockTensorStore input,
                          tpcp::BlockTensorStore::Open(op_env, "t"));
    Fleet fleet((traced ? "timed+" : "") + root.base_uri,
                prefix, traced ? args.work_dir : "");
    tpcp::DistributedRunOptions dopts;
    dopts.num_workers = kWorkers;
    dopts.overlap = true;
    dopts.spawn_worker = [&fleet](int port, int worker) {
      return fleet.Spawn(port, worker);
    };
    tpcp::DistributedRunResult dist;

    const StorageSnapshot io_before = DataCounters().Snapshot();
    ResetPeakRss();
    const double cpu_before = CpuSeconds();
    const Clock::time_point start = Clock::now();
    tpcp::BlockFactorStore factors(op_env, prefix, grid, options.rank);
    tpcp::TwoPhaseCp cp(&input, &factors, options);
    tpcp::Status status = cp.RunPhase1(&pool);
    const Clock::time_point phase1_done = Clock::now();
    const uint64_t wire_before = LoopbackBytes();
    if (status.ok()) {
      status = tpcp::RunDistributedPhase2(&factors, options, dopts, &dist);
    }
    const bool clean_exit = fleet.Reap();
    const uint64_t wire_after = LoopbackBytes();
    const Clock::time_point done = Clock::now();
    const double cpu = CpuSeconds() - cpu_before;
    const double peak_rss = std::max(PeakRssMib(), fleet.peak_rss_mib());
    const double interval = SecondsBetween(start, done);
    ++report->attempted;

    if (!status.ok()) {
      report->Fail("dist decomposition: " + status.ToString());
      continue;
    }
    if (!clean_exit) {
      report->Fail("a dist worker exited abnormally");
      continue;
    }
    const tpcp::Phase2Result& phase2 = dist.phase2;
    if (phase2.virtual_iterations != vi ||
        static_cast<int>(phase2.fit_trace.size()) != vi) {
      report->Fail("fit trace has " + std::to_string(phase2.fit_trace.size()) +
                   " virtual iterations, expected " + std::to_string(vi));
      continue;
    }
    const LedgerTotals op_ledger = Ledger(dist);
    if (!op_ledger.exact) {
      report->Fail("dist ledger: measured bytes differ from predicted");
      continue;
    }
    if (!std::isfinite(phase2.surrogate_fit) ||
        (have_fit && !SameBits(phase2.surrogate_fit, ops.fit))) {
      report->Fail("surrogate fit " + std::to_string(phase2.surrogate_fit) +
                   " differs from the seed's first run");
      continue;
    }
    ops.fit = phase2.surrogate_fit;
    have_fit = true;
    if (!last_prefix.empty()) ClearPrefix(env.get(), last_prefix + "/");
    last_prefix = prefix;

    const double seconds = SecondsBetween(start, done);
    if (!traced) {
      ops.seconds.push_back(seconds);
      ops.intervals.push_back(interval);
      ops.cpu_seconds.push_back(cpu);
      ops.peak_rss_mib.push_back(peak_rss);
      continue;
    }
    traced_seconds.push_back(seconds);
    phase1_seconds.push_back(SecondsBetween(start, phase1_done));
    phase2_seconds.push_back(SecondsBetween(phase1_done, done));
    hidden_seconds.push_back(dist.hidden_seconds);
    storage = storage + (DataCounters().Snapshot() - io_before) +
              fleet.CollectStorage();
    ledger.up += op_ledger.up;
    ledger.down += op_ledger.down;
    ledger.persist += op_ledger.persist;
    ledger.messages += op_ledger.messages;
    respawns += dist.respawns;
    socket_bytes += static_cast<double>(wire_after - wire_before);
    overlapped_bytes += dist.overlapped_bytes;
  }
  // Correctness, once per run outside the timed loop: the distributed
  // factors must be byte-identical to a single-process run of the plan.
  if (!last_prefix.empty()) {
    ClearPrefix(env.get(), "ref/");
    TPCP_ASSIGN_OR_RETURN(tpcp::BlockTensorStore input,
                          tpcp::BlockTensorStore::Open(env.get(), "t"));
    tpcp::BlockFactorStore reference(env.get(), "ref", grid, options.rank);
    tpcp::TwoPhaseCp cp(&input, &reference, options);
    TPCP_RETURN_IF_ERROR(cp.Run(&pool).status());
    TPCP_ASSIGN_OR_RETURN(const bool same,
                          SameFactors(env.get(), grid, options.rank, "ref",
                                      last_prefix));
    if (!same) {
      report->Fail("dist factors differ from the single-process run");
    }
    ClearPrefix(env.get(), "ref/");
    ClearPrefix(env.get(), last_prefix + "/");
  }

  ReportEndToEnd(ops, setup_seconds, report);
  if (!args.trace) return tpcp::Status::OK();

  report->Set("core.surrogate_fit", ops.fit);
  const double n = std::max<double>(1.0, traced_seconds.size());
  ReportStorage(storage, n, report);
  CoreSamples core;
  core.total = traced_seconds;
  core.phase1 = phase1_seconds;
  core.phase2 = phase2_seconds;
  ReportCore(core,
             Phase1Gflop(grid, options.rank, options.phase1_max_iterations),
             Phase2Gflop(grid, options.rank, vi), report);
  ReportPlan(options, grid, report);

  const double phase2 = Median(phase2_seconds);
  report->Set("dist.phase2_s", phase2);
  report->Set("dist.up_mib", ledger.up / kMiB / n);
  report->Set("dist.down_mib", ledger.down / kMiB / n);
  report->Set("dist.messages", ledger.messages / n);
  report->Set("dist.persist_kib", ledger.persist / 1024.0 / n);
  report->Set("dist.overlapped_mib", overlapped_bytes / kMiB / n);
  report->Set("dist.hidden_s", Median(hidden_seconds));
  report->Set("dist.respawns", respawns / n);
  report->Set("dist.socket_mib", socket_bytes / kMiB / n);
  const double payload =
      static_cast<double>(ledger.up + ledger.down + ledger.persist);
  report->Set("dist.wire_overhead",
              payload > 0.0 ? socket_bytes / payload : 0.0);
  // Every ledger byte makes one codec round trip: up bytes are encoded by
  // a worker and decoded by the coordinator, down bytes the reverse.
  // Metadata images are F x F; persisted sub-factors are d_n x F.
  const double image_cost = CodecSecondsPerByte(options.rank, options.rank);
  const double factor_cost =
      CodecSecondsPerByte(grid.PartitionSize(0, 0), options.rank);
  report->Set("dist.codec_s",
              (image_cost * (ledger.up + ledger.down) +
               factor_cost * ledger.persist) / n);
  const tpcp::PlannerOptions planner = tpcp::Phase2PlannerOptions(options, grid);
  const tpcp::ExecutionPlan plan = tpcp::Planner::Build(
      tpcp::UpdateSchedule::Create(options.schedule, grid), planner);
  const tpcp::DistributedPlan dplan(&plan, options.rank, kWorkers);
  tpcp::ClusterSimConfig cluster;
  cluster.num_workers = kWorkers;
  cluster.policy = options.policy;
  cluster.buffer_bytes = planner.buffer_bytes;
  cluster.overlap = true;
  const double predicted =
      tpcp::SimulateClusterOverlap(dplan, options.rank, cluster)
          .pipelined_seconds_per_vi *
      vi;
  report->Set("model.cluster_pred_s", predicted);
  report->Set("model.cluster_ratio",
              predicted > 0.0 ? phase2 / predicted : 0.0);

  // One replayed decode pass over the input store (Phase 1 reads blocks
  // densified): wall time minus the storage layer's share.
  TPCP_ASSIGN_OR_RETURN(const tpcp::BlockTensorStore input,
                        tpcp::BlockTensorStore::Open(timed.get(), "t"));
  TPCP_ASSIGN_OR_RETURN(const uint64_t stored, input.TotalBytes());
  report->Set("grid.stored_mib", static_cast<double>(stored) / kMiB);
  const StorageSnapshot decode_before = DataCounters().Snapshot();
  const Clock::time_point decode_start = Clock::now();
  for (const tpcp::BlockIndex& block : grid.AllBlocks()) {
    TPCP_RETURN_IF_ERROR(input.ReadBlock(block).status());
  }
  report->Set("grid.decode_s",
              SecondsBetween(decode_start, Clock::now()) -
                  (DataCounters().Snapshot() - decode_before).read_seconds);
  report->Set("data.generate_s", Median(generate_seconds));
  report->Set("trace.overhead_s",
              Median(traced_seconds) - Median(ops.seconds));
  return tpcp::Status::OK();
}

}  // namespace perfbench
