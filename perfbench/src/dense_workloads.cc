// The single-process decomposition workloads, run through the public front
// door (Session over SessionOptions::env, solver "2pcp"):
//
//  - zo-outofcore: the buffer holds 30% of the refinement state, so Phase 2
//    swaps units through a throttled store with prefetch on; buffer,
//    prefetch and storage dominate and the Phase-2 kernels do little.
//  - mc-incore: everything fits in the buffer (fraction 1.0), so the buffer
//    layer does nearly nothing and the linalg / tensor / cp kernels of both
//    phases dominate, on mode-centric waves. Its blocks are 12^3: with 8^3
//    blocks under rank 32 one operation's time swung 0.19-0.34 s within a
//    run and its median 25% between runs; 12^3 blocks held it to ~5%.
//    Both phases run on one thread: with 4 Phase-1 and 4 compute threads on
//    a 4-vCPU share of a loaded host, every wave waited for its slowest
//    thread and two sets of 10 runs each moved the median 0.29 s -> 0.41 s
//    and spread 30%.
//
// Both keep every store in memory (mem://), which is RAM-backed by
// construction; zo-outofcore's device cost comes from the throttled+
// wrapper (200 MB/s, 1 ms per call), which repeats to within 1%.

#include <cmath>
#include <cstring>
#include <memory>

#include "api/session.h"
#include "data/synthetic.h"
#include "grid/block_tensor_store.h"
#include "harness.h"
#include "probes.h"
#include "storage/env_uri.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Both inputs are rank-8 tensors plus 5% noise, decomposed at a higher
/// rank.
constexpr int64_t kGenRank = 8;

struct DenseSpec {
  int64_t dim = 0;
  int64_t parts = 0;
  tpcp::TwoPhaseCpOptions options;
  std::string env_uri;
};

tpcp::TwoPhaseCpOptions FixedWorkOptions(uint64_t seed, int64_t rank,
                                         int virtual_iterations) {
  tpcp::TwoPhaseCpOptions options;
  options.rank = rank;
  options.seed = seed;
  // Fixed work: negative tolerances never stop early, so every run does
  // exactly phase1_max_iterations per block and the vi count below.
  options.phase1_max_iterations = 10;
  options.phase1_fit_tolerance = -1.0;
  options.fit_tolerance = -1.0;
  options.max_virtual_iterations = virtual_iterations;
  return options;
}

DenseSpec ZoOutOfCore(uint64_t seed) {
  DenseSpec spec;
  spec.dim = 96;
  spec.parts = 4;
  spec.options = FixedWorkOptions(seed, /*rank=*/24, /*virtual_iterations=*/8);
  spec.options.schedule = tpcp::ScheduleType::kZOrder;
  spec.options.policy = tpcp::PolicyType::kForward;
  spec.options.buffer_fraction = 0.3;
  spec.options.prefetch_depth = 2;
  spec.options.io_threads = 2;
  spec.options.compute_threads = 1;
  spec.options.num_threads = 4;
  spec.env_uri = "throttled+mem://?mbps=200&latency_ms=1";
  return spec;
}

DenseSpec McInCore(uint64_t seed) {
  DenseSpec spec;
  spec.dim = 96;
  spec.parts = 8;
  spec.options = FixedWorkOptions(seed, /*rank=*/32, /*virtual_iterations=*/20);
  spec.options.schedule = tpcp::ScheduleType::kModeCentric;
  spec.options.policy = tpcp::PolicyType::kForward;
  spec.options.buffer_fraction = 1.0;
  spec.options.prefetch_depth = 0;
  spec.options.compute_threads = 1;
  spec.options.num_threads = 1;
  spec.env_uri = "mem://";
  return spec;
}

tpcp::Status RunDense(const DenseSpec& spec, const RunArgs& args,
                      Report* report) {
  RegisterBenchEnvWrappers();
  report->notes.push_back("env: store=" + spec.env_uri + " (RAM-backed)");
  TPCP_ASSIGN_OR_RETURN(
      const tpcp::GridPartition grid,
      tpcp::GridPartition::CreateUniform(
          tpcp::Shape({spec.dim, spec.dim, spec.dim}), spec.parts));
  const int vi = spec.options.max_virtual_iterations;

  // The measured loop. A traced run alternates untraced and traced
  // operations, so both see the same warm state; the difference of their
  // medians is the tracing overhead.
  //
  // Every operation decomposes a store generated just before it: the
  // set-ups are spread over the run like the operations, so a slow moment
  // of the host (see kTimingQuantile) cannot take all of them at once. A
  // single-threaded operation runs, set-up included, on the CPUs in turn
  // (see PinToCpuSlot); a multi-threaded one is left to the scheduler.
  const tpcp::TwoPhaseCpOptions& o = spec.options;
  const bool single_threaded = o.num_threads == 1 &&
                               o.compute_threads == 1 &&
                               o.prefetch_depth == 0;
  std::vector<double> setup_seconds, generate_seconds;
  tpcp::OpenedEnv env;
  std::unique_ptr<tpcp::Env> timed;
  OperationSamples ops;
  std::vector<double> traced_seconds, swaps, hit_rate, prefetch_hits;
  CoreSamples core;
  StorageSnapshot storage;
  PhaseClock clock;
  bool have_fit = false;
  const Clock::time_point loop_start = Clock::now();
  for (int64_t op = 0;; ++op) {
    if (op >= kMinOperations &&
        SecondsBetween(loop_start, Clock::now()) >= args.seconds) {
      break;
    }
    if (single_threaded) PinToCpuSlot(static_cast<int>(op));
    const Clock::time_point setup_start = Clock::now();
    TPCP_ASSIGN_OR_RETURN(env, tpcp::OpenEnv(spec.env_uri));
    TPCP_ASSIGN_OR_RETURN(tpcp::BlockTensorStore store,
                          tpcp::BlockTensorStore::Create(env.get(), "t", grid));
    const Clock::time_point generate = Clock::now();
    tpcp::LowRankSpec low_rank;
    low_rank.shape = grid.tensor_shape();
    low_rank.rank = kGenRank;
    low_rank.noise_level = 0.05;
    low_rank.seed = args.seed;
    TPCP_RETURN_IF_ERROR(tpcp::GenerateLowRankIntoStore(low_rank, &store));
    const Clock::time_point op_start = Clock::now();
    setup_seconds.push_back(SecondsBetween(setup_start, op_start));
    generate_seconds.push_back(SecondsBetween(generate, op_start));
    timed = NewTimedEnv(env.get(), &DataCounters());

    const bool traced = args.trace && op % 2 == 1;
    tpcp::SessionOptions session_options;
    session_options.env = traced ? timed.get() : env.get();
    session_options.tensor_prefix = "t";
    session_options.factor_prefix = "f";
    TPCP_ASSIGN_OR_RETURN(std::unique_ptr<tpcp::Session> session,
                          tpcp::Session::Open(session_options));
    tpcp::TwoPhaseCpOptions options = spec.options;
    options.observer = traced ? &clock : nullptr;

    const StorageSnapshot io_before = DataCounters().Snapshot();
    ResetPeakRss();
    const double cpu_before = CpuSeconds();
    clock.Start();
    const tpcp::Result<tpcp::SolveResult> result =
        session->Decompose("2pcp", options);
    clock.Stop();
    const double cpu = CpuSeconds() - cpu_before;
    const double peak_rss = PeakRssMib();
    const double interval = SecondsBetween(op_start, Clock::now());
    ++report->attempted;

    if (!result.ok()) {
      report->Fail("decomposition: " + result.status().ToString());
      continue;
    }
    if (result->virtual_iterations != vi ||
        static_cast<int>(result->fit_trace.size()) != vi) {
      report->Fail("fit trace has " +
                   std::to_string(result->fit_trace.size()) +
                   " virtual iterations, expected " + std::to_string(vi));
      continue;
    }
    if (!std::isfinite(result->surrogate_fit) ||
        (have_fit && !SameBits(result->surrogate_fit, ops.fit))) {
      report->Fail("surrogate fit " + std::to_string(result->surrogate_fit) +
                   " differs from the seed's first run");
      continue;
    }
    ops.fit = result->surrogate_fit;
    have_fit = true;

    if (!traced) {
      ops.seconds.push_back(clock.total_seconds());
      ops.intervals.push_back(interval);
      ops.cpu_seconds.push_back(cpu);
      ops.peak_rss_mib.push_back(peak_rss);
      continue;
    }
    traced_seconds.push_back(clock.total_seconds());
    storage = storage + (DataCounters().Snapshot() - io_before);
    const tpcp::BufferStats& stats = result->buffer_stats;
    swaps.push_back(result->swaps_per_virtual_iteration);
    hit_rate.push_back(stats.HitRate());
    prefetch_hits.push_back(static_cast<double>(stats.prefetch_hits));
    core.total.push_back(clock.total_seconds());
    core.phase1.push_back(clock.phase1_seconds());
    core.phase2.push_back(clock.phase2_seconds());
    core.first_vi.push_back(clock.first_vi_seconds());
    core.later_vi.push_back(clock.later_vi_seconds());
    core.finish.push_back(clock.finish_seconds());
    core.stall.push_back(stats.stall_seconds);
    core.writeback.push_back(stats.writeback_seconds);
    if (clock.virtual_iterations() != vi) {
      report->Fail("observer saw " +
                   std::to_string(clock.virtual_iterations()) +
                   " virtual iterations, expected " + std::to_string(vi));
    }
  }
  PinToCpuSlot(-1);
  ReportEndToEnd(ops, setup_seconds, report);
  if (!args.trace) return tpcp::Status::OK();

  report->Set("core.surrogate_fit", ops.fit);
  const double traced_ops = static_cast<double>(traced_seconds.size());
  ReportStorage(storage, traced_ops, report);
  report->Set("buffer.swap_ins_per_vi", Median(swaps));
  report->Set("buffer.hit_rate", Median(hit_rate));
  report->Set("buffer.prefetch_hits", Median(prefetch_hits));
  report->Set("buffer.stall_s", Median(core.stall));
  report->Set("buffer.writeback_s", Median(core.writeback));
  ReportCore(core,
             Phase1Gflop(grid, spec.options.rank,
                         spec.options.phase1_max_iterations),
             Phase2Gflop(grid, spec.options.rank, vi), report);
  const double predicted = ReportPlan(spec.options, grid, report);
  const double measured = Median(swaps);
  report->Set("model.swaps_ratio",
              predicted > 0.0 ? measured / predicted
                              : (measured == 0.0 ? 1.0 : 0.0));

  // One replayed decode pass over the input store: wall time minus the
  // time the storage layer spent in those reads.
  TPCP_ASSIGN_OR_RETURN(const tpcp::BlockTensorStore input,
                        tpcp::BlockTensorStore::Open(timed.get(), "t"));
  TPCP_ASSIGN_OR_RETURN(const uint64_t stored, input.TotalBytes());
  report->Set("grid.stored_mib", static_cast<double>(stored) / kMiB);
  const StorageSnapshot decode_before = DataCounters().Snapshot();
  const Clock::time_point decode_start = Clock::now();
  for (const tpcp::BlockIndex& block : grid.AllBlocks()) {
    TPCP_RETURN_IF_ERROR(input.ReadBlock(block).status());
  }
  const double decode_wall = SecondsBetween(decode_start, Clock::now());
  report->Set("grid.decode_s",
              decode_wall -
                  (DataCounters().Snapshot() - decode_before).read_seconds);
  report->Set("data.generate_s", Median(generate_seconds));
  report->Set("trace.overhead_s",
              Median(traced_seconds) - Median(ops.seconds));
  return tpcp::Status::OK();
}

}  // namespace

tpcp::Status RunZoOutOfCore(const RunArgs& args, Report* report) {
  return RunDense(ZoOutOfCore(args.seed), args, report);
}

tpcp::Status RunMcInCore(const RunArgs& args, Report* report) {
  return RunDense(McInCore(args.seed), args, report);
}

}  // namespace perfbench
