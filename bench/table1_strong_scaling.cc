// Reproduces Table I and Figure 11: 2PCP vs HaTen2 execution time on
// billion-scale dense tensors (density 0.2, rank 10, 2x2x2 partitioning,
// 1 HaTen2 iteration).
//
// Scaling substitution (DESIGN.md #4): the paper runs 500^3..1500^3 cells
// on 8 EC2 nodes (244 GB aggregate). This single-node environment scales
// every side by 1/10 — 50^3..150^3 — and scales the HaTen2 per-reducer
// heap cap by the same data ratio, so the success/failure boundary falls
// in the same place: the two smaller tensors complete, the largest FAILS.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "tensor/norms.h"
#include "util/format.h"
#include "util/parse.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

struct Row {
  int64_t side;
  double nnz_billions_paper_scale;  // the paper-scale label for the row
  double tpcp_seconds;
  double tpcp_fit;
  bool haten2_failed;
  double haten2_seconds;
  double haten2_fit;
};

Row RunOne(int64_t side, int64_t paper_side) {
  Row row;
  row.side = side;
  const double paper_cells = static_cast<double>(paper_side) *
                             static_cast<double>(paper_side) *
                             static_cast<double>(paper_side);
  row.nnz_billions_paper_scale = 0.2 * paper_cells / 1e9;

  const Shape shape({side, side, side});
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = 10;
  spec.noise_level = 0.1;
  spec.density = 0.2;
  spec.seed = 7;

  // ---- 2PCP (2x2x2 partitioning, rank 10), via the Session API. ----
  auto session = bench::CheckOk(Session::Open({"mem://"}), "open");
  GridPartition grid = GridPartition::Uniform(shape, 2);
  BlockTensorStore* input =
      bench::CheckOk(session->CreateTensorStore(grid), "create store");
  bench::CheckOk(GenerateLowRankIntoStore(spec, input), "generate");

  TwoPhaseCpOptions options;
  options.rank = 10;
  options.phase1_max_iterations = 10;
  options.max_virtual_iterations = 20;
  options.fit_tolerance = 1e-2;  // the paper's stopping condition
  options.buffer_fraction = 0.5;
  Stopwatch watch;
  const SolveResult k =
      bench::CheckOk(session->Decompose("2pcp", options), "2PCP");
  row.tpcp_seconds = watch.ElapsedSeconds();
  row.tpcp_fit = k.surrogate_fit;

  // ---- HaTen2-sim (1 iteration, as in the paper), same registry path.
  // The solver lifts the block store's non-zeros into COO itself.
  TwoPhaseCpOptions haten2;
  haten2.rank = 10;
  haten2.max_virtual_iterations = 1;
  // 30.5 GB per node in the paper, scaled by the 1000x cell-count reduction
  // (tenfold per side): ~30 MB of grouped reducer state per reducer.
  const SolveResult h = bench::CheckOk(
      session->Decompose(
          "haten2", haten2,
          {{"heap_cap_bytes", std::to_string(int64_t{30} << 20)},
           {"num_reducers", "8"}}),
      "haten2");
  row.haten2_failed = h.failed;
  row.haten2_seconds = h.total_seconds;
  row.haten2_fit = h.surrogate_fit;
  return row;
}

// ---- Phase-2 compute-threads sweep ----------------------------------------
//
// Strong scaling of the refinement *math*: a mode-centric schedule (the
// round-robin order whose conflict-free batches are K_i wide — block-
// centric orders interleave modes and stay serial) on a 4x4x4 grid, rank
// 48, fixed virtual-iteration count. Factors and fit traces must be
// bit-identical at every thread count; only phase2 wall-clock may move.

struct SweepRow {
  int compute_threads;
  double phase2_seconds;
  double fit;
  double speedup_vs_serial;  // phase2 time at 1 thread / this row's
  bool identical_to_serial;  // exact fit-trace match with the 1-thread run
};

std::vector<SweepRow> RunComputeSweep(const std::vector<int>& thread_counts) {
  std::vector<SweepRow> rows;
  std::vector<double> serial_trace;
  double serial_seconds = 0.0;
  for (const int threads : thread_counts) {
    const Shape shape({120, 120, 120});
    LowRankSpec spec;
    spec.shape = shape;
    spec.rank = 8;
    spec.noise_level = 0.1;
    spec.density = 0.2;
    spec.seed = 21;

    auto session = bench::CheckOk(Session::Open({"mem://"}), "open");
    GridPartition grid = GridPartition::Uniform(shape, 4);
    BlockTensorStore* input =
        bench::CheckOk(session->CreateTensorStore(grid), "create store");
    bench::CheckOk(GenerateLowRankIntoStore(spec, input), "generate");

    TwoPhaseCpOptions options;
    options.rank = 48;
    options.schedule = ScheduleType::kModeCentric;
    options.policy = PolicyType::kForward;
    options.buffer_fraction = 0.6;
    options.phase1_max_iterations = 3;
    options.num_threads = 4;  // Phase 1 setup speed; not what is measured
    options.max_virtual_iterations = 8;
    options.fit_tolerance = -1.0;  // fixed work across thread counts
    options.prefetch_depth = 2;
    options.compute_threads = threads;
    const SolveResult r =
        bench::CheckOk(session->Decompose("2pcp", options), "2PCP sweep");

    SweepRow row;
    row.compute_threads = threads;
    row.phase2_seconds = r.phase2_seconds;
    row.fit = r.surrogate_fit;
    if (rows.empty()) {
      // First entry is the serial baseline (callers pass 1 first).
      serial_trace = r.fit_trace;
      serial_seconds = r.phase2_seconds;
    }
    row.identical_to_serial = r.fit_trace == serial_trace;
    row.speedup_vs_serial =
        r.phase2_seconds > 0.0 ? serial_seconds / r.phase2_seconds : 0.0;
    if (!row.identical_to_serial) {
      // Parallel batches must not change a single bit; a drift here is a
      // correctness bug, not a measurement artifact.
      std::fprintf(stderr,
                   "bench: compute_threads=%d fit trace diverged from the "
                   "serial run\n",
                   threads);
      std::abort();
    }
    rows.push_back(row);
  }
  return rows;
}

/// "1,2,4" -> {1, 2, 4}. False (with the bad entry reported on stderr) on
/// any empty or non-integer entry — a usage error, not a crash.
bool ParseThreadList(const std::string& list, std::vector<int>* out) {
  out->clear();
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const std::string item =
        list.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    const Result<int64_t> value = ParseInt64(item);
    if (!value.ok() || *value < 1 || *value > 1024) {
      std::fprintf(stderr, "bench: bad --sweep-threads entry '%s'\n",
                   item.c_str());
      return false;
    }
    out->push_back(static_cast<int>(*value));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return true;
}

}  // namespace
}  // namespace tpcp

int main(int argc, char** argv) {
  using namespace tpcp;
  std::string json_path;
  std::map<std::string, std::string> flags;
  if (!bench::ParseBenchArgs(argc, argv, &json_path, &flags)) return 2;
  std::vector<int> sweep_threads = {1, 2, 4};
  bool sweep_only = false;
  for (const auto& [key, value] : flags) {
    if (key == "sweep-threads") {
      if (!ParseThreadList(value, &sweep_threads)) return 2;
    } else if (key == "sweep-only") {
      sweep_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=<path>] [--sweep-threads=1,2,4] "
                   "[--sweep-only]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!sweep_threads.empty() && sweep_threads.front() != 1) {
    std::fprintf(stderr, "--sweep-threads must start at 1 (the serial "
                         "baseline the sweep compares against)\n");
    return 2;
  }

  std::vector<Row> rows;
  if (!sweep_only) {
  std::printf(
      "Table I: execution times on dense tensors "
      "(density 0.2, rank 10, 2x2x2 for 2PCP; 1 HaTen2 iteration)\n");
  std::printf(
      "Scaled sides: paper 500/1000/1500 -> here 50/100/150 "
      "(DESIGN.md substitution #4)\n");
  bench::PrintRule();
  std::printf("%-28s %14s %14s %10s %10s\n", "Tensor size (paper label)",
              "2PCP (sec)", "HaTen2 (sec)", "2PCP fit", "HaTen2 fit");
  bench::PrintRule();

  const std::vector<std::pair<int64_t, int64_t>> sizes = {
      {50, 500}, {100, 1000}, {150, 1500}};
  for (const auto& [side, paper_side] : sizes) {
    rows.push_back(RunOne(side, paper_side));
    const Row& r = rows.back();
    char label[64];
    std::snprintf(label, sizeof(label), "%lldx%lldx%lld (%.3fB nnz)",
                  static_cast<long long>(paper_side),
                  static_cast<long long>(paper_side),
                  static_cast<long long>(paper_side),
                  r.nnz_billions_paper_scale);
    if (r.haten2_failed) {
      std::printf("%-28s %14.1f %14s %10.3f %10s\n", label, r.tpcp_seconds,
                  "FAILS", r.tpcp_fit, "-");
    } else {
      std::printf("%-28s %14.1f %14.1f %10.3f %10.4f\n", label,
                  r.tpcp_seconds, r.haten2_seconds, r.tpcp_fit, r.haten2_fit);
    }
  }
  bench::PrintRule();

  std::printf(
      "\nFigure 11: 2PCP execution time vs #non-zeros "
      "(series from the same runs)\n");
  std::printf("%-20s %16s\n", "#nnz (scaled run)", "2PCP time (sec)");
  for (const Row& r : rows) {
    const double nnz = 0.2 * static_cast<double>(r.side) *
                       static_cast<double>(r.side) *
                       static_cast<double>(r.side);
    std::printf("%-20s %16.1f\n", HumanCount(static_cast<uint64_t>(nnz)).c_str(),
                r.tpcp_seconds);
  }
  std::printf(
      "\nPaper reference: 92.9 / 441.5 / 1513.9 sec for 2PCP; 2380.2 / "
      "11764.9 / FAILS for HaTen2;\n2PCP fit 0.077 vs HaTen2 fit 0.0011 at "
      "the smallest size.\n");
  }  // !sweep_only

  // ---- Phase-2 compute-threads strong scaling -----------------------------
  std::vector<SweepRow> sweep;
  if (!sweep_threads.empty()) {
    std::printf(
        "\nPhase-2 compute scaling: 120^3, 4x4x4 grid, rank 48, MC "
        "schedule,\nprefetch depth 2 — identical factors/fit at every "
        "thread count (asserted)\n");
    bench::PrintRule();
    std::printf("%-16s %16s %10s %12s\n", "compute-threads", "phase2 (sec)",
                "speedup", "fit");
    bench::PrintRule();
    sweep = RunComputeSweep(sweep_threads);
    for (const SweepRow& s : sweep) {
      std::printf("%-16d %16.2f %9.2fx %12.4f\n", s.compute_threads,
                  s.phase2_seconds, s.speedup_vs_serial, s.fit);
    }
    bench::PrintRule();
    std::printf("compute-threads sweep: fit traces identical across %zu "
                "thread counts, speedup at %d threads %.2fx\n",
                sweep.size(), sweep.back().compute_threads,
                sweep.back().speedup_vs_serial);
  }

  if (!json_path.empty()) {
    JsonValue records = JsonValue::Array();
    for (const Row& r : rows) {
      records.Append(
          JsonValue::Object()
              .Set("side", r.side)
              .Set("nnz_billions_paper_scale", r.nnz_billions_paper_scale)
              .Set("tpcp_seconds", r.tpcp_seconds)
              .Set("tpcp_fit", r.tpcp_fit)
              .Set("haten2_failed", r.haten2_failed)
              .Set("haten2_seconds", r.haten2_seconds)
              .Set("haten2_fit", r.haten2_fit));
    }
    JsonValue sweep_records = JsonValue::Array();
    for (const SweepRow& s : sweep) {
      sweep_records.Append(
          JsonValue::Object()
              .Set("compute_threads", s.compute_threads)
              .Set("phase2_seconds", s.phase2_seconds)
              .Set("speedup_vs_serial", s.speedup_vs_serial)
              .Set("fit", s.fit)
              .Set("identical_to_serial", s.identical_to_serial));
    }
    bench::WriteJsonFile(
        json_path,
        JsonValue::Object()
            .Set("bench", "table1_strong_scaling")
            .Set("rows", records)
            .Set("compute_scaling", sweep_records));
  }
  return 0;
}
