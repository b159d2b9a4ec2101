// Ablation benches for the design choices DESIGN.md calls out:
//
//  A. Buffer-size sweep: swaps/iteration for each schedule+policy over a
//     fine grid of buffer fractions (where do the curves cross?).
//  B. Traversal locality: average unit-trace "working-set churn" of each
//     block order (why HO <= ZO <= FO <= MC).
//  C. Partition-count scaling: how the FOR-vs-LRU gap grows with K.
//  D. Four-mode tensors: the schedules generalize beyond N=3 (the paper's
//     Z-order/Hilbert machinery is N-dimensional).
//  E. Snake and random orders: a snake (boustrophedon) traversal is as
//     adjacent as Hilbert without the fractal structure; a random order
//     bounds the cost of ignoring locality entirely.
//  F. On-disk compression (Section VIII-C mentions compressed storage):
//     ratio and codec throughput on factor payloads.
//  G. Conflict-aware reordering parity: the execution planner's reordered
//     FO/ZO/HO cycles must never exceed the source order's swap count
//     (the planner's certification gate, re-verified here independently);
//     rows land in the BENCH json with --json=<path>.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/swap_simulator.h"
#include "schedule/planner.h"
#include "storage/compressed_env.h"
#include "storage/serializer.h"
#include "util/random.h"
#include "schedule/update_schedule.h"
#include "util/format.h"

namespace tpcp {
namespace {

double Simulate(const GridPartition& grid, double fraction,
                ScheduleType schedule, PolicyType policy) {
  SwapSimConfig config;
  config.grid = grid;
  config.rank = 8;
  config.schedule = schedule;
  config.policy = policy;
  config.buffer_fraction = fraction;
  config.measure_virtual_iterations = 50;
  return SimulateSwaps(config).swaps_per_virtual_iteration;
}

void BufferSweep() {
  std::printf("\n[A] Buffer-size sweep (8x8x8 partitions, swaps per "
              "virtual iteration)\n");
  bench::PrintRule(76);
  std::printf("%-8s", "Buffer");
  for (ScheduleType s : {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
                         ScheduleType::kZOrder, ScheduleType::kHilbertOrder}) {
    std::printf(" %7s-LRU %7s-FOR", ScheduleTypeName(s), ScheduleTypeName(s));
  }
  std::printf("\n");
  bench::PrintRule(76);
  const GridPartition grid = GridPartition::Uniform(Shape({64, 64, 64}), 8);
  for (double fraction : {0.15, 0.25, 1.0 / 3.0, 0.45, 0.5, 0.6, 2.0 / 3.0,
                          0.8, 0.95}) {
    std::printf("%-8s", Fixed(fraction, 2).c_str());
    for (ScheduleType s :
         {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
          ScheduleType::kZOrder, ScheduleType::kHilbertOrder}) {
      std::printf(" %11.2f %11.2f", Simulate(grid, fraction, s, PolicyType::kLru),
                  Simulate(grid, fraction, s, PolicyType::kForward));
    }
    std::printf("\n");
  }
}

// Mean number of distinct data units touched per virtual-iteration window
// — the locality property Desideratum 1 asks for (lower = more reuse).
double UnitChurn(const UpdateSchedule& schedule) {
  const auto& cycle = schedule.cycle();
  const size_t window =
      static_cast<size_t>(schedule.virtual_iteration_length());
  size_t windows = 0;
  size_t distinct_total = 0;
  for (size_t start = 0; start + window <= cycle.size(); start += window) {
    std::set<std::pair<int, int64_t>> units;
    for (size_t i = start; i < start + window; ++i) {
      units.insert({cycle[i].unit().mode, cycle[i].unit().part});
    }
    distinct_total += units.size();
    ++windows;
  }
  return windows == 0 ? 0.0
                      : static_cast<double>(distinct_total) /
                            static_cast<double>(windows);
}

// Mean Manhattan distance between consecutive blocks of the traversal.
double BlockTravel(const UpdateSchedule& schedule) {
  const auto& order = schedule.block_order();
  if (order.size() < 2) return 0.0;
  int64_t total = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    for (size_t m = 0; m < order[i].size(); ++m) {
      total += std::abs(order[i][m] - order[i - 1][m]);
    }
  }
  return static_cast<double>(total) / static_cast<double>(order.size() - 1);
}

void Locality() {
  std::printf("\n[B] Traversal locality (8x8x8): mean block-step distance "
              "and unique-unit churn\n");
  bench::PrintRule(60);
  std::printf("%-10s %22s %18s\n", "Schedule", "mean block distance",
              "distinct units/VI");
  bench::PrintRule(60);
  const GridPartition grid = GridPartition::Uniform(Shape({64, 64, 64}), 8);
  for (ScheduleType s : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                         ScheduleType::kHilbertOrder, ScheduleType::kSnakeOrder,
                         ScheduleType::kRandomOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(s, grid);
    std::printf("%-10s %22.3f %18.3f\n", ScheduleTypeName(s),
                BlockTravel(schedule), UnitChurn(schedule));
  }
  const UpdateSchedule mc =
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid);
  std::printf("%-10s %22s %18.3f\n", "MC", "n/a (mode sweep)", UnitChurn(mc));
}

void PartitionScaling() {
  std::printf("\n[C] FOR-vs-LRU gap as partitions grow (HO schedule, 1/3 "
              "buffer)\n");
  bench::PrintRule(60);
  std::printf("%-12s %10s %10s %12s\n", "Partitions", "LRU", "FOR",
              "FOR saving");
  bench::PrintRule(60);
  for (int64_t parts : {2, 4, 8, 16}) {
    const GridPartition grid =
        GridPartition::Uniform(Shape({64, 64, 64}), parts);
    const double lru =
        Simulate(grid, 1.0 / 3.0, ScheduleType::kHilbertOrder,
                 PolicyType::kLru);
    const double fwd =
        Simulate(grid, 1.0 / 3.0, ScheduleType::kHilbertOrder,
                 PolicyType::kForward);
    std::printf("%lldx%lldx%lld %13.2f %10.2f %11.1f%%\n",
                static_cast<long long>(parts), static_cast<long long>(parts),
                static_cast<long long>(parts), lru, fwd,
                lru > 0 ? 100.0 * (lru - fwd) / lru : 0.0);
  }
}

void FourModes() {
  std::printf("\n[D] Four-mode tensor (4x4x4x4 partitions, 1/2 buffer): "
              "swaps per virtual iteration\n");
  bench::PrintRule(60);
  std::printf("%-10s %10s %10s %10s\n", "Schedule", "LRU", "MRU", "FOR");
  bench::PrintRule(60);
  const GridPartition grid =
      GridPartition::Uniform(Shape({32, 32, 32, 32}), 4);
  for (ScheduleType s : {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
                         ScheduleType::kZOrder, ScheduleType::kHilbertOrder}) {
    std::printf("%-10s %10.2f %10.2f %10.2f\n", ScheduleTypeName(s),
                Simulate(grid, 0.5, s, PolicyType::kLru),
                Simulate(grid, 0.5, s, PolicyType::kMru),
                Simulate(grid, 0.5, s, PolicyType::kForward));
  }
}

void SnakeAndRandom() {
  std::printf("\n[E] Snake and random block orders (8x8x8, swaps per "
              "virtual iteration)\n");
  bench::PrintRule(60);
  std::printf("%-8s %10s %10s %10s %10s\n", "Buffer", "SN-LRU", "SN-FOR",
              "RND-LRU", "RND-FOR");
  bench::PrintRule(60);
  const GridPartition grid = GridPartition::Uniform(Shape({64, 64, 64}), 8);
  for (double fraction : {1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0}) {
    std::printf("%-8s %10.2f %10.2f %10.2f %10.2f\n",
                Fixed(fraction, 2).c_str(),
                Simulate(grid, fraction, ScheduleType::kSnakeOrder,
                         PolicyType::kLru),
                Simulate(grid, fraction, ScheduleType::kSnakeOrder,
                         PolicyType::kForward),
                Simulate(grid, fraction, ScheduleType::kRandomOrder,
                         PolicyType::kLru),
                Simulate(grid, fraction, ScheduleType::kRandomOrder,
                         PolicyType::kForward));
  }
}

void Compression() {
  std::printf("\n[F] On-disk compression of factor payloads "
              "(Gorilla-style XOR codec)\n");
  bench::PrintRule(70);
  std::printf("%-28s %14s %12s %12s\n", "payload", "logical", "stored",
              "ratio");
  bench::PrintRule(70);
  auto mem = NewMemEnv();
  struct Case {
    const char* name;
    Matrix m;
  };
  Rng rng(1);
  Matrix smooth(4096, 16);
  for (int64_t r = 0; r < smooth.rows(); ++r) {
    for (int64_t c = 0; c < smooth.cols(); ++c) {
      smooth(r, c) = 5.0 + 1e-3 * static_cast<double>(r) +
                     1e-2 * static_cast<double>(c);
    }
  }
  Matrix noisy(4096, 16);
  for (int64_t i = 0; i < noisy.size(); ++i) {
    noisy.data()[i] = rng.NextGaussian();
  }
  Matrix sparse(4096, 16);
  for (int64_t i = 0; i < sparse.size(); i += 37) {
    sparse.data()[i] = rng.NextGaussian();
  }
  const Case cases[] = {{"smooth factor matrix", smooth},
                        {"gaussian noise matrix", noisy},
                        {"mostly-zero (sparse block)", sparse}};
  for (const Case& c : cases) {
    CompressedEnv env(mem.get());
    bench::CheckOk(WriteMatrix(&env, "m", c.m), "write");
    std::printf("%-28s %14s %12s %11.2fx\n", c.name,
                HumanBytes(env.logical_bytes_written()).c_str(),
                HumanBytes(env.stored_bytes_written()).c_str(),
                env.CompressionRatio());
  }
}

// [G] The swap-parity check for the execution planner's conflict-aware
// reordering. For each block-centric schedule and buffer fraction, build
// the plan with reordering on and *independently* re-simulate both the
// source and the executed order; abort the bench if the executed order
// ever swaps more — that would mean the certification gate leaked a
// parity violation into a plan. Emits one BENCH json row per cell.
void ReorderParity(JsonValue* json_rows) {
  std::printf("\n[G] Conflict-aware reordering: swap parity and widened "
              "waves (8x8x8, FOR policy)\n");
  bench::PrintRule(78);
  std::printf("%-6s %-8s %9s %12s %12s %8s %8s\n", "Sched", "Buffer",
              "reorder", "swaps/vi-src", "swaps/vi-plan", "width",
              "window");
  bench::PrintRule(78);
  const GridPartition grid = GridPartition::Uniform(Shape({64, 64, 64}), 8);
  UnitCatalog catalog(grid, 8);
  bool all_parity_ok = true;
  for (ScheduleType type : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                            ScheduleType::kHilbertOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    for (double fraction : {1.0 / 3.0, 0.5, 2.0 / 3.0}) {
      PlannerOptions options;
      options.rank = 8;
      options.policy = PolicyType::kForward;
      options.buffer_bytes = std::max(
          static_cast<uint64_t>(fraction *
                                static_cast<double>(catalog.TotalBytes())),
          catalog.MaxUnitBytes());
      options.reorder = true;
      const ExecutionPlan plan = Planner::Build(schedule, options);
      // Independent re-verification, cycle-aligned (see
      // SimulateSteadyStateSwapsPerVi) and over a longer window than the
      // planner's own certification.
      const double src = SimulateSteadyStateSwapsPerVi(
          schedule, options.rank, options.policy, options.buffer_bytes, 2,
          4);
      const double planned = SimulateSteadyStateSwapsPerVi(
          plan.schedule(), options.rank, options.policy,
          options.buffer_bytes, 2, 4);
      if (planned > src + 1e-9) {
        all_parity_ok = false;
        std::fprintf(stderr,
                     "bench: SWAP PARITY VIOLATED for %s at %.2f: "
                     "%.2f -> %.2f\n",
                     ScheduleTypeName(type), fraction, src, planned);
      }
      std::printf("%-6s %-8s %9s %12.2f %12.2f %8lld %8lld\n",
                  ScheduleTypeName(type), Fixed(fraction, 2).c_str(),
                  plan.stats().reorder_applied ? "yes" : "rejected", src,
                  planned,
                  static_cast<long long>(plan.max_wave_width()),
                  static_cast<long long>(plan.stats().reorder_window));
      if (json_rows != nullptr) {
        JsonValue row = JsonValue::Object();
        row.Set("section", "reorder_parity")
            .Set("schedule", ScheduleTypeName(type))
            .Set("buffer_fraction", fraction)
            .Set("reorder_applied", plan.stats().reorder_applied)
            .Set("reorder_window", plan.stats().reorder_window)
            .Set("swaps_per_vi_source", src)
            .Set("swaps_per_vi_planned", planned)
            .Set("max_wave_width", plan.max_wave_width())
            .Set("parity_ok", planned <= src + 1e-9);
        json_rows->Append(row);
      }
    }
  }
  if (!all_parity_ok) std::abort();
  // The grep-able assertion line CI keys on.
  std::printf("reorder parity: OK (reordered cycles never exceed the "
              "source swap count)\n");
}

}  // namespace
}  // namespace tpcp

int main(int argc, char** argv) {
  std::string json_path;
  if (!tpcp::bench::ParseBenchArgs(argc, argv, &json_path)) return 2;
  std::printf("Ablation benches over the 2PCP design choices\n");
  tpcp::BufferSweep();
  tpcp::Locality();
  tpcp::PartitionScaling();
  tpcp::FourModes();
  tpcp::SnakeAndRandom();
  tpcp::Compression();
  tpcp::JsonValue json_rows = tpcp::JsonValue::Array();
  tpcp::ReorderParity(json_path.empty() ? nullptr : &json_rows);
  if (!json_path.empty()) {
    tpcp::JsonValue root = tpcp::JsonValue::Object();
    root.Set("bench", "ablation_schedules");
    root.Set("reorder_parity", json_rows);
    tpcp::bench::WriteJsonFile(json_path, root);
  }
  return 0;
}
