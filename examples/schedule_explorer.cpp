// Schedule explorer: interactive tour of the I/O behaviour of 2PCP's
// update schedules and buffer replacement policies.
//
//   build/examples/schedule_explorer [parts-per-mode] [buffer-fraction]
//
// e.g. `schedule_explorer 8 0.33` prints, for an 8x8x8 partitioning with a
// buffer of 1/3 of the refinement state: the block traversal of each
// schedule, the exact per-virtual-iteration swap counts of every
// schedule x policy combination, the projected data-exchange volume for a
// large tensor, and — closing the loop — a real Session-API decomposition
// whose measured swap rate must match the simulator's prediction.

#include <cstdio>
#include <string>

#include "api/session.h"
#include "core/cost_model.h"
#include "core/swap_simulator.h"
#include "data/synthetic.h"
#include "util/format.h"
#include "util/parse.h"

using namespace tpcp;

namespace {

void PrintTraversalPreview(ScheduleType type, const GridPartition& grid) {
  const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
  std::printf("%-3s: ", ScheduleTypeName(type));
  if (type == ScheduleType::kModeCentric) {
    std::printf("sweeps modes, not blocks — %lld unit updates per cycle\n",
                static_cast<long long>(schedule.cycle_length()));
    return;
  }
  const auto& order = schedule.block_order();
  const size_t preview = std::min<size_t>(order.size(), 8);
  for (size_t i = 0; i < preview; ++i) {
    std::printf("(");
    for (size_t m = 0; m < order[i].size(); ++m) {
      std::printf("%lld%s", static_cast<long long>(order[i][m]),
                  m + 1 < order[i].size() ? "," : "");
    }
    std::printf(") ");
  }
  if (order.size() > preview) std::printf("...");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto parts_arg = argc > 1 ? ParseInt64(argv[1]) : Result<int64_t>(4);
  const auto fraction_arg =
      argc > 2 ? ParseDouble(argv[2]) : Result<double>(1.0 / 3.0);
  if (!parts_arg.ok() || !fraction_arg.ok() || *parts_arg < 2 ||
      *parts_arg > 32 || *fraction_arg <= 0.0 || *fraction_arg > 1.0) {
    std::fprintf(stderr,
                 "usage: %s [parts-per-mode 2..32] [buffer-fraction 0..1]\n",
                 argv[0]);
    return 1;
  }
  const int64_t parts = *parts_arg;
  const double fraction = *fraction_arg;

  const GridPartition grid =
      GridPartition::Uniform(Shape({64, 64, 64}), parts);
  std::printf("grid: %s | buffer: %.3f of total requirement\n\n",
              grid.ToString().c_str(), fraction);

  std::printf("block traversal orders (first 8 blocks):\n");
  for (ScheduleType type :
       {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
        ScheduleType::kZOrder, ScheduleType::kHilbertOrder}) {
    PrintTraversalPreview(type, grid);
  }

  std::printf("\nper-virtual-iteration swaps (100 measured iterations):\n");
  std::printf("%-6s %10s %10s %10s\n", "sched", "LRU", "MRU", "FOR");
  for (ScheduleType type :
       {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
        ScheduleType::kZOrder, ScheduleType::kHilbertOrder}) {
    std::printf("%-6s", ScheduleTypeName(type));
    for (PolicyType policy :
         {PolicyType::kLru, PolicyType::kMru, PolicyType::kForward}) {
      SwapSimConfig config;
      config.grid = grid;
      config.rank = 8;
      config.schedule = type;
      config.policy = policy;
      config.buffer_fraction = fraction;
      std::printf(" %10.2f",
                  SimulateSwaps(config).swaps_per_virtual_iteration);
    }
    std::printf("\n");
  }

  // Project the winning configuration onto a big tensor.
  SwapSimConfig best;
  best.grid = grid;
  best.rank = 8;
  best.schedule = ScheduleType::kHilbertOrder;
  best.policy = PolicyType::kForward;
  best.buffer_fraction = fraction;
  const double swaps = SimulateSwaps(best).swaps_per_virtual_iteration;

  const GridPartition big =
      GridPartition::Uniform(Shape({100000, 100000, 100000}), parts);
  CostModel model(big, 100);
  std::printf(
      "\nprojection to a 100K^3 tensor at rank 100 (%s refinement state):\n",
      HumanBytes(model.TotalRefinementBytes()).c_str());
  std::printf("  HO+FOR: %.2f swaps/iter  ->  %s exchanged per iteration\n",
              swaps, HumanBytes(model.ExchangeBytesPerIteration(swaps)).c_str());
  std::printf("  naive:  %lld swaps/iter  ->  %s exchanged per iteration\n",
              static_cast<long long>(model.NaiveSwapsPerIteration()),
              HumanBytes(model.ExchangeBytesPerIteration(
                             static_cast<double>(model.NaiveSwapsPerIteration())))
                  .c_str());

  // Close the loop: run a real (small) decomposition through the Session
  // API with the winning configuration and compare the measured swap rate
  // against the simulation. The counts are data-independent, so simulated
  // and measured rates agree whenever both run the same configuration.
  auto session = Session::Open({"mem://"});
  if (!session.ok()) {
    std::fprintf(stderr, "open: %s\n", session.status().ToString().c_str());
    return 1;
  }
  auto small = GridPartition::CreateUniform(Shape({32, 32, 32}),
                                            parts <= 8 ? parts : 8);
  if (!small.ok()) {
    std::fprintf(stderr, "grid: %s\n", small.status().ToString().c_str());
    return 1;
  }
  auto store = (*session)->CreateTensorStore(*small);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return 1;
  }
  LowRankSpec spec;
  spec.shape = small->tensor_shape();
  spec.rank = 4;
  spec.noise_level = 0.05;
  spec.seed = 3;
  if (Status s = GenerateLowRankIntoStore(spec, *store); !s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  }
  TwoPhaseCpOptions options;
  options.rank = 4;
  options.schedule = ScheduleType::kHilbertOrder;
  options.policy = PolicyType::kForward;
  options.buffer_fraction = fraction;
  options.max_virtual_iterations = 20;
  options.fit_tolerance = -1.0;  // fixed work for a stable measured rate
  // The simulator below replays the native HO cycle, so pin the source
  // order (block-centric schedules otherwise reorder by default).
  options.plan_reorder = false;
  auto result = (*session)->Decompose("2pcp", options);
  if (!result.ok()) {
    std::fprintf(stderr, "decompose: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  SwapSimConfig measured_config;
  measured_config.grid = *small;
  measured_config.rank = 4;
  measured_config.schedule = ScheduleType::kHilbertOrder;
  measured_config.policy = PolicyType::kForward;
  measured_config.buffer_fraction = fraction;
  measured_config.measure_virtual_iterations =
      result->virtual_iterations;
  std::printf(
      "\nmeasured vs simulated (HO+FOR, %lld^3 parts on a 32^3 tensor, "
      "%d virtual iterations):\n",
      static_cast<long long>(small->parts(0)), result->virtual_iterations);
  std::printf("  measured:  %.2f swaps/iter (surrogate fit %.4f)\n",
              result->swaps_per_virtual_iteration, result->surrogate_fit);
  std::printf("  simulated: %.2f swaps/iter\n",
              SimulateSwaps(measured_config).swaps_per_virtual_iteration);
  return 0;
}
