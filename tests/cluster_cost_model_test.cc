// The network-aware cluster cost model behind `tpcp_tool plan --workers`
// and the dist executor's accounting contract:
//
//   * DistributedPlan's weighted ownership map is a disjoint, exhaustive
//     partition of the data units that balances per-cycle step work even
//     on skewed grids (heaviest unit first onto the least-loaded worker),
//     and its per-step exchange bytes follow the metadata-image formula
//     rank²·8·(1 + slab blocks) exactly,
//   * TrafficForRange / PersistBytesForRange do the arithmetic the
//     coordinator's measured counters are later compared against, checked
//     here on hand-built 2- and 3-worker plans,
//   * the link model prices transfers as messages·latency + bytes/bw,
//   * SimulateCluster's per-vi figures are the cycle totals rescaled, and
//     SimulateClusterOverlap's wall-clock is the sum of its barrier waves.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "buffer/data_unit.h"
#include "core/cost_model.h"
#include "schedule/planner.h"

namespace tpcp {
namespace {

constexpr int64_t kRank = 4;

ExecutionPlan BuildPlan(const GridPartition& grid, ScheduleType type) {
  PlannerOptions options;
  options.rank = kRank;
  options.certify = false;  // structure only; no swap replay needed here
  return Planner::Build(UpdateSchedule::Create(type, grid), options);
}

// ---- ownership and per-step bytes ------------------------------------------

TEST(DistributedPlanTest, OwnershipIsADisjointExhaustivePartition) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  for (const int workers : {1, 2, 3, 4, 5}) {
    const DistributedPlan dplan(&plan, kRank, workers);
    const UnitCatalog catalog(grid, kRank);
    std::map<int, std::set<ModePartition>> owned;
    for (const ModePartition& unit : catalog.AllUnits()) {
      const int owner = dplan.OwnerOf(unit);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, workers);
      owned[owner].insert(unit);
    }
    size_t total = 0;
    for (const auto& [worker, units] : owned) total += units.size();
    // Disjoint by construction (each unit maps to exactly one owner);
    // exhaustive because every unit landed somewhere.
    EXPECT_EQ(total, catalog.AllUnits().size());
    // Equal-weight units deal out round-robin-like: every worker owns
    // units of every mode when there are at least as many partitions as
    // workers.
    if (workers <= 4) {
      for (int w = 0; w < workers; ++w) {
        std::set<int> modes;
        for (const ModePartition& unit : owned[w]) modes.insert(unit.mode);
        EXPECT_EQ(modes.size(), 3u) << "worker " << w << " of " << workers;
      }
    }
    // OwnerAt is OwnerOf of the step's unit.
    for (int64_t pos = 0; pos < plan.cycle_length(); ++pos) {
      EXPECT_EQ(dplan.OwnerAt(pos), dplan.OwnerOf(plan.UnitAt(pos)));
    }
  }
}

TEST(DistributedPlanTest, StepBytesFollowTheMetadataImageFormula) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kFiberOrder);
  const DistributedPlan dplan(&plan, kRank, 2);
  const UnitCatalog catalog(grid, kRank);
  const uint64_t gram = kRank * kRank * sizeof(double);
  for (int64_t pos = 0; pos < plan.cycle_length(); ++pos) {
    const int mode = plan.StepAt(pos).mode;
    // One Gram matrix plus one M per slab block, all F×F.
    EXPECT_EQ(dplan.StepExchangeBytes(pos),
              gram * (1 + static_cast<uint64_t>(catalog.SlabBlocks(mode))))
        << "pos " << pos;
    // Cycle-periodic.
    EXPECT_EQ(dplan.StepExchangeBytes(pos + plan.cycle_length()),
              dplan.StepExchangeBytes(pos));
  }
}

// ---- traffic accounting ----------------------------------------------------

TEST(DistributedPlanTest, TwoWorkerTrafficAccountsEveryStepExactlyOnce) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  const DistributedPlan dplan(&plan, kRank, 2);
  const int64_t cycle = plan.cycle_length();

  uint64_t all_step_bytes = 0;
  for (int64_t pos = 0; pos < cycle; ++pos) {
    all_step_bytes += dplan.StepExchangeBytes(pos);
  }

  WorkerTraffic total;
  for (int w = 0; w < 2; ++w) {
    const WorkerTraffic traffic = dplan.TrafficForRange(w, 0, cycle);
    // Every step is either an upload (owned) or a download (not owned).
    EXPECT_EQ(traffic.up_messages + traffic.down_messages, cycle);
    EXPECT_EQ(traffic.up_bytes + traffic.down_bytes, all_step_bytes);
    total += traffic;
  }
  // Across 2 workers each step uploads once and downloads once.
  EXPECT_EQ(total.up_messages, cycle);
  EXPECT_EQ(total.down_messages, cycle);
  EXPECT_EQ(total.up_bytes, all_step_bytes);
  EXPECT_EQ(total.down_bytes, all_step_bytes);

  // Uniform 4-part grid, 2 workers: each owns 2 of 4 partitions per mode,
  // so per-cycle upload volume splits evenly.
  EXPECT_EQ(dplan.TrafficForRange(0, 0, cycle).up_bytes,
            dplan.TrafficForRange(1, 0, cycle).up_bytes);

  // Sub-ranges compose: [0,k) + [k,cycle) == [0,cycle).
  const int64_t k = cycle / 3;
  WorkerTraffic split = dplan.TrafficForRange(0, 0, k);
  split += dplan.TrafficForRange(0, k, cycle);
  const WorkerTraffic whole = dplan.TrafficForRange(0, 0, cycle);
  EXPECT_EQ(split.up_bytes, whole.up_bytes);
  EXPECT_EQ(split.down_bytes, whole.down_bytes);
  EXPECT_EQ(split.up_messages, whole.up_messages);
  EXPECT_EQ(split.down_messages, whole.down_messages);
}

TEST(DistributedPlanTest, ThreeWorkerTrafficMatchesHandCounts) {
  // 12 equal-weight units over 3 workers: the weighted map deals them
  // 4/4/4 (part % 3 would have left worker 0 with 6 of 12).
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  const DistributedPlan dplan(&plan, kRank, 3);
  const int64_t cycle = plan.cycle_length();

  // Hand count per worker: walk the cycle once with the published
  // ownership map (OwnerOf) and the byte formula, independently of
  // TrafficForRange's own loop — this pins the *accounting*, not the map.
  const UnitCatalog catalog(grid, kRank);
  const uint64_t gram = kRank * kRank * sizeof(double);
  std::vector<WorkerTraffic> expected(3);
  for (int64_t pos = 0; pos < cycle; ++pos) {
    const ModePartition unit = plan.UnitAt(pos);
    const uint64_t bytes =
        gram * (1 + static_cast<uint64_t>(catalog.SlabBlocks(unit.mode)));
    for (int w = 0; w < 3; ++w) {
      if (dplan.OwnerOf(unit) == w) {
        expected[w].up_bytes += bytes;
        ++expected[w].up_messages;
      } else {
        expected[w].down_bytes += bytes;
        ++expected[w].down_messages;
      }
    }
  }
  for (int w = 0; w < 3; ++w) {
    const WorkerTraffic traffic = dplan.TrafficForRange(w, 0, cycle);
    EXPECT_EQ(traffic.up_bytes, expected[w].up_bytes) << "worker " << w;
    EXPECT_EQ(traffic.down_bytes, expected[w].down_bytes) << "worker " << w;
    EXPECT_EQ(traffic.up_messages, expected[w].up_messages) << "worker " << w;
    EXPECT_EQ(traffic.down_messages, expected[w].down_messages)
        << "worker " << w;
  }
  // Equal-weight units balance perfectly even though 3 does not divide 4
  // per mode: every worker uploads the same volume.
  EXPECT_EQ(dplan.TrafficForRange(0, 0, cycle).up_bytes,
            dplan.TrafficForRange(1, 0, cycle).up_bytes);
  EXPECT_EQ(dplan.TrafficForRange(1, 0, cycle).up_bytes,
            dplan.TrafficForRange(2, 0, cycle).up_bytes);
}

TEST(DistributedPlanTest, WeightedOwnershipBalancesSkewedGrids) {
  // Deliberately skewed store: mode 0 is one giant unit, modes 1 and 2
  // are split four ways. part % N would dump every mode-0 step *and*
  // every part-0 step onto worker 0.
  auto grid =
      GridPartition::Create(Shape({40, 24, 24}), {1, 4, 4});
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  const ExecutionPlan plan = BuildPlan(*grid, ScheduleType::kModeCentric);
  const UnitCatalog catalog(*grid, kRank);

  for (const int workers : {2, 3}) {
    const DistributedPlan dplan(&plan, kRank, workers);

    // Disjoint and exhaustive on the skewed catalog.
    std::vector<uint64_t> weighted_load(static_cast<size_t>(workers), 0);
    std::vector<uint64_t> modulo_load(static_cast<size_t>(workers), 0);
    size_t assigned = 0;
    std::vector<int64_t> occurrences_by_unit;
    for (const ModePartition& unit : catalog.AllUnits()) {
      const int owner = dplan.OwnerOf(unit);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, workers);
      ++assigned;
      // Per-cycle step weight of this unit, counted from the plan.
      uint64_t weight = 0;
      for (int64_t pos = 0; pos < plan.cycle_length(); ++pos) {
        if (plan.UnitAt(pos) == unit) {
          weight += catalog.UnitBytes(unit);
        }
      }
      weighted_load[static_cast<size_t>(owner)] += weight;
      modulo_load[static_cast<size_t>(unit.part % workers)] += weight;
    }
    EXPECT_EQ(assigned, catalog.AllUnits().size());

    // The balance criterion the planner optimizes: max/mean load ratio no
    // worse than part % N's on the skewed store (strictly better when the
    // skew is this extreme).
    const auto ratio = [](const std::vector<uint64_t>& load) {
      uint64_t max = 0, sum = 0;
      for (uint64_t l : load) {
        max = std::max(max, l);
        sum += l;
      }
      return static_cast<double>(max) * static_cast<double>(load.size()) /
             static_cast<double>(sum);
    };
    EXPECT_LT(ratio(weighted_load), ratio(modulo_load))
        << workers << " workers";
  }
}

TEST(DistributedPlanTest, OwnershipFingerprintPinsFleetAndWeights) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  const DistributedPlan two_a(&plan, kRank, 2);
  const DistributedPlan two_b(&plan, kRank, 2);
  const DistributedPlan three(&plan, kRank, 3);
  // Deterministic (the resume contract), never the 0 "not recorded"
  // sentinel, and sensitive to fleet size.
  EXPECT_NE(two_a.ownership_fingerprint(), 0u);
  EXPECT_EQ(two_a.ownership_fingerprint(), two_b.ownership_fingerprint());
  EXPECT_NE(two_a.ownership_fingerprint(), three.ownership_fingerprint());
  // And to the unit weights: a skewed grid with the same fleet size maps
  // differently.
  auto skewed = GridPartition::Create(Shape({40, 24, 24}), {1, 4, 4});
  ASSERT_TRUE(skewed.ok());
  const ExecutionPlan skewed_plan =
      BuildPlan(*skewed, ScheduleType::kModeCentric);
  const DistributedPlan skewed_two(&skewed_plan, kRank, 2);
  EXPECT_NE(skewed_two.ownership_fingerprint(),
            two_a.ownership_fingerprint());
}

TEST(DistributedPlanTest, PersistBytesCountEachOwnedUpdatedUnitOnce) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  const UnitCatalog catalog(grid, kRank);
  for (const int workers : {2, 3}) {
    const DistributedPlan dplan(&plan, kRank, workers);
    const int64_t cycle = plan.cycle_length();
    // A full cycle updates every unit: the persist volume is each owned
    // unit's A sub-factor, once, regardless of how many steps touched it.
    uint64_t total = 0;
    for (int w = 0; w < workers; ++w) {
      uint64_t expected = 0;
      for (const ModePartition& unit : catalog.AllUnits()) {
        if (dplan.OwnerOf(unit) == w) expected += catalog.FactorBytes(unit);
      }
      EXPECT_EQ(dplan.PersistBytesForRange(w, 0, cycle), expected)
          << workers << " workers, worker " << w;
      total += expected;
    }
    // Across all workers: every A sub-factor exactly once.
    uint64_t all_factors = 0;
    for (const ModePartition& unit : catalog.AllUnits()) {
      all_factors += catalog.FactorBytes(unit);
    }
    EXPECT_EQ(total, all_factors);

    // A window longer than a cycle adds nothing (no unit updates twice
    // without persisting in between)...
    EXPECT_EQ(dplan.PersistBytesForRange(0, 0, 3 * cycle),
              dplan.PersistBytesForRange(0, 0, cycle));
    // ...and a partial window counts only units actually updated in it.
    const int64_t short_end = cycle / 4;
    std::set<ModePartition> touched;
    for (int64_t pos = 0; pos < short_end; ++pos) {
      const ModePartition unit = plan.UnitAt(pos);
      if (dplan.OwnerOf(unit) == 0) touched.insert(unit);
    }
    uint64_t partial = 0;
    for (const ModePartition& unit : touched) {
      partial += catalog.FactorBytes(unit);
    }
    EXPECT_EQ(dplan.PersistBytesForRange(0, 0, short_end), partial);
  }
}

// ---- link pricing and the simulator ----------------------------------------

TEST(ClusterLinkTest, PricesLatencyPlusBandwidth) {
  ClusterLink link;
  link.latency_seconds = 1e-3;
  link.bandwidth_bytes_per_second = 1e6;
  // 10 messages of 1e6 bytes total: 10 ms latency + 1 s of wire time.
  EXPECT_DOUBLE_EQ(link.TransferSeconds(1000000, 10), 0.010 + 1.0);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0, 0), 0.0);
  // Pure-latency and pure-bandwidth components are independent.
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0, 7), 7e-3);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(500000, 0), 0.5);
}

TEST(SimulateClusterTest, PerViFiguresAreCycleTotalsRescaled) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const ExecutionPlan plan = BuildPlan(grid, ScheduleType::kModeCentric);
  const DistributedPlan dplan(&plan, kRank, 2);
  const UnitCatalog catalog(grid, kRank);

  ClusterSimConfig config;
  config.num_workers = 2;
  config.buffer_bytes = catalog.TotalBytes();  // everything fits: no swaps
  const std::vector<ClusterWorkerCost> costs =
      SimulateCluster(dplan, kRank, config);
  ASSERT_EQ(costs.size(), 2u);

  const double scale =
      static_cast<double>(plan.virtual_iteration_length()) /
      static_cast<double>(plan.cycle_length());
  for (int w = 0; w < 2; ++w) {
    const ClusterWorkerCost& cost = costs[static_cast<size_t>(w)];
    EXPECT_EQ(cost.worker, w);
    const WorkerTraffic traffic =
        dplan.TrafficForRange(w, 0, plan.cycle_length());
    EXPECT_DOUBLE_EQ(cost.xchg_up_bytes_per_vi,
                     static_cast<double>(traffic.up_bytes) * scale);
    EXPECT_DOUBLE_EQ(cost.xchg_down_bytes_per_vi,
                     static_cast<double>(traffic.down_bytes) * scale);
    EXPECT_DOUBLE_EQ(
        cost.messages_per_vi,
        static_cast<double>(traffic.up_messages + traffic.down_messages) *
            scale);
    // Everything resident: the ownership-filtered replay swaps nothing.
    EXPECT_DOUBLE_EQ(cost.swaps_per_vi, 0.0);
    EXPECT_GT(cost.persist_bytes_per_vi, 0.0);
    EXPECT_GT(cost.transfer_seconds_per_vi, 0.0);
    // The line the plan subcommand greps for.
    EXPECT_NE(cost.ToString().find("cluster: worker"), std::string::npos);
  }

  // Halving the bandwidth strictly raises the transfer price, all else
  // equal — the knob `plan --link-bandwidth-mbps` turns.
  ClusterSimConfig slow = config;
  slow.link.bandwidth_bytes_per_second /= 2.0;
  const std::vector<ClusterWorkerCost> slow_costs =
      SimulateCluster(dplan, kRank, slow);
  for (int w = 0; w < 2; ++w) {
    EXPECT_GT(slow_costs[static_cast<size_t>(w)].transfer_seconds_per_vi,
              costs[static_cast<size_t>(w)].transfer_seconds_per_vi);
  }
}

TEST(SimulateClusterTest, WallClockIsTheBarrierSumOfWaves) {
  // Everything resident, so each owned step costs exactly seconds_per_step.
  // The link price is linear, so the per-wave relays sum to the price of
  // the whole span's ledger; the compute term is each wave's busiest owner.
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const UnitCatalog catalog(grid, kRank);
  ClusterSimConfig config;
  config.num_workers = 2;
  config.buffer_bytes = catalog.TotalBytes();
  config.link.bandwidth_bytes_per_second = 1e6;

  for (const ScheduleType type :
       {ScheduleType::kFiberOrder, ScheduleType::kModeCentric}) {
    SCOPED_TRACE(ScheduleTypeName(type));
    const ExecutionPlan plan = BuildPlan(grid, type);
    const DistributedPlan dplan(&plan, kRank, 2);
    const int64_t vi_len = plan.virtual_iteration_length();
    const int64_t vis = (plan.cycle_length() + vi_len - 1) / vi_len;
    const int64_t span = vis * vi_len;

    int64_t busiest_steps = 0;
    for (int64_t pos = 0; pos < span;) {
      const int64_t end =
          std::min(plan.WaveEndAfter(pos), (pos / vi_len + 1) * vi_len);
      int64_t owned[2] = {0, 0};
      for (int64_t p = pos; p < end; ++p) ++owned[dplan.OwnerAt(p)];
      busiest_steps += std::max(owned[0], owned[1]);
      pos = end;
    }
    uint64_t relay_bytes = 0;
    int64_t relay_msgs = 0;
    uint64_t persist_bytes = 0;
    for (int v = 0; v < 2; ++v) {
      const WorkerTraffic t = dplan.TrafficForRange(v, 0, span);
      relay_bytes += t.up_bytes + t.down_bytes;
      relay_msgs += t.up_messages + t.down_messages;
      for (int64_t k = 0; k < vis; ++k) {
        persist_bytes +=
            dplan.PersistBytesForRange(v, k * vi_len, (k + 1) * vi_len);
      }
    }
    const double expected =
        (static_cast<double>(busiest_steps) * config.seconds_per_step +
         config.link.TransferSeconds(relay_bytes, relay_msgs) +
         config.link.TransferSeconds(persist_bytes, 2 * vis)) /
        static_cast<double>(vis);

    const ClusterOverlapCost cost =
        SimulateClusterOverlap(dplan, kRank, config);
    EXPECT_EQ(cost.num_workers, 2);
    EXPECT_GT(cost.pipelined_seconds_per_vi, 0.0);
    EXPECT_NEAR(cost.pipelined_seconds_per_vi, expected, 1e-9 * expected);
    // The line the plan subcommand greps for.
    EXPECT_NE(cost.ToString().find("cluster-wall: workers=2 wall_s/vi="),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tpcp
