#include "schedule/planner.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/swap_simulator.h"
#include "schedule/conflict.h"
#include "util/logging.h"

namespace tpcp {

DistributedPlan::DistributedPlan(const ExecutionPlan* plan, int64_t rank,
                                 int num_workers)
    : plan_(plan),
      catalog_(plan->schedule().grid(), rank),
      num_workers_(num_workers) {
  TPCP_CHECK_GE(num_workers_, 1);
  const uint64_t gram_bytes =
      static_cast<uint64_t>(rank) * static_cast<uint64_t>(rank) *
      sizeof(double);
  TPCP_CHECK_LE(num_workers_, 64);  // reader_mask_ is a 64-bit bitmask
  const int64_t cycle = plan_->cycle_length();
  step_bytes_.reserve(static_cast<size_t>(cycle));
  for (int64_t pos = 0; pos < cycle; ++pos) {
    const int mode = plan_->StepAt(pos).mode;
    // G^(i)_(ki) plus one M^(i)_l per slab block.
    step_bytes_.push_back(
        gram_bytes *
        (1 + static_cast<uint64_t>(catalog_.SlabBlocks(mode))));
  }
  // Weighted ownership: assign units heaviest-first to the least-loaded
  // worker, weighting each unit by the work it induces per cycle — its
  // step count times its slab+factor bytes. Deterministic tie-breaks
  // (weight desc, mode asc, part asc; lowest worker id) let coordinator
  // and workers rebuild the identical map from (plan, rank, N). Must run
  // before the liveness pass below: reader_mask_ is ownership-derived.
  const GridPartition& grid = plan_->schedule().grid();
  const int num_modes = grid.num_modes();
  owner_offset_.assign(static_cast<size_t>(num_modes) + 1, 0);
  for (int m = 0; m < num_modes; ++m) {
    owner_offset_[static_cast<size_t>(m) + 1] =
        owner_offset_[static_cast<size_t>(m)] + grid.parts(m);
  }
  owner_.assign(static_cast<size_t>(owner_offset_.back()), 0);
  std::vector<uint64_t> occurrences(owner_.size(), 0);
  for (int64_t pos = 0; pos < cycle; ++pos) {
    ++occurrences[static_cast<size_t>(UnitIndex(plan_->UnitAt(pos)))];
  }
  struct WeightedUnit {
    uint64_t weight;
    ModePartition unit;
  };
  std::vector<WeightedUnit> units;
  units.reserve(owner_.size());
  for (const ModePartition& unit : catalog_.AllUnits()) {
    const uint64_t weight =
        occurrences[static_cast<size_t>(UnitIndex(unit))] *
        catalog_.UnitBytes(unit);
    units.push_back({weight, unit});
  }
  std::sort(units.begin(), units.end(),
            [](const WeightedUnit& a, const WeightedUnit& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.unit.mode != b.unit.mode) return a.unit.mode < b.unit.mode;
              return a.unit.part < b.unit.part;
            });
  std::vector<uint64_t> load(static_cast<size_t>(num_workers_), 0);
  for (const WeightedUnit& wu : units) {
    int lightest = 0;
    for (int w = 1; w < num_workers_; ++w) {
      if (load[static_cast<size_t>(w)] < load[static_cast<size_t>(lightest)]) {
        lightest = w;
      }
    }
    owner_[static_cast<size_t>(UnitIndex(wu.unit))] = lightest;
    load[static_cast<size_t>(lightest)] += wu.weight;
  }
  // FNV-1a over (num_workers, owners in mode-major order). The or-1 keeps
  // 0 free to mean "not recorded" in checkpoints.
  uint64_t fp = 1469598103934665603ull;
  auto mix = [&fp](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      fp ^= (v >> (8 * b)) & 0xff;
      fp *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(num_workers_));
  for (int owner : owner_) mix(static_cast<uint64_t>(owner));
  ownership_fingerprint_ = fp | 1ull;
  // Liveness precomputation. Both the refresh distance and the set of
  // cross-mode readers inside the window are relative to the position, so
  // they are cycle-periodic even when vi_len does not divide the cycle
  // (the fit-boundary test, which is not, runs per absolute position in
  // ImageLiveFor).
  next_refresh_delta_.reserve(static_cast<size_t>(cycle));
  reader_mask_.reserve(static_cast<size_t>(cycle));
  for (int64_t pos = 0; pos < cycle; ++pos) {
    const ModePartition unit = plan_->UnitAt(pos);
    int64_t delta = 1;
    while (delta < cycle && !(plan_->UnitAt(pos + delta) == unit)) ++delta;
    next_refresh_delta_.push_back(delta);
    uint64_t mask = 0;
    for (int64_t q = pos + 1; q < pos + delta; ++q) {
      if (plan_->StepAt(q).mode != unit.mode) {
        mask |= 1ull << OwnerAt(q);
      }
    }
    reader_mask_.push_back(mask);
  }
}

bool DistributedPlan::ImageLiveFor(int64_t pos, int worker) const {
  const size_t cycle_pos =
      static_cast<size_t>(pos % plan_->cycle_length());
  // Fit-live: a virtual-iteration boundary inside (pos, next_refresh]
  // means every worker's next SurrogateFit reads the image.
  const int64_t next = pos + next_refresh_delta_[cycle_pos];
  const int64_t vi_len = plan_->virtual_iteration_length();
  if (next / vi_len > pos / vi_len) return true;
  return (reader_mask_[cycle_pos] >> worker) & 1u;
}

uint64_t DistributedPlan::StepExchangeBytes(int64_t pos) const {
  return step_bytes_[static_cast<size_t>(pos % plan_->cycle_length())];
}

WorkerTraffic DistributedPlan::TrafficForRange(int worker, int64_t begin,
                                               int64_t end) const {
  WorkerTraffic traffic;
  for (int64_t pos = begin; pos < end; ++pos) {
    const uint64_t bytes = StepExchangeBytes(pos);
    if (OwnerAt(pos) == worker) {
      traffic.up_bytes += bytes;
      ++traffic.up_messages;
    } else if (ImageLiveFor(pos, worker)) {
      traffic.down_bytes += bytes;
      ++traffic.down_messages;
    }
  }
  return traffic;
}

uint64_t DistributedPlan::PersistBytesForRange(int worker, int64_t begin,
                                               int64_t end) const {
  std::set<ModePartition> units;
  // A window of at least one cycle updates every unit; no need to walk
  // more than one cycle's worth of positions.
  const int64_t stop = std::min(end, begin + plan_->cycle_length());
  for (int64_t pos = begin; pos < stop; ++pos) {
    const ModePartition unit = plan_->UnitAt(pos);
    if (OwnerOf(unit) == worker) units.insert(unit);
  }
  uint64_t bytes = 0;
  for (const ModePartition& unit : units) {
    bytes += catalog_.FactorBytes(unit);
  }
  return bytes;
}

std::string DistributedPlan::Summary() const {
  std::ostringstream out;
  const int64_t cycle = plan_->cycle_length();
  out << "dist: workers=" << num_workers_ << " cycle=" << cycle
      << " vi=" << plan_->virtual_iteration_length() << "\n";
  for (int worker = 0; worker < num_workers_; ++worker) {
    int64_t owned_steps = 0;
    std::set<ModePartition> owned_units;
    for (int64_t pos = 0; pos < cycle; ++pos) {
      const ModePartition unit = plan_->UnitAt(pos);
      if (OwnerOf(unit) == worker) {
        ++owned_steps;
        owned_units.insert(unit);
      }
    }
    const WorkerTraffic traffic = TrafficForRange(worker, 0, cycle);
    out << "dist: worker " << worker << " units=" << owned_units.size()
        << " steps/cycle=" << owned_steps
        << " xchg_up/cycle=" << traffic.up_bytes
        << " xchg_down/cycle=" << traffic.down_bytes << "\n";
  }
  return out.str();
}

std::vector<UpdateStep> ReorderCycleForWidth(
    const std::vector<UpdateStep>& cycle, int64_t window) {
  TPCP_CHECK_GE(window, 1);
  const int64_t n = static_cast<int64_t>(cycle.size());
  std::vector<bool> used(cycle.size(), false);
  std::vector<UpdateStep> out;
  out.reserve(cycle.size());
  int64_t next = 0;  // earliest unconsumed source position
  while (static_cast<int64_t>(out.size()) < n) {
    while (used[static_cast<size_t>(next)]) ++next;
    // Start a run at the earliest unconsumed step, then hoist every
    // same-mode step on a partition the run has not touched yet from the
    // following `window` source positions. Scanning in source order keeps
    // same-mode steps — and so every per-unit access sequence — in their
    // original relative order; only cross-mode order changes, which is
    // exactly the freedom a different (deterministic) plan may take.
    const int64_t start = next;
    const int mode = cycle[static_cast<size_t>(start)].mode;
    std::set<int64_t> parts;
    parts.insert(cycle[static_cast<size_t>(start)].unit().part);
    out.push_back(cycle[static_cast<size_t>(start)]);
    used[static_cast<size_t>(start)] = true;
    const int64_t scan_end = std::min(n, start + window);
    for (int64_t j = start + 1; j < scan_end; ++j) {
      if (used[static_cast<size_t>(j)]) continue;
      const UpdateStep& step = cycle[static_cast<size_t>(j)];
      if (step.mode == mode && parts.insert(step.unit().part).second) {
        out.push_back(step);
        used[static_cast<size_t>(j)] = true;
      }
    }
  }
  return out;
}

ExecutionPlan Planner::Build(const UpdateSchedule& schedule,
                             const PlannerOptions& options) {
  TPCP_CHECK_GE(options.prefetch_depth, 0);

  PlanStats stats;
  stats.reorder_requested = options.reorder;
  stats.max_width_before = ConflictAnalysis(schedule).max_batch_size();
  stats.certified = options.certify && options.buffer_bytes > 0;

  auto simulate = [&](const UpdateSchedule& s) {
    return SimulateSteadyStateSwapsPerVi(s, options.rank, options.policy,
                                         options.buffer_bytes,
                                         options.certify_warmup_cycles,
                                         options.certify_measure_cycles,
                                         options.victim_hints);
  };
  if (stats.certified) stats.swaps_before = simulate(schedule);

  UpdateSchedule exec = schedule;
  if (options.reorder) {
    // Window ladder: one virtual iteration first, then halvings down to
    // the mode count. Wider windows hoist wider waves but concentrate
    // more distinct units, so a tight buffer may fail their parity gate
    // while a narrower window still passes — the ladder adopts the widest
    // certified candidate instead of giving up outright. Deterministic:
    // fixed ladder, first passing candidate wins.
    const int64_t num_modes = schedule.grid().num_modes();
    // Clamp up to num_modes + 1: a window of `num_modes` or fewer steps
    // cannot hoist anything past a block visit, and silently evaluating
    // zero candidates would misreport "rejected" when nothing was tried.
    const int64_t widest =
        std::max(schedule.virtual_iteration_length(), num_modes + 1);
    for (int64_t window = widest; window > num_modes; window /= 2) {
      UpdateSchedule candidate = UpdateSchedule::Reordered(
          schedule, ReorderCycleForWidth(schedule.cycle(), window));
      const int64_t width = ConflictAnalysis(candidate).max_batch_size();
      if (width <= stats.max_width_before) continue;  // no parallelism gain
      if (stats.certified) {
        stats.swaps_after = simulate(candidate);
        // Parity gate: adopt the wider order only when it swaps no more
        // than the source order under this run's policy and budget.
        if (stats.swaps_after > stats.swaps_before) continue;
      }
      exec = std::move(candidate);
      stats.reorder_applied = true;
      stats.reorder_window = window;
      break;
    }
  } else {
    stats.swaps_after = stats.swaps_before;
  }

  const ConflictAnalysis conflicts(exec);
  stats.max_width_after = conflicts.max_batch_size();
  auto lookahead = std::make_shared<ScheduleLookahead>(exec);

  const int64_t vi_len = exec.virtual_iteration_length();
  std::vector<PlanWave> waves;
  waves.reserve(conflicts.batches().size());
  for (const StepBatch& batch : conflicts.batches()) {
    PlanWave wave;
    wave.begin = batch.begin;
    wave.end = batch.end;
    wave.mode = exec.StepAt(batch.begin).mode;
    // Eviction hints: wave units whose next plan-order use is at least a
    // virtual iteration past the wave — dead for the near future. The
    // forward policy, reading the same oracle, will pick exactly these as
    // victims first; the hints make that visible in plan summaries.
    for (int64_t p = batch.begin; p < batch.end; ++p) {
      const ModePartition unit = exec.UnitAt(p);
      if (lookahead->NextUse(unit, batch.end - 1) - batch.end >= vi_len) {
        wave.evict_hints.push_back(unit);
      }
    }
    waves.push_back(std::move(wave));
  }

  return ExecutionPlan(std::move(exec), std::move(waves),
                       options.prefetch_depth, std::move(lookahead), stats);
}

}  // namespace tpcp
