#include "schedule/execution_plan.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace tpcp {
namespace {

/// FNV-1a over a 64-bit word (same construction as the options
/// fingerprint in core/config.cc, kept local to avoid a layering cycle).
uint64_t HashWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t PlanFingerprint(const UpdateSchedule& schedule) {
  uint64_t hash = 14695981039346656037ull;
  const GridPartition& grid = schedule.grid();
  hash = HashWord(hash, static_cast<uint64_t>(schedule.type()));
  hash = HashWord(hash, static_cast<uint64_t>(grid.num_modes()));
  for (int m = 0; m < grid.num_modes(); ++m) {
    hash = HashWord(hash, static_cast<uint64_t>(grid.parts(m)));
  }
  for (const UpdateStep& step : schedule.cycle()) {
    hash = HashWord(hash, static_cast<uint64_t>(step.mode));
    hash = HashWord(hash, static_cast<uint64_t>(step.unit().part));
  }
  // The retired intra-step shard chunk, whose only value is now 0. Kept
  // so that checkpoints cut before it was removed still resume.
  hash = HashWord(hash, 0u);
  return hash;
}

}  // namespace

ExecutionPlan::ExecutionPlan(UpdateSchedule schedule,
                             std::vector<PlanWave> waves, int prefetch_depth,
                             std::shared_ptr<const ScheduleLookahead> lookahead,
                             PlanStats stats)
    : schedule_(std::move(schedule)),
      waves_(std::move(waves)),
      prefetch_depth_(prefetch_depth),
      lookahead_(std::move(lookahead)),
      stats_(stats) {
  TPCP_CHECK(!waves_.empty());
  TPCP_CHECK_GE(prefetch_depth_, 0);
  wave_of_.resize(static_cast<size_t>(schedule_.cycle_length()));
  int64_t expected_begin = 0;
  for (size_t w = 0; w < waves_.size(); ++w) {
    TPCP_CHECK_EQ(waves_[w].begin, expected_begin)
        << "waves must tile the cycle";
    for (int64_t p = waves_[w].begin; p < waves_[w].end; ++p) {
      wave_of_[static_cast<size_t>(p)] = w;
    }
    expected_begin = waves_[w].end;
  }
  TPCP_CHECK_EQ(expected_begin, schedule_.cycle_length());
  fingerprint_ = PlanFingerprint(schedule_);
}

const PlanWave& ExecutionPlan::WaveAt(int64_t pos) const {
  TPCP_CHECK_GE(pos, 0);
  return waves_[wave_of_[static_cast<size_t>(pos % cycle_length())]];
}

int64_t ExecutionPlan::WaveEndAfter(int64_t pos) const {
  TPCP_CHECK_GE(pos, 0);
  // A position exactly at k·cycle_length is the first step of cycle k, so
  // it belongs to the first wave of the *new* cycle — the result is always
  // strictly greater than pos (the same contract, now spelled out, as
  // ConflictAnalysis::BatchEndAfter).
  const int64_t cycle_base = (pos / cycle_length()) * cycle_length();
  return cycle_base + WaveAt(pos).end;
}

std::string ExecutionPlan::Summary(int64_t max_waves) const {
  std::ostringstream out;
  const GridPartition& grid = schedule_.grid();
  out << "plan: schedule=" << ScheduleTypeName(schedule_.type()) << " grid=";
  for (int m = 0; m < grid.num_modes(); ++m) {
    out << (m > 0 ? "x" : "") << grid.parts(m);
  }
  out << " cycle=" << cycle_length() << " vi-steps="
      << virtual_iteration_length() << " waves=" << waves_.size()
      << " max-width=" << stats_.max_width_after << " (source "
      << stats_.max_width_before << ")"
      << " reordered="
      << (!stats_.reorder_requested
              ? "off"
              : (stats_.reorder_applied ? "yes" : "rejected"))
      << " window=" << stats_.reorder_window
      << " prefetch-depth=" << prefetch_depth_ << "\n";
  out.precision(2);
  out << std::fixed;
  out << "plan: swaps/vi before=" << stats_.swaps_before
      << " after=" << stats_.effective_swaps() << " parity=";
  if (!stats_.certified) {
    out << "unverified";
  } else if (stats_.effective_swaps() <= stats_.swaps_before + 1e-9) {
    out << "ok";
  } else {
    out << "VIOLATED";  // unreachable: the planner falls back instead
  }
  out << " fingerprint=" << fingerprint_ << "\n";
  const int64_t shown =
      std::min<int64_t>(max_waves, static_cast<int64_t>(waves_.size()));
  for (int64_t w = 0; w < shown; ++w) {
    const PlanWave& wave = waves_[static_cast<size_t>(w)];
    out << "plan: wave " << w << ": [" << wave.begin << "," << wave.end
        << ") mode=" << wave.mode << " width=" << wave.size()
        << " evict-hints=" << wave.evict_hints.size() << "\n";
  }
  if (shown < static_cast<int64_t>(waves_.size())) {
    out << "plan: ... " << (waves_.size() - static_cast<size_t>(shown))
        << " more waves\n";
  }
  return out.str();
}

}  // namespace tpcp
