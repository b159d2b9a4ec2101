#include "schedule/conflict.h"

#include <set>

#include "util/logging.h"

namespace tpcp {

ConflictAnalysis::ConflictAnalysis(const UpdateSchedule& schedule) {
  const std::vector<UpdateStep>& cycle = schedule.cycle();
  cycle_length_ = schedule.cycle_length();
  TPCP_CHECK_GT(cycle_length_, 0);
  batch_end_.resize(static_cast<size_t>(cycle_length_));

  // Greedy maximal segmentation: extend the current batch while the next
  // step shares its mode and names a partition the batch has not touched.
  // Pairwise distinctness within one mode is exactly pairwise
  // conflict-freedom, so the greedy run is a maximal conflict-free batch.
  int64_t begin = 0;
  std::set<int64_t> parts_in_batch;
  parts_in_batch.insert(cycle[0].unit().part);
  for (int64_t p = 1; p <= cycle_length_; ++p) {
    bool extend = false;
    if (p < cycle_length_) {
      const UpdateStep& step = cycle[static_cast<size_t>(p)];
      extend = step.mode == cycle[static_cast<size_t>(begin)].mode &&
               parts_in_batch.insert(step.unit().part).second;
    }
    if (!extend) {
      batches_.push_back(StepBatch{begin, p});
      max_batch_size_ = std::max(max_batch_size_, p - begin);
      for (int64_t q = begin; q < p; ++q) {
        batch_end_[static_cast<size_t>(q)] = p;
      }
      if (p < cycle_length_) {
        begin = p;
        parts_in_batch.clear();
        parts_in_batch.insert(cycle[static_cast<size_t>(p)].unit().part);
      }
    }
  }
}

int64_t ConflictAnalysis::BatchEndAfter(int64_t pos) const {
  TPCP_CHECK_GE(pos, 0);
  const int64_t cycle_base = (pos / cycle_length_) * cycle_length_;
  return cycle_base + batch_end_[static_cast<size_t>(pos % cycle_length_)];
}

}  // namespace tpcp
