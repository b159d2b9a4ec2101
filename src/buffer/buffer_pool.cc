#include "buffer/buffer_pool.h"

#include "util/logging.h"

namespace tpcp {

BufferPool::BufferPool(uint64_t capacity_bytes, UnitCatalog catalog,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity_bytes),
      catalog_(std::move(catalog)),
      policy_(std::move(policy)) {
  TPCP_CHECK(policy_ != nullptr);
  TPCP_CHECK_GE(capacity_, catalog_.MaxUnitBytes())
      << "buffer cannot hold the largest data unit";
}

Status BufferPool::Access(const ModePartition& unit, int64_t pos) {
  ++stats_.accesses;
  if (IsResident(unit)) {
    ++stats_.hits;
    policy_->OnAccess(unit, pos);
    return Status::OK();
  }
  std::vector<Eviction> evicted;
  TPCP_RETURN_IF_ERROR(Reserve(unit, pos, &evicted));
  Unpin(unit);
  return Status::OK();
}

Status BufferPool::Reserve(const ModePartition& unit, int64_t pos,
                           std::vector<Eviction>* evicted) {
  TPCP_CHECK(evicted != nullptr);
  TPCP_CHECK_EQ(resident_.count(unit), 0u) << "Reserve on resident unit";
  const uint64_t bytes = catalog_.UnitBytes(unit);

  // Feasibility first, so failure has no side effects: the free space plus
  // every unpinned unit must cover the reservation.
  uint64_t reclaimable = capacity_ - used_;
  for (const auto& [u, entry] : resident_) {
    if (entry.pins == 0) reclaimable += catalog_.UnitBytes(u);
  }
  if (reclaimable < bytes) {
    return Status::ResourceExhausted(
        "pinned units block reservation of a data unit");
  }

  while (used_ + bytes > capacity_) {
    const std::vector<ModePartition> candidates = EvictionCandidates(unit);
    TPCP_CHECK(!candidates.empty());  // guaranteed by the feasibility check
    const ModePartition victim = policy_->ChooseVictim(candidates, pos);
    evicted->emplace_back(victim, Remove(victim));
  }

  resident_.emplace(unit, Entry{/*dirty=*/false, /*pins=*/1});
  used_ += bytes;
  ++stats_.swap_ins;
  stats_.bytes_in += bytes;
  policy_->OnInsert(unit, pos);
  return Status::OK();
}

void BufferPool::TouchResident(const ModePartition& unit, int64_t pos) {
  auto it = resident_.find(unit);
  TPCP_CHECK(it != resident_.end()) << "TouchResident on non-resident unit";
  ++it->second.pins;
  policy_->OnAccess(unit, pos);
}

void BufferPool::Unpin(const ModePartition& unit) {
  auto it = resident_.find(unit);
  TPCP_CHECK(it != resident_.end()) << "Unpin on non-resident unit";
  TPCP_CHECK_GT(it->second.pins, 0) << "Unpin on unpinned unit";
  --it->second.pins;
}

std::vector<ModePartition> BufferPool::EvictionCandidates(
    const ModePartition& keep) const {
  std::vector<ModePartition> candidates;
  candidates.reserve(resident_.size());
  for (const auto& [unit, entry] : resident_) {
    if (entry.pins == 0 && !(unit == keep)) candidates.push_back(unit);
  }
  return candidates;
}

bool BufferPool::Remove(ModePartition unit) {
  auto it = resident_.find(unit);
  TPCP_CHECK(it != resident_.end());
  TPCP_CHECK_EQ(it->second.pins, 0) << "removing a pinned unit";
  const bool dirty = it->second.dirty;
  const uint64_t bytes = catalog_.UnitBytes(unit);
  resident_.erase(it);
  used_ -= bytes;
  ++stats_.swap_outs;
  stats_.bytes_out += bytes;
  if (dirty) ++stats_.dirty_writebacks;
  policy_->OnEvict(unit);
  return dirty;
}

void BufferPool::MarkDirty(const ModePartition& unit) {
  auto it = resident_.find(unit);
  TPCP_CHECK(it != resident_.end()) << "MarkDirty on non-resident unit";
  it->second.dirty = true;
}

void BufferPool::Discard(const ModePartition& unit) {
  const uint64_t bytes = catalog_.UnitBytes(unit);
  Remove(unit);
  // The reservation's swap never happened and this is no eviction: undo
  // Reserve's swap_in and Remove's swap_out so stats reflect moved bytes.
  --stats_.swap_ins;
  stats_.bytes_in -= bytes;
  --stats_.swap_outs;
  stats_.bytes_out -= bytes;
}

bool BufferPool::IsResident(const ModePartition& unit) const {
  return resident_.count(unit) > 0;
}

bool BufferPool::IsPinned(const ModePartition& unit) const {
  auto it = resident_.find(unit);
  return it != resident_.end() && it->second.pins > 0;
}

Status BufferPool::Flush(const EvictCallback& evict) {
  while (!resident_.empty()) {
    const auto& [unit, entry] = *resident_.begin();
    if (evict != nullptr) {
      TPCP_RETURN_IF_ERROR(evict(unit, entry.dirty));
    }
    Remove(unit);
  }
  return Status::OK();
}

}  // namespace tpcp
