#include "buffer/prefetch_pipeline.h"

#include <algorithm>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpcp {

PrefetchPipeline::PrefetchPipeline(BufferPool* pool,
                                   const ExecutionPlan* plan,
                                   LoadCallback load,
                                   BufferPool::EvictCallback evict,
                                   Options options)
    : pool_(pool),
      plan_(plan),
      load_(std::move(load)),
      evict_(std::move(evict)),
      options_(std::move(options)) {
  TPCP_CHECK(pool_ != nullptr);
  TPCP_CHECK(plan_ != nullptr);
  TPCP_CHECK(load_ != nullptr);
  TPCP_CHECK(evict_ != nullptr);
  TPCP_CHECK_GE(plan_->prefetch_depth(), 0);
  if (plan_->prefetch_depth() > 0) {
    TPCP_CHECK_GE(options_.io_threads, 1);
    io_pool_ = std::make_unique<ThreadPool>(options_.io_threads);
  }
}

PrefetchPipeline::~PrefetchPipeline() {
  // io_pool_ is the last member, so its destructor joins the workers (after
  // running any still-queued tasks) before the state they use goes away.
}

Status PrefetchPipeline::FirstError() {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void PrefetchPipeline::RunIo(std::function<void()> task) {
  if (io_pool_ != nullptr) {
    io_pool_->Submit(std::move(task));
  } else {
    task();
  }
}

double PrefetchPipeline::AwaitOp(const std::shared_ptr<AsyncOp>& op) {
  Stopwatch watch;
  std::unique_lock<std::mutex> lock(mu_);
  op_done_.wait(lock, [&] { return op->done; });
  return watch.ElapsedSeconds();
}

bool PrefetchPipeline::TryIssue(int64_t p, bool ahead) {
  // A cancelled run will never execute steps past the one in flight, so
  // speculative loads are wasted I/O; due steps (ahead == false) must
  // still be honored for the engine's final BeginBatch.
  if (ahead && options_.cancel != nullptr && options_.cancel->cancelled()) {
    return false;
  }
  const ModePartition unit = plan_->UnitAt(p);

  if (pool_->IsResident(unit)) {
    pool_->TouchResident(unit, p);
    // The unit may still be loading for an earlier window slot; this step
    // must then wait on the same load. A plain hit carries no ahead credit.
    std::shared_ptr<AsyncOp> load;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = loads_.find(unit);
      if (it != loads_.end()) load = it->second;
    }
    window_.push_back(WindowSlot{p, unit, std::move(load),
                                 /*issued_ahead=*/false, /*was_hit=*/true,
                                 /*counts_against_budget=*/false});
    ++next_issue_;
    return true;
  }

  // Ahead-of-time *miss* reservations are capped at half the buffer: each
  // one pins a newly swapped-in unit, shrinking the replacement policy's
  // choice of victims, and letting the prefetch window eat the whole
  // budget trades cache quality (extra swaps) for overlap. Hits pass
  // freely — pinning a unit the policy already kept costs no swap. The
  // due step (ahead == false) always reserves: the window is empty then.
  // At depth 0 nothing is speculative — the only ahead reservations are
  // batch mates about to run — so a wave grows until pins block it.
  const uint64_t bytes = pool_->catalog().UnitBytes(unit);
  if (ahead && io_pool_ != nullptr &&
      window_load_bytes_ + bytes > pool_->capacity_bytes() / 2) {
    return false;
  }

  std::vector<BufferPool::Eviction> evicted;
  const Status reserve = pool_->Reserve(unit, p, &evicted);
  if (reserve.IsResourceExhausted()) {
    return false;  // pinned window fills the buffer; retry after a step
  }
  TPCP_CHECK(reserve.ok()) << reserve.ToString();

  for (const auto& [victim, dirty] : evicted) {
    {
      // Victims are unpinned, so any load they had is long complete.
      std::lock_guard<std::mutex> lock(mu_);
      loads_.erase(victim);
    }
    if (dirty) {
      auto wb = std::make_shared<AsyncOp>();
      {
        std::lock_guard<std::mutex> lock(mu_);
        writebacks_[victim] = wb;
      }
      RunIo([this, victim, wb] {
        Stopwatch watch;
        const Status status = evict_(victim, /*dirty=*/true);
        const double seconds = watch.ElapsedSeconds();
        {
          std::lock_guard<std::mutex> lock(mu_);
          wb->status = status;
          wb->done = true;
          if (!status.ok() && first_error_.ok()) first_error_ = status;
          writeback_seconds_ += seconds;
          auto it = writebacks_.find(victim);
          if (it != writebacks_.end() && it->second == wb) {
            writebacks_.erase(it);
          }
        }
        op_done_.notify_all();
      });
    } else {
      // Dropping a clean unit does no I/O; run it inline.
      const Status status = evict_(victim, /*dirty=*/false);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (first_error_.ok()) first_error_ = status;
      }
    }
  }

  auto load = std::make_shared<AsyncOp>();
  std::shared_ptr<AsyncOp> wb_dep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = writebacks_.find(unit);
    if (it != writebacks_.end()) wb_dep = it->second;
    loads_[unit] = load;
  }
  Stopwatch inline_watch;
  RunIo([this, unit, load, wb_dep] {
    if (wb_dep != nullptr) {
      // Write-then-read ordering for re-loads of a just-evicted unit. The
      // writeback was submitted first, so it is never stuck behind us.
      std::unique_lock<std::mutex> lock(mu_);
      op_done_.wait(lock, [&] { return wb_dep->done; });
      if (!wb_dep->status.ok()) {
        load->status = wb_dep->status;
        load->done = true;
        lock.unlock();
        op_done_.notify_all();
        return;
      }
    }
    const Status status = load_(unit);
    {
      // Load failures are not recorded in first_error_: they only matter
      // if the step that needs the unit actually runs, and BeginBatch
      // reports them then. A speculative prefetch issued past the
      // convergence point may fail without poisoning a finished run.
      std::lock_guard<std::mutex> lock(mu_);
      load->status = status;
      load->done = true;
    }
    op_done_.notify_all();
  });
  // An inline load (depth 0) is never ahead of the compute thread: it sat
  // through the whole load, so the time is stall, not a prefetch hit.
  const bool inline_io = io_pool_ == nullptr;
  if (inline_io) pool_->RecordStall(inline_watch.ElapsedSeconds());
  window_.push_back(WindowSlot{p, unit, std::move(load), ahead && !inline_io,
                               /*was_hit=*/false,
                               /*counts_against_budget=*/true});
  window_load_bytes_ += bytes;
  ++next_issue_;
  return true;
}

Status PrefetchPipeline::BeginBatch(int64_t pos, int64_t max_count,
                                    int64_t* acquired) {
  TPCP_CHECK(acquired != nullptr);
  TPCP_CHECK_GE(max_count, 1);
  TPCP_CHECK(max_count == 1 || options_.runs == nullptr)
      << "a filtered pipeline acquires one step per batch";
  TPCP_RETURN_IF_ERROR(FirstError());

  // Nothing reserved ahead (the first batch, depth 0, or a window that
  // could not grow): the due step starts here, wherever the caller is.
  // Every earlier step already ran and released its pin, so it fits.
  if (window_.empty()) {
    next_issue_ = pos;
    TPCP_CHECK(TryIssue(pos, /*ahead=*/false))
        << "reservation failed with an empty window";
  }
  TPCP_CHECK_EQ(window_.front().pos, pos) << "steps must run in plan order";
  // Grow the window over the rest of the batch. These are due steps, but
  // unlike the first they may fail to reserve (pinned batch mates and
  // prefetches shrink the pool) — the batch then simply splits here and
  // the remainder is acquired next call. The ahead=true path also keeps
  // the miss-budget cap, so a wide batch of misses cannot pin more than
  // half the buffer at once.
  while (next_issue_ < pos + max_count) {
    if (!TryIssue(next_issue_, /*ahead=*/true)) break;
  }
  const int64_t have = std::min<int64_t>(max_count, next_issue_ - pos);
  TPCP_CHECK_GE(have, 1);

  for (int64_t i = 0; i < have; ++i) {
    WindowSlot& slot = window_[static_cast<size_t>(i)];
    pool_->RecordAccess(slot.was_hit);
    if (slot.load != nullptr) {
      bool already_done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        already_done = slot.load->done;
      }
      if (already_done) {
        if (slot.issued_ahead) pool_->RecordPrefetchHit();
      } else {
        pool_->RecordStall(AwaitOp(slot.load));
      }
      std::lock_guard<std::mutex> lock(mu_);
      TPCP_RETURN_IF_ERROR(slot.load->status);
    }
    // The step's own load is complete; it no longer occupies the in-flight
    // budget, freeing a slot for the window to prefetch further ahead.
    if (slot.counts_against_budget) {
      window_load_bytes_ -= pool_->catalog().UnitBytes(slot.unit);
      slot.counts_against_budget = false;
    }
  }
  *acquired = have;
  return Status::OK();
}

Status PrefetchPipeline::EndBatch(int64_t pos, int64_t count) {
  TPCP_CHECK_GE(count, 1);
  TPCP_CHECK(!window_.empty() && window_.front().pos == pos)
      << "EndBatch of a step BeginBatch did not acquire";
  for (int64_t i = 0; i < count; ++i) {
    TPCP_CHECK(!window_.empty());
    const WindowSlot slot = window_.front();
    window_.pop_front();
    pool_->Unpin(slot.unit);
    // BeginBatch already released this slot's in-flight budget.
    TPCP_CHECK(!slot.counts_against_budget);
  }
  // Keep the reservation window the plan's depth of steps ahead of the
  // last *executed* one (never of the wave end: a buffer-split wave's tail
  // has not run yet, and overreaching past it would pin units early).
  // Positions the caller does not run are skipped; one it runs recurs
  // within a cycle, so the skip ends.
  const size_t depth = static_cast<size_t>(plan_->prefetch_depth());
  while (window_.size() < depth) {
    if (options_.runs != nullptr) {
      while (!options_.runs(next_issue_)) ++next_issue_;
    }
    if (!TryIssue(next_issue_, /*ahead=*/true)) break;
  }
  return FirstError();
}

Status PrefetchPipeline::Drain() {
  if (io_pool_ != nullptr) io_pool_->Wait();
  for (const WindowSlot& slot : window_) {
    pool_->Unpin(slot.unit);
  }
  // Never-executed slots whose speculative load failed leave the pool
  // claiming residency for a unit the load callback never materialized;
  // drop that bookkeeping so a subsequent Flush does not evict a phantom.
  // The failure itself is benign — the step never ran.
  for (const WindowSlot& slot : window_) {
    bool load_failed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      load_failed = slot.load != nullptr && !slot.load->status.ok();
    }
    if (load_failed && pool_->IsResident(slot.unit) &&
        !pool_->IsPinned(slot.unit)) {
      pool_->Discard(slot.unit);
    }
  }
  window_.clear();
  window_load_bytes_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  loads_.clear();
  writebacks_.clear();
  pool_->RecordWriteback(writeback_seconds_);
  writeback_seconds_ = 0.0;
  return first_error_;
}

Status PrefetchPipeline::Flush() {
  return pool_->Flush([this](const ModePartition& unit, bool dirty) {
    if (!dirty) return evict_(unit, dirty);
    Stopwatch watch;
    const Status status = evict_(unit, dirty);
    pool_->RecordWriteback(watch.ElapsedSeconds());
    return status;
  });
}

}  // namespace tpcp
