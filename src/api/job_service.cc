#include "api/job_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/progress_observer.h"
#include "grid/manifest.h"
#include "util/logging.h"

namespace tpcp {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// Per-job observer: folds engine events into the job's progress snapshot
/// (under the service lock), then forwards to the submitter's observer
/// with no lock held — so a forwarded callback may call back into the
/// service (Cancel, Poll) without deadlocking.
class JobService::Reporter : public ProgressObserver {
 public:
  Reporter(JobService* service, Job* job, ProgressObserver* next)
      : service_(service), job_(job), next_(next) {}

  void OnPhase1BlockDone(int64_t done, int64_t total,
                         double block_fit) override {
    {
      std::lock_guard<std::mutex> lock(service_->mu_);
      job_->progress.phase1_blocks_done = done;
      job_->progress.phase1_blocks_total = total;
    }
    if (next_ != nullptr) next_->OnPhase1BlockDone(done, total, block_fit);
  }

  void OnPhase1Done(double seconds, double mean_block_fit) override {
    {
      std::lock_guard<std::mutex> lock(service_->mu_);
      job_->progress.phase1_done = true;
    }
    if (next_ != nullptr) next_->OnPhase1Done(seconds, mean_block_fit);
  }

  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override {
    {
      std::lock_guard<std::mutex> lock(service_->mu_);
      job_->progress.virtual_iteration = iteration;
      job_->progress.fit = surrogate_fit;
      job_->progress.swap_ins = swap_ins;
    }
    if (next_ != nullptr) {
      next_->OnVirtualIteration(iteration, surrogate_fit, swap_ins);
    }
  }

  void OnPhase2Done(int virtual_iterations, bool converged,
                    double surrogate_fit, const BufferStats& stats) override {
    {
      std::lock_guard<std::mutex> lock(service_->mu_);
      job_->progress.virtual_iteration = virtual_iterations;
      job_->progress.fit = surrogate_fit;
    }
    if (next_ != nullptr) {
      next_->OnPhase2Done(virtual_iterations, converged, surrogate_fit,
                          stats);
    }
  }

 private:
  JobService* service_;
  Job* job_;
  ProgressObserver* next_;
};

JobService::JobService(JobServiceOptions options)
    : options_(std::move(options)) {
  TPCP_CHECK_GE(options_.num_workers, 1);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobService::~JobService() {
  CancelAll();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Result<JobId> JobService::Submit(JobSpec spec) {
  TPCP_RETURN_IF_ERROR(ValidateOptions(spec.options));
  // Unknown solvers fail here, not minutes later on a worker.
  TPCP_RETURN_IF_ERROR(
      SolverRegistry::Global().Create(spec.solver).status());
  // The engine token is service-owned; a submitter-provided one cannot be
  // honored across the queue/retry lifecycle.
  spec.options.cancel = nullptr;

  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("JobService is shutting down");
    }
    id = next_id_++;
    auto job = std::make_shared<Job>();
    job->id = id;
    job->spec = std::move(spec);
    jobs_[id] = std::move(job);
    queue_.push_back(id);
  }
  work_cv_.notify_one();
  return id;
}

JobInfo JobService::Snapshot(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.spec = job.spec;
  info.progress = job.progress;
  info.status = job.status;
  info.result = job.result;
  info.resumed = job.resumed;
  info.wait_seconds = job.state == JobState::kQueued
                          ? job.since_submit.ElapsedSeconds()
                          : job.wait_seconds;
  info.run_seconds =
      job.state == JobState::kRunning
          ? job.since_submit.ElapsedSeconds() - job.wait_seconds
          : job.run_seconds;
  return info;
}

Result<JobInfo> JobService::Poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  return Snapshot(*it->second);
}

Result<JobInfo> JobService::Await(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&job] { return IsTerminal(job->state); });
  return Snapshot(*job);
}

Result<JobInfo> JobService::Await(JobId id, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  const std::shared_ptr<Job> job = it->second;
  if (timeout_seconds > 0.0) {
    done_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds)),
        [&job] { return IsTerminal(job->state); });
  }
  // Terminal or timed out: either way the caller gets the live snapshot.
  return Snapshot(*job);
}

std::vector<JobInfo> JobService::List() const {
  return ListFiltered(std::nullopt);
}

std::vector<JobInfo> JobService::List(JobState state) const {
  return ListFiltered(state);
}

std::vector<JobInfo> JobService::ListFiltered(
    std::optional<JobState> filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> infos;
  infos.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    if (filter.has_value() && job->state != *filter) continue;
    infos.push_back(Snapshot(*job));
  }
  return infos;
}

void JobService::NotifyTransition(const JobInfo& info) {
  if (options_.on_transition) options_.on_transition(info);
}

Status JobService::Cancel(JobId id) {
  std::optional<JobInfo> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    Job* job = it->second.get();
    if (job->state == JobState::kQueued) {
      job->state = JobState::kCancelled;
      job->status = Status::Cancelled("cancelled while queued");
      job->wait_seconds = job->since_submit.ElapsedSeconds();
      retired = Snapshot(*job);
      done_cv_.notify_all();
    } else if (job->state == JobState::kRunning) {
      job->token.Cancel();
    }
    // Terminal states: idempotent no-op.
  }
  if (retired.has_value()) NotifyTransition(*retired);
  return Status::OK();
}

void JobService::CancelAll() {
  std::vector<JobId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : jobs_) {
      if (!IsTerminal(job->state)) ids.push_back(id);
    }
  }
  for (JobId id : ids) Cancel(id);
}

Status JobService::Forget(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  if (!IsTerminal(it->second->state)) {
    return Status::FailedPrecondition("job " + std::to_string(id) + " is " +
                                      JobStateName(it->second->state));
  }
  jobs_.erase(it);
  return Status::OK();
}

void JobService::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    JobInfo started;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      while (!queue_.empty()) {
        const auto it = jobs_.find(queue_.front());
        queue_.pop_front();
        // Jobs cancelled while queued stay in the deque (and may have
        // been forgotten since); skip them here.
        if (it != jobs_.end() && it->second->state == JobState::kQueued) {
          job = it->second.get();
          break;
        }
      }
      if (job == nullptr) {
        if (shutdown_) return;
        continue;
      }
      job->state = JobState::kRunning;
      job->wait_seconds = job->since_submit.ElapsedSeconds();
      started = Snapshot(*job);
    }
    NotifyTransition(started);
    const JobInfo finished = Execute(job);
    done_cv_.notify_all();
    NotifyTransition(finished);
  }
}

JobInfo JobService::Execute(Job* job) {
  // Work on a private copy of the spec: budget caps and auto-resume must
  // not leak back into the submitted spec (List/Poll report it verbatim).
  JobSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = job->spec;
  }
  spec.options.cancel = &job->token;
  if (options_.total_threads > 0) {
    const int share =
        std::max(1, options_.total_threads / options_.num_workers);
    spec.options.num_threads = std::min(spec.options.num_threads, share);
    // The same share bounds the Phase-2 compute pool: the two pools never
    // run at the same time within one job, so one cap covers both phases.
    spec.options.compute_threads =
        std::min(spec.options.compute_threads, share);
    // I/O workers come out of the same budget — they run concurrently
    // with the compute pool, so a worker's share caps them too. Safe for
    // the plan identity: like compute_threads, io_threads shapes timing
    // only, never the planned step order.
    spec.options.io_threads = std::min(spec.options.io_threads, share);
  }
  if (options_.total_buffer_bytes > 0) {
    const uint64_t share =
        std::max<uint64_t>(1, options_.total_buffer_bytes /
                                  static_cast<uint64_t>(options_.num_workers));
    if (spec.options.buffer_bytes == 0 ||
        spec.options.buffer_bytes > share) {
      spec.options.buffer_bytes = share;
    }
  }
  Reporter reporter(this, job, spec.options.observer);
  spec.options.observer = &reporter;

  Status failure;
  SolveResult outcome;
  auto session = Session::Open(spec.session);
  if (!session.ok()) {
    failure = session.status();
  } else {
    // A checkpoint cut by a cancelled/crashed run of this same spec means
    // the refinement continues; anything else — no checkpoint, a tensor
    // regenerated on another grid under the same path, or a spec whose
    // math-shaping options (rank, schedule, seed, init, solve parameters)
    // differ from the interrupted run's — runs fresh. The
    // comparison uses the solver-normalized options: the checkpoint was
    // recorded with the configuration the engine actually ran (e.g.
    // grid-parafac's pinned mode-centric schedule), so the spec must be
    // normalized the same way before comparing.
    if (spec.auto_resume && !spec.options.resume_phase2) {
      TwoPhaseCpOptions normalized = spec.options;
      if (auto solver = SolverRegistry::Global().Create(spec.solver);
          solver.ok()) {
        (*solver)->NormalizeOptions(&normalized);
      }
      auto tensor = (*session)->OpenTensorStore();
      auto manifest = ReadManifest((*session)->env(),
                                   spec.session.factor_prefix);
      if (tensor.ok() && manifest.ok() && manifest->checkpoint.has_value() &&
          manifest->kind == StoreManifest::kFactorsKind &&
          manifest->grid == (*tensor)->grid() &&
          manifest->rank == normalized.rank &&
          manifest->checkpoint->options_fingerprint ==
              normalized.ResumeFingerprint() &&
          manifest->checkpoint->schedule ==
              ScheduleTypeName(normalized.schedule)) {
        spec.options.resume_phase2 = true;
        std::lock_guard<std::mutex> lock(mu_);
        job->resumed = true;
      }
    }
    auto result =
        (*session)->Decompose(spec.solver, spec.options, spec.params);
    if (result.ok()) {
      outcome = std::move(result).value();
    } else {
      failure = result.status();
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  job->run_seconds =
      job->since_submit.ElapsedSeconds() - job->wait_seconds;
  if (failure.ok()) {
    job->state = JobState::kSucceeded;
    job->result = std::move(outcome);
  } else if (failure.IsCancelled()) {
    job->state = JobState::kCancelled;
    job->status = failure;
  } else {
    job->state = JobState::kFailed;
    job->status = failure;
  }
  return Snapshot(*job);
}

}  // namespace tpcp
