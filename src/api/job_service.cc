#include "api/job_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace tpcp {

JobService::JobService(JobServiceOptions options)
    : options_(std::move(options)), pool_(options_.num_workers) {}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  CancelAll();
  // pool_ is joined next: tasks of jobs retired while queued return at
  // once, running ones wind down (flush + checkpoint) first.
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
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("JobService is shutting down");
    }
    id = next_id_++;
    job = &jobs_[id];
    job->id = id;
    job->spec = std::move(spec);
  }
  pool_.Submit([this, job] { Run(job); });
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
  return Snapshot(it->second);
}

Result<JobInfo> JobService::Await(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  const Job& job = it->second;
  done_cv_.wait(lock, [&job] { return IsTerminal(job.state); });
  return Snapshot(job);
}

Result<JobInfo> JobService::Await(JobId id, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  const Job& job = it->second;
  if (timeout_seconds > 0.0) {
    done_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds)),
        [&job] { return IsTerminal(job.state); });
  }
  // Terminal or timed out: either way the caller gets the live snapshot.
  return Snapshot(job);
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
    if (filter.has_value() && job.state != *filter) continue;
    infos.push_back(Snapshot(job));
  }
  return infos;
}

Status JobService::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  Job& job = it->second;
  if (job.state == JobState::kQueued) {
    // Its pool task finds it retired and returns at once.
    job.state = JobState::kCancelled;
    job.status = Status::Cancelled("cancelled while queued");
    job.wait_seconds = job.since_submit.ElapsedSeconds();
    done_cv_.notify_all();
  } else if (job.state == JobState::kRunning) {
    job.token.Cancel();
  }
  // Terminal states: idempotent no-op.
  return Status::OK();
}

void JobService::CancelAll() {
  std::vector<JobId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : jobs_) {
      if (!IsTerminal(job.state)) ids.push_back(id);
    }
  }
  for (JobId id : ids) Cancel(id);
}

void JobService::Run(Job* job) {
  // Work on a private copy of the spec: budget caps must not leak back
  // into the submitted spec (List/Poll report it verbatim).
  JobSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
    job->wait_seconds = job->since_submit.ElapsedSeconds();
    spec = job->spec;
  }
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
  JobProgressReporter reporter(&mu_, &job->progress, spec.options.observer);
  JobOutcome outcome = RunJob(std::move(spec), &job->token, &reporter);

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->run_seconds =
        job->since_submit.ElapsedSeconds() - job->wait_seconds;
    job->resumed = outcome.resumed;
    if (outcome.status.ok()) {
      job->state = JobState::kSucceeded;
      job->result = std::move(outcome.result);
    } else {
      job->state = outcome.status.IsCancelled() ? JobState::kCancelled
                                                : JobState::kFailed;
      job->status = std::move(outcome.status);
    }
  }
  done_cv_.notify_all();
}

}  // namespace tpcp
