// JobService — asynchronous, cancellable, resumable decomposition jobs.
//
// Session::Decompose is a blocking call; real out-of-core decompositions
// run minutes to hours, and a production front door needs the scheduler
// shape instead: submit, poll, cancel, await. JobService provides it on
// top of Session — each job opens its own Session from its spec, so jobs
// on distinct stores are fully isolated, while the service's worker pool
// bounds how many run at once and (optionally) divides one thread/buffer
// budget among them.
//
//   JobService service({.num_workers = 2});
//   JobId a = service.Submit(spec_a).value();
//   JobId b = service.Submit(spec_b).value();
//   service.Cancel(a);                      // lands within one virtual it.
//   JobInfo done = service.Await(b).value();
//   JobId a2 = service.Submit(spec_a).value();  // resumes from checkpoint
//
// Cancelled (or crashed-after-checkpoint) two-phase jobs leave their
// factor store resumable; resubmitting the same spec finds the
// Phase2Checkpoint in the store manifest and continues the refinement
// (JobSpec::auto_resume). Each job runs RunJob (api/job.h) — the runner
// the tpcpd daemon uses too — as a task on a FIFO ThreadPool, so the
// service adds a queue and snapshots, not a second engine.

#ifndef TPCP_API_JOB_SERVICE_H_
#define TPCP_API_JOB_SERVICE_H_

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "api/job.h"
#include "core/cancellation.h"
#include "parallel/thread_pool.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace tpcp {

/// Service-wide execution limits.
struct JobServiceOptions {
  /// Worker threads, i.e. how many jobs run concurrently.
  int num_workers = 2;
  /// Shared thread budget: each running job's options.num_threads
  /// (Phase-1 workers), options.compute_threads (Phase-2 refinement math)
  /// and options.io_threads (prefetch-pipeline byte movers) are capped at
  /// max(1, total_threads / num_workers). Capping never changes a job's
  /// numbers: the execution plan's step order and shard chunks are
  /// thread-count-independent, so a budget-limited run stays bit-identical
  /// to an unlimited one. 0 leaves per-job settings untouched.
  int total_threads = 0;
};

/// Runs decomposition jobs on a fixed worker pool. Thread-safe; all
/// public methods may be called from any thread. From inside a
/// ProgressObserver callback of a running job, Submit/Poll/List/Cancel
/// are safe (cancel-at-progress patterns rely on this), but Await must
/// not be called there: the callback runs on the worker thread whose job
/// would have to finish to satisfy the wait.
class JobService {
 public:
  explicit JobService(JobServiceOptions options = JobServiceOptions());

  /// Cancels every outstanding job and joins the workers. Running jobs
  /// finish winding down (flush + checkpoint) before the destructor
  /// returns.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Enqueues a job. InvalidArgument when the spec names an unknown
  /// solver or an invalid rank; storage problems surface when the job
  /// runs (its JobInfo turns kFailed).
  Result<JobId> Submit(JobSpec spec);

  /// Snapshot of one job. NotFound for an id this service never issued.
  Result<JobInfo> Poll(JobId id) const;

  /// Blocks until the job reaches a terminal state and returns its final
  /// snapshot. NotFound for an unknown id.
  Result<JobInfo> Await(JobId id);

  /// Bounded wait: blocks until the job is terminal or `timeout_seconds`
  /// elapses, then returns the job's current snapshot either way — the
  /// caller distinguishes the outcomes with IsTerminal(info.state). A
  /// non-positive timeout polls (returns the snapshot immediately).
  /// NotFound for an unknown id. This is the scheduler-loop shape: wait a
  /// bounded slice, reassess, never busy-poll.
  Result<JobInfo> Await(JobId id, double timeout_seconds);

  /// Snapshots of every job, in submission order.
  std::vector<JobInfo> List() const;

  /// Snapshots of the jobs currently in `state`, in submission order.
  std::vector<JobInfo> List(JobState state) const;

  /// Requests cancellation: a queued job is retired immediately
  /// (kCancelled); a running job's token fires and the engine winds down
  /// at its next boundary — within one virtual iteration for Phase 2. A
  /// job already terminal is left untouched (OK; Cancel is idempotent).
  /// NotFound for an unknown id.
  Status Cancel(JobId id);

  /// Cancels every queued and running job.
  void CancelAll();

  const JobServiceOptions& options() const { return options_; }

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    Status status;
    SolveResult result;
    JobProgress progress;
    bool resumed = false;
    Stopwatch since_submit;
    double wait_seconds = 0.0;
    double run_seconds = 0.0;
    CancellationToken token;
  };

  /// The pool task of `job`: runs it on the calling worker thread (no
  /// service lock held) unless it was cancelled while queued.
  void Run(Job* job);
  /// Builds the public snapshot; callers hold mu_.
  JobInfo Snapshot(const Job& job) const;
  /// List() with an optional state filter; takes mu_.
  std::vector<JobInfo> ListFiltered(std::optional<JobState> filter) const;

  const JobServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // Await: some job turned terminal
  std::map<JobId, Job> jobs_;
  JobId next_id_ = 1;
  bool shutdown_ = false;

  // Last: destroyed (joined) first, while the jobs its tasks touch live.
  ThreadPool pool_;
};

}  // namespace tpcp

#endif  // TPCP_API_JOB_SERVICE_H_
