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
// (JobSpec::auto_resume). Each job runs Session::Decompose on a worker
// thread, so the service adds scheduling, not a second engine.

#ifndef TPCP_API_JOB_SERVICE_H_
#define TPCP_API_JOB_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/job.h"
#include "core/cancellation.h"
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
  /// State-change callback, invoked with a snapshot after every observable
  /// transition (queued→running, running→terminal, queued→cancelled) with
  /// no service lock held. Called from worker threads and from whichever
  /// thread retired a queued job via Cancel; calls are not globally
  /// ordered across jobs. The callback may call Submit/Poll/List/Cancel on
  /// this service, but not Await (it could be running on the worker whose
  /// job the wait needs). Must outlive the service; note that the
  /// destructor's CancelAll still fires it.
  std::function<void(const JobInfo&)> on_transition;
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

  /// Drops a terminal job's record (its spec and result): later Poll,
  /// Await and Cancel calls return NotFound and List leaves it out. An
  /// Await already waiting on the job still returns its final snapshot.
  /// NotFound for an unknown id, FailedPrecondition for a job that is
  /// not terminal. A long-lived caller that keeps its own record of
  /// finished jobs calls this so the service does not keep a second copy.
  Status Forget(JobId id);

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
  class Reporter;

  void WorkerLoop();
  /// Executes `job` on the calling worker thread (no service lock held)
  /// and returns the snapshot taken as it turned terminal; the worker
  /// must not touch `job` afterwards, since Forget may erase it.
  JobInfo Execute(Job* job);
  /// Builds the public snapshot; callers hold mu_.
  JobInfo Snapshot(const Job& job) const;
  /// List() with an optional state filter; takes mu_.
  std::vector<JobInfo> ListFiltered(std::optional<JobState> filter) const;
  /// Invokes options_.on_transition (if set) with `info`. Callers must NOT
  /// hold mu_.
  void NotifyTransition(const JobInfo& info);

  const JobServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty / shutdown
  std::condition_variable done_cv_;   // Await: some job turned terminal
  std::deque<JobId> queue_;
  // Shared so an Await can keep a job it waits on past Forget.
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  JobId next_id_ = 1;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace tpcp

#endif  // TPCP_API_JOB_SERVICE_H_
