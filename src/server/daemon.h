// tpcpd — the multi-tenant decomposition daemon.
//
// Tpcpd runs its own jobs: each started job is a task on a pool of
// max_running_jobs threads that calls RunJob (api/job.h), the runner the
// library's JobService uses too (cooperative cancel landing within one
// virtual iteration, checkpointed bit-identical resume). One table holds
// every job under the daemon's id. On top of that runner it adds:
//
//   * Tenancy + admission control (server/tenant.h): every job is charged
//     a budget; a job only starts when the budget fits its tenant's quota
//     and the daemon totals, so aggregate usage is provably bounded. The
//     charged buffer is persisted as the job's buffer_bytes, which is the
//     pool the run sizes (unless, without a grid at admission, one unit
//     of the job's store alone outgrows it).
//   * Priority scheduling with preemption: a higher-priority job that
//     cannot start preempts strictly-lower-priority running jobs by
//     firing their tokens. The victim checkpoints (within one vi),
//     re-queues as kPreempted with its admission seq intact, and resumes
//     bit-identically from its Phase-2 checkpoint. Equal priorities
//     share fairly across tenants by recent consumption: the tenant
//     that has burned the least batch time lately starts first, so a
//     tenant running long jobs cannot starve one running short jobs the
//     way plain round-robin (one turn each, regardless of duration)
//     would.
//   * A survivable queue (server/job_record.h): every job's record is
//     rewritten on each transition into the daemon's state Env as the
//     same JSON object poll returns; a restarted daemon re-admits the
//     non-terminal backlog and running jobs auto-resume from their
//     checkpoints. A record it cannot decode is left on disk and keeps
//     its id.
//
// The protocol front door is HandleRequest (one JSON request object in,
// one JSON response object out) — the socket layer (server/net.h) only
// moves frames, so the whole protocol is testable in-process.

#ifndef TPCP_SERVER_DAEMON_H_
#define TPCP_SERVER_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/job.h"
#include "core/cancellation.h"
#include "grid/grid_partition.h"
#include "parallel/thread_pool.h"
#include "server/job_record.h"
#include "server/json.h"
#include "server/tenant.h"
#include "storage/env_uri.h"
#include "util/status.h"

namespace tpcp {

/// Daemon-wide configuration.
struct TpcpdOptions {
  /// Storage URI of the daemon's own state (job records). posix:// makes
  /// the queue survive restarts; mem:// is per-process (tests).
  std::string state_uri = "mem://";
  /// Registered tenants. Submits naming anyone else are rejected.
  std::vector<TenantConfig> tenants;
  /// Daemon-global ceilings across all tenants.
  uint64_t total_buffer_bytes = 256ull << 20;
  int total_threads = 8;
  int max_running_jobs = 4;
  /// Log sink for the daemon's one-line event log (admitted / starts /
  /// preempts / succeeded / recovered ...). Null: silent.
  std::function<void(const std::string&)> log;
};

/// A typed submit, as carried by the wire protocol's "submit" command.
struct SubmitRequest {
  std::string tenant;
  /// Client-chosen label.
  std::string name;
  int priority = 0;
  std::string solver = "2pcp";
  TwoPhaseCpOptions options;
  std::map<std::string, std::string> params;
  /// Optional synthetic input: generate a low-rank tensor into the job's
  /// store at admission (the store must not already hold one).
  bool generate = false;
  std::vector<int64_t> gen_dims;
  int64_t gen_parts = 2;
  int64_t gen_rank = 4;
  double gen_noise = 0.05;
  uint64_t gen_seed = 1;
};

/// Per-tenant stats snapshot (the "tenant-stats" command).
struct TenantStats {
  TenantConfig config;
  ResourceUsage usage;
  int64_t waiting_jobs = 0;
  /// Decayed batch-seconds this tenant's finished runs have consumed —
  /// the fair-share weight (lowest goes first at equal priority).
  double consumed_seconds = 0.0;
};

class Tpcpd {
 public:
  /// Opens the state Env and every tenant root, recovers the persisted
  /// backlog, and starts the scheduler. InvalidArgument on duplicate or
  /// empty tenant names / unresolvable URIs.
  static Result<std::unique_ptr<Tpcpd>> Start(TpcpdOptions options);

  /// Graceful stop: running jobs are cancelled (they checkpoint within
  /// one virtual iteration) and re-queued as preempted in the persisted
  /// state, so a restarted daemon resumes them.
  ~Tpcpd();

  Tpcpd(const Tpcpd&) = delete;
  Tpcpd& operator=(const Tpcpd&) = delete;

  // ---- protocol ----

  /// One request, one response; never throws, never crashes on malformed
  /// input — every error is a well-formed {"ok":false,...} response.
  /// `auth_tenant` is the tenant the connection authenticated as via its
  /// hello (empty: unauthenticated). Commands that touch a token-protected
  /// tenant's jobs are rejected with {"ok":false} — before any job state
  /// is touched — unless auth_tenant matches; open tenants (no token)
  /// behave as before.
  std::string HandleRequest(const std::string& payload,
                            const std::string& auth_tenant = "");

  /// Validates a hello's tenant + token pair. Returns the tenant name to
  /// bind the connection to, NotFound for an unknown tenant, and
  /// InvalidArgument for a wrong token or a tenant with no token
  /// configured (an open tenant needs no authentication).
  Result<std::string> Authenticate(const std::string& tenant,
                                   const std::string& token) const;

  // ---- typed surface (what HandleRequest dispatches to) ----

  /// Validates, resolves the budget, persists the record and queues the
  /// job (charging nothing until it starts). A generate-submit's buffer is
  /// resolved from its grid the way the engine sizes its pool; any other
  /// submit without buffer_bytes is charged the tenant's buffer quota. The
  /// charged size is persisted as options.buffer_bytes. InvalidArgument /
  /// NotFound / ResourceExhausted on a bad spec, unknown tenant, or a
  /// budget that can never fit the tenant's quota (nothing is generated).
  Result<int64_t> Submit(const SubmitRequest& request);
  Result<ServerJobRecord> Poll(int64_t id) const;
  /// Live engine progress of a running job (Phase-1 block counts, last
  /// completed virtual iteration, current fit). NotFound for an unknown
  /// id, FailedPrecondition when the job is not currently running.
  Result<JobProgress> Progress(int64_t id) const;
  /// Bounded wait for a daemon-terminal state; returns the current record
  /// either way (check IsTerminal(record.state)).
  Result<ServerJobRecord> Await(int64_t id, double timeout_seconds);
  /// All jobs, filtered by tenant and/or state name when non-empty.
  std::vector<ServerJobRecord> List(const std::string& tenant,
                                    const std::string& state) const;
  /// Cancels a job for good (terminal kCancelled; a preempted/queued job
  /// is retired without running again).
  Status Cancel(int64_t id);
  std::vector<TenantStats> Stats() const;

  // ---- invariants & counters (tests and the smoke harness) ----

  /// High-water marks of aggregate running usage since start.
  uint64_t peak_buffer_bytes() const;
  int peak_threads() const;
  int peak_running_jobs() const;
  /// Scheduler preemptions performed since start.
  int64_t preemption_count() const;
  /// Jobs re-admitted from persisted state at startup.
  int64_t recovered_count() const;

 private:
  struct ServerJob {
    ServerJobRecord record;
    JobBudget budget;
    /// True from StartJob until the run's task has done its terminal
    /// bookkeeping.
    bool running = false;
    /// Fired by Cancel, preemption and shutdown; re-armed at each start.
    CancellationToken token;
    /// Live engine progress of the current run (guarded by mu_).
    JobProgress progress;
    /// The scheduler cancelled this run to make room (vs. a user Cancel).
    bool preempt_requested = false;
    bool cancel_requested = false;
    /// When the current run started (valid while running); its elapsed
    /// time is charged to the tenant's fair-share weight.
    std::chrono::steady_clock::time_point started_at;
  };
  struct Tenant {
    TenantConfig config;
    OpenedEnv env;
    ResourceUsage usage;
    /// Fair-share weight: decayed sum of this tenant's run durations.
    /// Each finished or preempted batch charges
    ///   consumed = consumed * 0.5 + run_seconds
    /// so history fades geometrically and one long job long ago cannot
    /// penalize a tenant forever.
    double consumed_seconds = 0.0;
  };

  Tpcpd() = default;

  Status Init(TpcpdOptions options);
  void Recover();
  void SchedulerLoop();
  /// One scheduling pass under mu_: dispatch what fits, request
  /// preemptions for what outranks the running set.
  void SchedulePass(std::unique_lock<std::mutex>& lock);
  /// Starts `job` as a task on pool_; caller holds mu_.
  void StartJob(ServerJob* job, Tenant* tenant);
  /// The pool task of a started job: runs `spec` (no lock held), then
  /// books the outcome against `job`'s record.
  void RunServerJob(ServerJob* job, JobSpec spec);
  void PersistRecord(const ServerJobRecord& record);
  void LogLine(const std::string& line) const;
  /// Builds the synthetic input for a generate-submit; called outside mu_.
  Status GenerateInput(const SubmitRequest& request,
                       const GridPartition& grid, Tenant* tenant,
                       int64_t job_id);

  // HandleRequest helpers (build/parse protocol JSON).
  Result<JsonValue> Dispatch(const JsonValue& request,
                             const std::string& auth_tenant);
  /// OK when `auth_tenant` may act on `tenant`'s jobs: the tenant is open
  /// (no token) or the connection authenticated as it.
  Status CheckTenantAccess(const std::string& tenant,
                           const std::string& auth_tenant) const;
  /// The owning tenant of job `id` (NotFound for an unknown id).
  Result<std::string> JobTenant(int64_t id) const;

  TpcpdOptions options_;
  OpenedEnv state_env_;
  std::map<std::string, Tenant> tenants_;

  mutable std::mutex mu_;
  std::condition_variable sched_cv_;  // scheduler: work may have appeared
  std::condition_variable done_cv_;   // Await: some job changed state
  std::map<int64_t, ServerJob> jobs_;
  int64_t next_id_ = 1;
  int64_t next_seq_ = 1;
  bool shutdown_ = false;

  ResourceUsage total_usage_;
  uint64_t peak_buffer_bytes_ = 0;
  int peak_threads_ = 0;
  int peak_running_jobs_ = 0;
  int64_t preemptions_ = 0;
  int64_t recovered_ = 0;

  std::unique_ptr<ThreadPool> pool_;
  std::thread scheduler_;
};

}  // namespace tpcp

#endif  // TPCP_SERVER_DAEMON_H_
