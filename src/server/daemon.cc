#include "server/daemon.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "api/session.h"
#include "core/phase2_engine.h"
#include "data/synthetic.h"
#include "util/format.h"
#include "util/parse.h"

namespace tpcp {

namespace {

constexpr const char* kJobPrefix = "jobs/";

std::string JobFileName(int64_t id) {
  return kJobPrefix + std::to_string(id);
}

std::string TensorPrefix(int64_t id) {
  return "job-" + std::to_string(id) + "/tensor";
}

std::string FactorPrefix(int64_t id) {
  return "job-" + std::to_string(id) + "/factors";
}

/// A protocol number rendered as the option-map string ApplyOption reads.
Result<std::string> JsonOptionToString(const std::string& key,
                                       const JsonValue& value) {
  if (value.is_string()) return value.string_value();
  if (value.is_bool()) return std::string(value.bool_value() ? "1" : "0");
  if (value.is_int()) return std::to_string(value.int_value());
  if (value.kind() == JsonValue::Kind::kDouble) {
    return RoundTripDouble(value.number_value());
  }
  return Status::InvalidArgument("option '" + key +
                                 "' must be a scalar (string/number/bool)");
}

}  // namespace

Result<std::unique_ptr<Tpcpd>> Tpcpd::Start(TpcpdOptions options) {
  std::unique_ptr<Tpcpd> daemon(new Tpcpd());
  TPCP_RETURN_IF_ERROR(daemon->Init(std::move(options)));
  return daemon;
}

Status Tpcpd::Init(TpcpdOptions options) {
  options_ = std::move(options);
  if (options_.max_running_jobs < 1 || options_.total_threads < 1 ||
      options_.total_buffer_bytes == 0) {
    return Status::InvalidArgument(
        "daemon totals (buffer/threads/max_running_jobs) must be positive");
  }
  TPCP_ASSIGN_OR_RETURN(state_env_, OpenEnv(options_.state_uri));
  for (TenantConfig& config : options_.tenants) {
    if (config.name.empty()) {
      return Status::InvalidArgument("tenant name must not be empty");
    }
    if (tenants_.count(config.name) != 0) {
      return Status::InvalidArgument("duplicate tenant '" + config.name +
                                     "'");
    }
    Tenant tenant;
    tenant.config = config;
    TPCP_ASSIGN_OR_RETURN(tenant.env, OpenEnv(config.storage_uri));
    tenants_[config.name] = std::move(tenant);
  }
  if (tenants_.empty()) {
    return Status::InvalidArgument("tpcpd needs at least one tenant");
  }

  Recover();

  JobServiceOptions service_options;
  service_options.num_workers = options_.max_running_jobs;
  service_options.on_transition = [this](const JobInfo& info) {
    OnServiceTransition(info);
  };
  service_ = std::make_unique<JobService>(service_options);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  LogLine("tpcpd: serving " + std::to_string(tenants_.size()) +
          " tenant(s), totals " + HumanBytes(options_.total_buffer_bytes) +
          " / " + std::to_string(options_.total_threads) + " threads / " +
          std::to_string(options_.max_running_jobs) + " jobs");
  return Status::OK();
}

Tpcpd::~Tpcpd() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  sched_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // The service destructor cancels running jobs; each winds down at its
  // next vi boundary with a checkpoint, and OnServiceTransition (seeing
  // shutdown_) re-queues it as preempted in the persisted state.
  service_.reset();
  LogLine("tpcpd: stopped");
}

void Tpcpd::Recover() {
  const std::vector<std::string> files = state_env_->ListFiles(kJobPrefix);
  int64_t recovered = 0;
  for (const std::string& file : files) {
    // The file name owns its id whether or not the body decodes, so a
    // skipped record's jobs/<id> and job-<id>/ are never handed out again.
    const Result<int64_t> file_id =
        ParseInt64(file.substr(std::string(kJobPrefix).size()));
    if (file_id.ok() && *file_id < std::numeric_limits<int64_t>::max()) {
      next_id_ = std::max(next_id_, *file_id + 1);
    }
    std::string text;
    if (!state_env_->ReadFile(file, &text).ok()) continue;
    Result<ServerJobRecord> decoded = DecodeServerJobRecord(text);
    if (decoded.ok() && !(file_id.ok() && *file_id == decoded->id)) {
      decoded = Status::Corruption("record id " + std::to_string(decoded->id) +
                                   " does not match its file name");
    }
    if (!decoded.ok()) {
      LogLine("tpcpd: skipping corrupt job record " + file + ": " +
              decoded.status().ToString());
      continue;
    }
    ServerJobRecord record = *decoded;
    next_seq_ = std::max(next_seq_, record.seq + 1);
    if (tenants_.count(record.tenant) == 0) {
      LogLine("tpcpd: job " + std::to_string(record.id) +
              " names unregistered tenant '" + record.tenant +
              "', leaving on disk");
      continue;
    }
    if (!IsTerminal(record.state)) {
      // A record still marked running means the previous daemon died with
      // the job in flight; its store holds the last checkpoint, so it
      // re-enters the queue as preempted and auto-resumes.
      if (record.state == ServerJobState::kRunning) {
        record.state = ServerJobState::kPreempted;
        PersistRecord(record);
      }
      ++recovered;
      LogLine("tpcpd: recovered job " + std::to_string(record.id) +
              " (tenant " + record.tenant + ", " +
              ServerJobStateName(record.state) + ")");
    }
    ServerJob job;
    job.record = std::move(record);
    job.budget.buffer_bytes = job.record.budget_buffer_bytes;
    job.budget.threads = job.record.budget_threads;
    jobs_[job.record.id] = std::move(job);
  }
  recovered_ = recovered;
  if (recovered > 0) {
    LogLine("tpcpd: recovered " + std::to_string(recovered) +
            " job(s) from persisted queue");
  }
}

void Tpcpd::PersistRecord(const ServerJobRecord& record) {
  const Status status = state_env_->WriteFile(
      JobFileName(record.id), JobRecordToJson(record).Serialize());
  if (!status.ok()) {
    LogLine("tpcpd: failed to persist job " + std::to_string(record.id) +
            ": " + status.ToString());
  }
}

void Tpcpd::LogLine(const std::string& line) const {
  if (options_.log) options_.log(line);
}

Status Tpcpd::GenerateInput(const SubmitRequest& request,
                            const GridPartition& grid, Tenant* tenant,
                            int64_t job_id) {
  SessionOptions session_options;
  session_options.env = tenant->env.get();
  session_options.tensor_prefix = TensorPrefix(job_id);
  session_options.factor_prefix = FactorPrefix(job_id);
  TPCP_ASSIGN_OR_RETURN(auto session, Session::Open(session_options));
  TPCP_ASSIGN_OR_RETURN(BlockTensorStore * store,
                        session->CreateTensorStore(grid));
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = request.gen_rank;
  spec.noise_level = request.gen_noise;
  spec.seed = request.gen_seed;
  return GenerateLowRankIntoStore(spec, store);
}

Result<int64_t> Tpcpd::Submit(const SubmitRequest& request) {
  const auto tenant_it = tenants_.find(request.tenant);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + request.tenant + "'");
  }
  Tenant* tenant = &tenant_it->second;
  TPCP_RETURN_IF_ERROR(ValidateOptions(request.options));
  const std::vector<std::string> solvers = Session::Solvers();
  if (std::find(solvers.begin(), solvers.end(), request.solver) ==
      solvers.end()) {
    return Status::InvalidArgument("unknown solver '" + request.solver +
                                   "'");
  }
  // The charge is the pool the run gets. A generate-submit's buffer
  // resolves against its grid exactly as the engine sizes it; any other
  // fraction submit is charged the tenant quota. Either way the charged
  // size is persisted as the job's buffer_bytes, so the charge binds.
  TwoPhaseCpOptions options = request.options;
  GridPartition grid;
  if (request.generate) {
    if (request.gen_dims.empty()) {
      return Status::InvalidArgument("generate needs a non-empty dims list");
    }
    TPCP_ASSIGN_OR_RETURN(grid,
                          GridPartition::CreateUniform(
                              Shape(request.gen_dims), request.gen_parts));
    options.buffer_bytes = Phase2PlannerOptions(options, grid).buffer_bytes;
  }
  const JobBudget budget = ComputeJobBudget(options, tenant->config.quota);
  options.buffer_bytes = budget.buffer_bytes;
  if (!BudgetFitsQuota(budget, tenant->config.quota)) {
    return Status::ResourceExhausted(
        "job budget (" + HumanBytes(budget.buffer_bytes) + ", " +
        std::to_string(budget.threads) + " threads) exceeds tenant '" +
        request.tenant + "' quota (" +
        HumanBytes(tenant->config.quota.buffer_bytes) + ", " +
        std::to_string(tenant->config.quota.threads) + " threads)");
  }
  if (budget.buffer_bytes > options_.total_buffer_bytes ||
      budget.threads > options_.total_threads) {
    return Status::ResourceExhausted(
        "job budget exceeds the daemon totals");
  }

  int64_t id = 0;
  int64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::FailedPrecondition("daemon stopping");
    id = next_id_++;
    seq = next_seq_++;
  }
  if (request.generate) {
    TPCP_RETURN_IF_ERROR(GenerateInput(request, grid, tenant, id));
  }

  ServerJob job;
  job.record.id = id;
  job.record.tenant = request.tenant;
  job.record.name = request.name;
  job.record.priority = request.priority;
  job.record.seq = seq;
  job.record.state = ServerJobState::kQueued;
  job.record.solver = request.solver;
  job.record.session_uri =
      tenant->config.storage_uri + "#job-" + std::to_string(id);
  job.record.budget_buffer_bytes = budget.buffer_bytes;
  job.record.budget_threads = budget.threads;
  job.record.options = OptionsToMap(options);
  job.record.params = request.params;
  job.budget = budget;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PersistRecord(job.record);
    LogLine("tpcpd: job " + std::to_string(id) + " (tenant " +
            request.tenant + ", prio " + std::to_string(request.priority) +
            ") admitted");
    jobs_[id] = std::move(job);
  }
  sched_cv_.notify_all();
  return id;
}

Result<ServerJobRecord> Tpcpd::Poll(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  return it->second.record;
}

Result<JobProgress> Tpcpd::Progress(int64_t id) const {
  JobId service_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    service_id = it->second.service_id;
  }
  if (service_id == 0) {
    return Status::FailedPrecondition("job " + std::to_string(id) +
                                      " is not running");
  }
  TPCP_ASSIGN_OR_RETURN(const JobInfo info, service_->Poll(service_id));
  return info.progress;
}

Result<ServerJobRecord> Tpcpd::Await(int64_t id, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  if (timeout_seconds > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    done_cv_.wait_until(lock, deadline, [&] {
      return IsTerminal(it->second.record.state) || shutdown_;
    });
  }
  return it->second.record;
}

std::vector<ServerJobRecord> Tpcpd::List(const std::string& tenant,
                                         const std::string& state) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServerJobRecord> out;
  for (const auto& [id, job] : jobs_) {
    if (!tenant.empty() && job.record.tenant != tenant) continue;
    if (!state.empty() &&
        state != ServerJobStateName(job.record.state)) {
      continue;
    }
    out.push_back(job.record);
  }
  return out;
}

Status Tpcpd::Cancel(int64_t id) {
  JobId service_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    ServerJob& job = it->second;
    if (IsTerminal(job.record.state)) return Status::OK();
    job.cancel_requested = true;
    if (job.service_id != 0) {
      service_id = job.service_id;  // running: cancel lands within one vi
    } else {
      job.record.state = ServerJobState::kCancelled;
      job.record.detail = "cancelled before running";
      PersistRecord(job.record);
      LogLine("tpcpd: job " + std::to_string(id) + " cancelled (queued)");
    }
  }
  if (service_id != 0) {
    TPCP_RETURN_IF_ERROR(service_->Cancel(service_id));
  }
  done_cv_.notify_all();
  sched_cv_.notify_all();
  return Status::OK();
}

std::vector<TenantStats> Tpcpd::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantStats> out;
  for (const auto& [name, tenant] : tenants_) {
    TenantStats stats;
    stats.config = tenant.config;
    stats.usage = tenant.usage;
    stats.consumed_seconds = tenant.consumed_seconds;
    for (const auto& [id, job] : jobs_) {
      if (job.record.tenant == name &&
          (job.record.state == ServerJobState::kQueued ||
           job.record.state == ServerJobState::kPreempted)) {
        ++stats.waiting_jobs;
      }
    }
    out.push_back(std::move(stats));
  }
  return out;
}

uint64_t Tpcpd::peak_buffer_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_buffer_bytes_;
}
int Tpcpd::peak_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_threads_;
}
int Tpcpd::peak_running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_running_jobs_;
}
int64_t Tpcpd::preemption_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return preemptions_;
}
int64_t Tpcpd::recovered_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}

// ---- scheduler -------------------------------------------------------------

void Tpcpd::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    SchedulePass(lock);
    sched_cv_.wait(lock);
  }
}

void Tpcpd::StartJob(ServerJob* job, Tenant* tenant) {
  const Result<TwoPhaseCpOptions> options =
      OptionsFromMap(job->record.options);
  if (!options.ok()) {
    job->record.state = ServerJobState::kFailed;
    job->record.detail = options.status().ToString();
    PersistRecord(job->record);
    return;
  }
  JobSpec spec;
  spec.session.env = tenant->env.get();
  spec.session.tensor_prefix = TensorPrefix(job->record.id);
  spec.session.factor_prefix = FactorPrefix(job->record.id);
  spec.solver = job->record.solver;
  spec.options = *options;
  spec.params = job->record.params;
  spec.auto_resume = true;
  const Result<JobId> submitted = service_->Submit(std::move(spec));
  if (!submitted.ok()) {
    job->record.state = ServerJobState::kFailed;
    job->record.detail = submitted.status().ToString();
    PersistRecord(job->record);
    return;
  }
  const bool resuming = job->record.state == ServerJobState::kPreempted;
  job->service_id = *submitted;
  job->started_at = std::chrono::steady_clock::now();
  service_to_job_[*submitted] = job->record.id;
  job->record.state = ServerJobState::kRunning;
  PersistRecord(job->record);
  tenant->usage.Charge(job->budget);
  total_usage_.Charge(job->budget);
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, total_usage_.buffer_bytes);
  peak_threads_ = std::max(peak_threads_, total_usage_.threads);
  peak_running_jobs_ = std::max(peak_running_jobs_, total_usage_.running_jobs);
  LogLine("tpcpd: job " + std::to_string(job->record.id) +
          (resuming ? " resumes (" : " starts (") +
          HumanBytes(job->budget.buffer_bytes) + ", " +
          std::to_string(job->budget.threads) + " threads)");
}

void Tpcpd::SchedulePass(std::unique_lock<std::mutex>& lock) {
  (void)lock;  // held for the whole pass
  const TenantQuota global_quota{options_.total_buffer_bytes,
                                 options_.total_threads,
                                 options_.max_running_jobs};
  for (;;) {
    // Waiting jobs, per tenant, best (priority desc, seq asc) first.
    std::map<std::string, ServerJob*> best;
    int top_priority = 0;
    bool any = false;
    for (auto& [id, job] : jobs_) {
      if (job.service_id != 0 || job.cancel_requested) continue;
      if (job.record.state != ServerJobState::kQueued &&
          job.record.state != ServerJobState::kPreempted) {
        continue;
      }
      ServerJob*& slot = best[job.record.tenant];
      if (slot == nullptr ||
          job.record.priority > slot->record.priority ||
          (job.record.priority == slot->record.priority &&
           job.record.seq < slot->record.seq)) {
        slot = &job;
      }
      if (!any || job.record.priority > top_priority) {
        top_priority = job.record.priority;
        any = true;
      }
    }
    if (!any) return;

    // Fair share at the top priority: the tenant that has consumed the
    // least recent batch time goes first, so turn length — not turn
    // count — is what equalizes. Ties (e.g. all-fresh tenants) break by
    // fewest running jobs, then name, keeping the pass deterministic.
    std::vector<std::string> ring;
    for (const auto& [name, candidate] : best) {
      if (candidate->record.priority == top_priority) ring.push_back(name);
    }
    std::sort(ring.begin(), ring.end(),
              [this](const std::string& a, const std::string& b) {
                const Tenant& ta = tenants_.at(a);
                const Tenant& tb = tenants_.at(b);
                if (ta.consumed_seconds != tb.consumed_seconds) {
                  return ta.consumed_seconds < tb.consumed_seconds;
                }
                if (ta.usage.running_jobs != tb.usage.running_jobs) {
                  return ta.usage.running_jobs < tb.usage.running_jobs;
                }
                return a < b;
              });

    bool started = false;
    for (const std::string& name : ring) {
      ServerJob* candidate = best[name];
      Tenant* tenant = &tenants_[name];
      if (CanStart(candidate->budget, tenant->usage, tenant->config.quota) &&
          CanStart(candidate->budget, total_usage_, global_quota)) {
        StartJob(candidate, tenant);
        started = true;
        break;
      }
      // Blocked. See whether evicting strictly-lower-priority running
      // jobs would make room; count preemptions already in flight as
      // pending room first.
      ResourceUsage tenant_sim = tenant->usage;
      ResourceUsage total_sim = total_usage_;
      for (const auto& [id, job] : jobs_) {
        if (job.service_id != 0 &&
            (job.preempt_requested || job.cancel_requested)) {
          total_sim.Release(job.budget);
          if (job.record.tenant == name) tenant_sim.Release(job.budget);
        }
      }
      if (CanStart(candidate->budget, tenant_sim, tenant->config.quota) &&
          CanStart(candidate->budget, total_sim, global_quota)) {
        // Enough room is already on its way; wait for it to land.
        return;
      }
      // Victims: running, lower priority, youngest first.
      std::vector<ServerJob*> victims;
      for (auto& [id, job] : jobs_) {
        if (job.service_id == 0 || job.preempt_requested ||
            job.cancel_requested) {
          continue;
        }
        if (job.record.priority < candidate->record.priority) {
          victims.push_back(&job);
        }
      }
      std::sort(victims.begin(), victims.end(),
                [](const ServerJob* a, const ServerJob* b) {
                  if (a->record.priority != b->record.priority) {
                    return a->record.priority < b->record.priority;
                  }
                  return a->record.seq > b->record.seq;
                });
      std::vector<ServerJob*> chosen;
      for (ServerJob* victim : victims) {
        total_sim.Release(victim->budget);
        if (victim->record.tenant == name) tenant_sim.Release(victim->budget);
        chosen.push_back(victim);
        if (CanStart(candidate->budget, tenant_sim, tenant->config.quota) &&
            CanStart(candidate->budget, total_sim, global_quota)) {
          break;
        }
      }
      if (!chosen.empty() &&
          CanStart(candidate->budget, tenant_sim, tenant->config.quota) &&
          CanStart(candidate->budget, total_sim, global_quota)) {
        for (ServerJob* victim : chosen) {
          victim->preempt_requested = true;
          LogLine("tpcpd: job " + std::to_string(candidate->record.id) +
                  " (prio " + std::to_string(candidate->record.priority) +
                  ") preempts job " + std::to_string(victim->record.id) +
                  " (prio " + std::to_string(victim->record.priority) +
                  ")");
          service_->Cancel(victim->service_id);
        }
      }
      // Strict priority: while the top-priority candidate is blocked, do
      // not backfill lower-priority work behind it.
      return;
    }
    if (!started) return;
  }
}

void Tpcpd::OnServiceTransition(const JobInfo& info) {
  if (!IsTerminal(info.state)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto map_it = service_to_job_.find(info.id);
    if (map_it == service_to_job_.end()) return;
    const int64_t id = map_it->second;
    service_to_job_.erase(map_it);
    const auto job_it = jobs_.find(id);
    if (job_it == jobs_.end()) return;
    ServerJob& job = job_it->second;
    job.service_id = 0;
    Tenant& tenant = tenants_[job.record.tenant];
    tenant.usage.Release(job.budget);
    total_usage_.Release(job.budget);
    // Fair-share accounting: charge this batch's wall time to the tenant
    // with geometric decay of older history. Every terminal transition —
    // success, failure, cancel, preempt — pays; a preempted job that keeps
    // getting restarted keeps paying per batch, which is exactly what lets
    // a short-job tenant slip in between its slices.
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.started_at)
            .count();
    tenant.consumed_seconds = tenant.consumed_seconds * 0.5 + run_seconds;
    job.record.resumed = info.resumed;
    job.record.fit = info.progress.fit;
    switch (info.state) {
      case JobState::kSucceeded:
        job.record.state = ServerJobState::kSucceeded;
        job.record.fit = info.result.surrogate_fit;
        LogLine("tpcpd: job " + std::to_string(id) + " succeeded (fit " +
                std::to_string(info.result.surrogate_fit) + ", vi " +
                std::to_string(info.result.virtual_iterations) +
                (info.resumed ? ", resumed)" : ")"));
        break;
      case JobState::kFailed:
        job.record.state = ServerJobState::kFailed;
        job.record.detail = info.status.ToString();
        LogLine("tpcpd: job " + std::to_string(id) + " failed: " +
                info.status.ToString());
        break;
      case JobState::kCancelled:
        if (job.cancel_requested) {
          job.record.state = ServerJobState::kCancelled;
          job.record.detail = "cancelled";
          LogLine("tpcpd: job " + std::to_string(id) + " cancelled");
        } else if (job.preempt_requested) {
          job.preempt_requested = false;
          job.record.state = ServerJobState::kPreempted;
          ++job.record.preemptions;
          ++preemptions_;
          LogLine("tpcpd: job " + std::to_string(id) +
                  " preempted at vi " +
                  std::to_string(info.progress.virtual_iteration) +
                  " (checkpoint persisted)");
        } else {
          // Shutdown path: the service cancelled it on our behalf; park
          // it as preempted so a restarted daemon resumes it.
          job.record.state = ServerJobState::kPreempted;
          LogLine("tpcpd: job " + std::to_string(id) +
                  " parked for restart (checkpoint persisted)");
        }
        break;
      default:
        break;
    }
    PersistRecord(job.record);
  }
  done_cv_.notify_all();
  sched_cv_.notify_all();
}

// ---- protocol --------------------------------------------------------------

Result<std::string> Tpcpd::Authenticate(const std::string& tenant,
                                        const std::string& token) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  if (it->second.config.token.empty()) {
    return Status::InvalidArgument("tenant '" + tenant +
                                   "' has no token configured");
  }
  if (it->second.config.token != token) {
    return Status::InvalidArgument("bad token for tenant '" + tenant + "'");
  }
  return tenant;
}

Status Tpcpd::CheckTenantAccess(const std::string& tenant,
                                const std::string& auth_tenant) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  if (it->second.config.token.empty() || auth_tenant == tenant) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "tenant '" + tenant +
      "' requires token authentication (hello with tenant and token)");
}

Result<std::string> Tpcpd::JobTenant(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  return it->second.record.tenant;
}

Result<JsonValue> Tpcpd::Dispatch(const JsonValue& request,
                                  const std::string& auth_tenant) {
  if (!request.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  TPCP_ASSIGN_OR_RETURN(const std::string cmd, GetString(request, "cmd"));
  JsonValue response = JsonValue::Object();
  response.Set("ok", true);

  if (cmd == "submit") {
    SubmitRequest submit;
    TPCP_ASSIGN_OR_RETURN(submit.tenant, GetString(request, "tenant"));
    TPCP_RETURN_IF_ERROR(CheckTenantAccess(submit.tenant, auth_tenant));
    TPCP_ASSIGN_OR_RETURN(submit.name, GetStringOr(request, "name", ""));
    TPCP_ASSIGN_OR_RETURN(const int64_t priority,
                          GetIntOr(request, "priority", 0));
    submit.priority = static_cast<int>(priority);
    TPCP_ASSIGN_OR_RETURN(submit.solver,
                          GetStringOr(request, "solver", "2pcp"));
    std::map<std::string, std::string> options;
    if (const JsonValue* object = request.Find("options")) {
      if (!object->is_object()) {
        return Status::InvalidArgument("field 'options' must be an object");
      }
      for (const auto& [key, value] : object->object_items()) {
        TPCP_ASSIGN_OR_RETURN(options[key], JsonOptionToString(key, value));
      }
    }
    TPCP_ASSIGN_OR_RETURN(submit.options, OptionsFromMap(options));
    TPCP_ASSIGN_OR_RETURN(submit.params, GetStringMap(request, "params"));
    if (const JsonValue* generate = request.Find("generate")) {
      if (!generate->is_object()) {
        return Status::InvalidArgument(
            "field 'generate' must be an object");
      }
      submit.generate = true;
      const JsonValue* dims = generate->Find("dims");
      if (dims == nullptr || !dims->is_array()) {
        return Status::InvalidArgument(
            "field 'generate.dims' must be an array of integers");
      }
      for (const JsonValue& dim : dims->array_items()) {
        if (!dim.is_int()) {
          return Status::InvalidArgument(
              "field 'generate.dims' must be an array of integers");
        }
        submit.gen_dims.push_back(dim.int_value());
      }
      TPCP_ASSIGN_OR_RETURN(submit.gen_parts,
                            GetIntOr(*generate, "parts", 2));
      TPCP_ASSIGN_OR_RETURN(submit.gen_rank, GetIntOr(*generate, "rank", 4));
      TPCP_ASSIGN_OR_RETURN(submit.gen_noise,
                            GetDoubleOr(*generate, "noise", 0.05));
      TPCP_ASSIGN_OR_RETURN(const int64_t seed,
                            GetIntOr(*generate, "seed", 1));
      submit.gen_seed = static_cast<uint64_t>(seed);
    }
    TPCP_ASSIGN_OR_RETURN(const int64_t id, Submit(submit));
    response.Set("job", id);
    return response;
  }

  if (cmd == "poll") {
    TPCP_ASSIGN_OR_RETURN(const int64_t id, GetInt(request, "job"));
    TPCP_ASSIGN_OR_RETURN(const std::string owner, JobTenant(id));
    TPCP_RETURN_IF_ERROR(CheckTenantAccess(owner, auth_tenant));
    TPCP_ASSIGN_OR_RETURN(const ServerJobRecord record, Poll(id));
    response.Set("job", JobRecordToJson(record));
    if (const Result<JobProgress> progress = Progress(id); progress.ok()) {
      JsonValue live = JsonValue::Object();
      live.Set("phase1_blocks_done", progress->phase1_blocks_done);
      live.Set("phase1_blocks_total", progress->phase1_blocks_total);
      live.Set("phase1_done", progress->phase1_done);
      live.Set("virtual_iteration", progress->virtual_iteration);
      live.Set("fit", progress->fit);
      response.Set("progress", std::move(live));
    }
    return response;
  }

  if (cmd == "await") {
    TPCP_ASSIGN_OR_RETURN(const int64_t id, GetInt(request, "job"));
    TPCP_ASSIGN_OR_RETURN(const std::string owner, JobTenant(id));
    TPCP_RETURN_IF_ERROR(CheckTenantAccess(owner, auth_tenant));
    TPCP_ASSIGN_OR_RETURN(double timeout,
                          GetDoubleOr(request, "timeout_seconds", 10.0));
    timeout = std::min(timeout, 3600.0);
    TPCP_ASSIGN_OR_RETURN(const ServerJobRecord record, Await(id, timeout));
    response.Set("job", JobRecordToJson(record));
    response.Set("terminal", IsTerminal(record.state));
    return response;
  }

  if (cmd == "list") {
    TPCP_ASSIGN_OR_RETURN(const std::string tenant,
                          GetStringOr(request, "tenant", ""));
    TPCP_ASSIGN_OR_RETURN(const std::string state,
                          GetStringOr(request, "state", ""));
    if (!state.empty()) {
      TPCP_RETURN_IF_ERROR(ServerJobStateFromName(state).status());
    }
    if (!tenant.empty() && tenants_.count(tenant) == 0) {
      return Status::NotFound("unknown tenant '" + tenant + "'");
    }
    if (!tenant.empty()) {
      TPCP_RETURN_IF_ERROR(CheckTenantAccess(tenant, auth_tenant));
    }
    JsonValue array = JsonValue::Array();
    for (const ServerJobRecord& record : List(tenant, state)) {
      // An unfiltered list only shows the jobs this connection may act on:
      // open tenants' plus the authenticated tenant's own.
      if (!CheckTenantAccess(record.tenant, auth_tenant).ok()) continue;
      array.Append(JobRecordToJson(record));
    }
    response.Set("jobs", std::move(array));
    return response;
  }

  if (cmd == "cancel") {
    TPCP_ASSIGN_OR_RETURN(const int64_t id, GetInt(request, "job"));
    TPCP_ASSIGN_OR_RETURN(const std::string owner, JobTenant(id));
    TPCP_RETURN_IF_ERROR(CheckTenantAccess(owner, auth_tenant));
    TPCP_RETURN_IF_ERROR(Cancel(id));
    return response;
  }

  if (cmd == "tenant-stats") {
    JsonValue array = JsonValue::Array();
    for (const TenantStats& stats : Stats()) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", stats.config.name);
      entry.Set("storage_uri", stats.config.storage_uri);
      JsonValue quota = JsonValue::Object();
      quota.Set("buffer_bytes", stats.config.quota.buffer_bytes);
      quota.Set("threads", stats.config.quota.threads);
      quota.Set("max_concurrent_jobs",
                stats.config.quota.max_concurrent_jobs);
      entry.Set("quota", std::move(quota));
      JsonValue usage = JsonValue::Object();
      usage.Set("buffer_bytes", stats.usage.buffer_bytes);
      usage.Set("threads", stats.usage.threads);
      usage.Set("running_jobs", stats.usage.running_jobs);
      entry.Set("usage", std::move(usage));
      entry.Set("waiting_jobs", stats.waiting_jobs);
      entry.Set("consumed_seconds", stats.consumed_seconds);
      array.Append(std::move(entry));
    }
    response.Set("tenants", std::move(array));
    return response;
  }

  return Status::InvalidArgument("unknown command '" + cmd + "'");
}

std::string Tpcpd::HandleRequest(const std::string& payload,
                                 const std::string& auth_tenant) {
  const Result<JsonValue> parsed = JsonValue::Parse(payload);
  Result<JsonValue> response = parsed.ok()
                                   ? Dispatch(*parsed, auth_tenant)
                                   : Result<JsonValue>(parsed.status());
  if (response.ok()) return response->Serialize();
  JsonValue error = JsonValue::Object();
  error.Set("ok", false);
  error.Set("error", response.status().ToString());
  return error.Serialize();
}

}  // namespace tpcp
