// tpcpd-jobs: the serving path. A closed loop against an in-process Tpcpd
// behind a TpcpdServer on 127.0.0.1: 2 tenants, each with one client
// connection, submitting tiny generate-jobs and awaiting each before the
// next. The write-heavy use of storage (job-record rewrites, fresh stores
// and manifests) plus the server and api layers; kernels and buffer do
// little. State and tenant roots are in memory.
//
// One client thread drives both connections, submitting to the tenants in
// turn, so one job is in flight at a time. With a thread per tenant, two
// jobs ran at once on a 4-vCPU share of a loaded host and two sets of 10
// runs each spread the median job latency by 48%.

#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "data/synthetic.h"
#include "grid/block_tensor_store.h"
#include "harness.h"
#include "probes.h"
#include "server/daemon.h"
#include "server/net.h"
#include "storage/env_uri.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTenants = 2;
constexpr int64_t kJobDim = 40;
constexpr int64_t kJobParts = 2;
constexpr int64_t kJobRank = 4;
constexpr int kJobVirtualIterations = 4;
constexpr int kJobPhase1Iterations = 10;
/// Segments of the untraced loop, each with a set-up of its own. With 5
/// set-ups per run, host noise moved a batch's setup_s by up to 40%; with
/// 11, the first job of a fresh daemon was slow in up to 10 of them.
constexpr int kSegments = 21;

/// Daemon-log timestamps of each job's start and success: the boundaries
/// of server.queue_wait_s and server.run_s, on the clients' clock.
class JobLog {
 public:
  void Record(const std::string& line) {
    const Clock::time_point now = Clock::now();
    const std::string head = "tpcpd: job ";
    if (line.rfind(head, 0) != 0) return;
    const size_t id_end = line.find(' ', head.size());
    if (id_end == std::string::npos) return;
    const int64_t id = std::atoll(line.substr(head.size()).c_str());
    const std::string event = line.substr(id_end + 1);
    std::lock_guard<std::mutex> lock(mu_);
    if (event.rfind("starts", 0) == 0) starts_[id] = now;
    if (event.rfind("succeeded", 0) == 0) succeeded_[id] = now;
  }
  bool Find(int64_t id, Clock::time_point* start,
            Clock::time_point* done) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto s = starts_.find(id);
    const auto d = succeeded_.find(id);
    if (s == starts_.end() || d == succeeded_.end()) return false;
    *start = s->second;
    *done = d->second;
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::map<int64_t, Clock::time_point> starts_;
  std::map<int64_t, Clock::time_point> succeeded_;
};

/// The in-memory tenant roots of the running daemon. A mem:// root keeps
/// every finished job's store, so a loop of ~1000 jobs would grow the
/// process by ~300 MB and make peak RSS track throughput; the clients drop
/// each job's store once it is terminal. Tenant roots open as
/// tenantmem://, a plain MemEnv the bench can reach.
class TenantRoots {
 public:
  static TenantRoots& Get() {
    static TenantRoots roots;
    return roots;
  }
  void Register() {
    static std::once_flag once;
    std::call_once(once, [] {
      tpcp::EnvFactoryRegistry::Global().RegisterScheme(
          "tenantmem", [](const std::string&, tpcp::UriParams*)
                           -> tpcp::Result<std::unique_ptr<tpcp::Env>> {
            std::unique_ptr<tpcp::Env> env = tpcp::NewMemEnv();
            Get().Add(env.get());
            return env;
          });
    });
  }
  /// Deletes job `id`'s tensor and factor stores.
  void DropJob(int64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (tpcp::Env* env : envs_) {
      ClearPrefix(env, "job-" + std::to_string(id) + "/");
    }
  }
  /// Forgets the roots of a stopped daemon.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    envs_.clear();
  }

 private:
  void Add(tpcp::Env* env) {
    std::lock_guard<std::mutex> lock(mu_);
    envs_.push_back(env);
  }

  std::mutex mu_;
  std::vector<tpcp::Env*> envs_;
};

struct Daemon {
  std::unique_ptr<tpcp::Tpcpd> daemon;
  std::unique_ptr<tpcp::TpcpdServer> server;
};

/// Starts a daemon and its listener. Traced daemons open their roots
/// through timed+ and log into `log`.
tpcp::Result<Daemon> StartDaemon(JobLog* log) {
  const bool traced = log != nullptr;
  tpcp::TpcpdOptions options;
  options.state_uri = traced ? "timed+mem://?tag=state" : "mem://";
  for (int t = 0; t < kTenants; ++t) {
    tpcp::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.storage_uri = traced ? "timed+tenantmem://" : "tenantmem://";
    options.tenants.push_back(tenant);
  }
  options.total_threads = OnlineCpus();
  options.max_running_jobs = 2;
  if (traced) {
    options.log = [log](const std::string& line) { log->Record(line); };
  }
  TenantRoots::Get().Register();
  Daemon d;
  TPCP_ASSIGN_OR_RETURN(d.daemon, tpcp::Tpcpd::Start(std::move(options)));
  TPCP_ASSIGN_OR_RETURN(d.server,
                        tpcp::TpcpdServer::Listen(d.daemon.get(), 0));
  return d;
}

void Stop(Daemon* d) {
  d->server.reset();  // joins connection threads before the daemon goes
  d->daemon.reset();
  TenantRoots::Get().Clear();
}

struct JobSample {
  int64_t id = 0;
  Clock::time_point submitted{};
  double submit_rpc_seconds = 0.0;
  double latency_seconds = 0.0;
  /// From the client's previous completion (or its start) to this one.
  double interval_seconds = 0.0;
  double fit = 0.0;
  std::string error;  // empty: the job succeeded
};

tpcp::JsonValue SubmitRequest(const std::string& tenant, uint64_t seed) {
  tpcp::JsonValue options = tpcp::JsonValue::Object();
  options.Set("rank", kJobRank);
  options.Set("seed", static_cast<int64_t>(seed));
  options.Set("phase1_max_iterations", kJobPhase1Iterations);
  options.Set("phase1_fit_tolerance", -1.0);
  options.Set("fit_tolerance", -1.0);
  options.Set("max_virtual_iterations", kJobVirtualIterations);
  tpcp::JsonValue dims = tpcp::JsonValue::Array();
  for (int m = 0; m < 3; ++m) dims.Append(kJobDim);
  tpcp::JsonValue generate = tpcp::JsonValue::Object();
  generate.Set("dims", std::move(dims));
  generate.Set("parts", kJobParts);
  generate.Set("rank", kJobRank);
  generate.Set("seed", static_cast<int64_t>(seed));
  tpcp::JsonValue request = tpcp::JsonValue::Object();
  request.Set("cmd", "submit");
  request.Set("tenant", tenant);
  request.Set("name", "perfbench");
  request.Set("options", std::move(options));
  request.Set("generate", std::move(generate));
  return request;
}

/// The closed loop: one connection per tenant in `tenants`, submitting to
/// them in turn and awaiting each job before the next, until `deadline` or
/// `max_jobs` jobs.
void ClientLoop(int port, const std::vector<std::string>& tenants,
                uint64_t seed, Clock::time_point deadline, size_t max_jobs,
                std::vector<JobSample>* out) {
  std::vector<std::unique_ptr<tpcp::TpcpdClient>> clients;
  std::vector<tpcp::JsonValue> submits;
  for (const std::string& tenant : tenants) {
    tpcp::Result<std::unique_ptr<tpcp::TpcpdClient>> client =
        tpcp::TpcpdClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      JobSample failed;
      failed.error = "connect: " + client.status().ToString();
      out->push_back(failed);
      return;
    }
    clients.push_back(std::move(*client));
    submits.push_back(SubmitRequest(tenant, seed));
  }
  Clock::time_point last_done = Clock::now();
  for (size_t jobs = 0; jobs < max_jobs && Clock::now() < deadline; ++jobs) {
    tpcp::TpcpdClient* client = clients[jobs % clients.size()].get();
    JobSample sample;
    sample.submitted = Clock::now();
    const tpcp::Result<tpcp::JsonValue> accepted =
        client->Call(submits[jobs % submits.size()]);
    sample.submit_rpc_seconds = SecondsBetween(sample.submitted, Clock::now());
    const tpcp::JsonValue* id =
        accepted.ok() ? accepted->Find("job") : nullptr;
    if (id == nullptr || !id->is_int()) {
      sample.error = "submit: " + (accepted.ok() ? accepted->Serialize()
                                                 : accepted.status().ToString());
      out->push_back(sample);
      return;  // a refused submit would refuse again: stop the loop
    }
    sample.id = id->int_value();
    tpcp::JsonValue await = tpcp::JsonValue::Object();
    await.Set("cmd", "await");
    await.Set("job", sample.id);
    await.Set("timeout_seconds", 120.0);
    const tpcp::Result<tpcp::JsonValue> done = client->Call(await);
    const Clock::time_point done_at = Clock::now();
    sample.latency_seconds = SecondsBetween(sample.submitted, done_at);
    sample.interval_seconds = SecondsBetween(last_done, done_at);
    last_done = done_at;
    const tpcp::JsonValue* job = done.ok() ? done->Find("job") : nullptr;
    const tpcp::JsonValue* state = job ? job->Find("state") : nullptr;
    const tpcp::JsonValue* fit = job ? job->Find("fit") : nullptr;
    if (state == nullptr || !state->is_string() ||
        state->string_value() != "succeeded" || fit == nullptr ||
        !fit->is_number()) {
      sample.error = "job " + std::to_string(sample.id) + " ended " +
                     (done.ok() ? done->Serialize() : done.status().ToString());
    } else {
      sample.fit = fit->number_value();
    }
    TenantRoots::Get().DropJob(sample.id);
    out->push_back(sample);
  }
}

std::vector<std::string> TenantNames() {
  std::vector<std::string> names;
  for (int t = 0; t < kTenants; ++t) {
    names.push_back("tenant" + std::to_string(t));
  }
  return names;
}

/// Runs the closed loop against `d` until `deadline`, appending every job
/// to `jobs`.
void RunLoop(const Daemon& d, uint64_t seed, Clock::time_point deadline,
             std::vector<JobSample>* jobs) {
  ClientLoop(d.server->bound_port(), TenantNames(), seed, deadline, SIZE_MAX,
             jobs);
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Applies the per-job gates; returns the successful jobs' latencies and
/// adds their completion intervals to `intervals` (when non-null).
std::vector<double> CheckJobs(const std::vector<JobSample>& jobs,
                              Report* report, double* fit,
                              std::vector<double>* intervals) {
  std::vector<double> latencies;
  bool have_fit = false;
  for (const JobSample& job : jobs) {
    ++report->attempted;
    if (!job.error.empty()) {
      report->Fail(job.error);
      continue;
    }
    if (!std::isfinite(job.fit) || (have_fit && !SameBits(job.fit, *fit))) {
      report->Fail("job " + std::to_string(job.id) + " fit " +
                   std::to_string(job.fit) + " differs from the seed's first");
      continue;
    }
    *fit = job.fit;
    have_fit = true;
    latencies.push_back(job.latency_seconds);
    if (intervals != nullptr) intervals->push_back(job.interval_seconds);
  }
  return latencies;
}

}  // namespace

tpcp::Status RunTpcpdJobs(const RunArgs& args, Report* report) {
  RegisterBenchEnvWrappers();
  report->notes.push_back("env: store=mem state and tenant roots (RAM-backed)");

  // The untraced loop runs in kSegments segments, each on a daemon of
  // its own: a set-up, then the closed loop until the segment's end. So the
  // set-ups are spread over the run like the jobs (see kTimingQuantile).
  // A set-up is daemon start plus listen plus one served job: start and
  // listen alone take ~25 us, which drifted 37% between batches of runs;
  // the first job (~25 ms) gives the set-up a scale host noise does not
  // swamp. Each segment's daemon runs on two CPUs, the next segment's on
  // the next two (see PinToCpuSlot): with one job in flight its threads
  // mostly take turns. Peak RSS is taken per segment: the daemon keeps every finished
  // job's record, ~8 KB each, so a peak over one daemon's whole loop would
  // track how many jobs the run completed (it spread 14% across 5 seeds).
  //
  // A traced run spends its first half on untraced daemons and its second
  // half on a traced one; the difference of their median latencies is the
  // tracing overhead.
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_seconds;
  OperationSamples ops;
  std::vector<JobSample> jobs;
  const double cpu_before = CpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  for (int segment = 1; segment <= kSegments; ++segment) {
    PinToCpuSlot(segment);
    ResetPeakRss();
    const Clock::time_point start = Clock::now();
    TPCP_ASSIGN_OR_RETURN(Daemon daemon, StartDaemon(nullptr));
    std::vector<JobSample> first;
    ClientLoop(daemon.server->bound_port(), {"tenant0"}, args.seed,
               Clock::time_point::max(), 1, &first);
    if (first.size() != 1 || !first[0].error.empty()) {
      Stop(&daemon);
      PinToCpuSlot(-1);
      return tpcp::Status::Internal(
          "tpcpd set-up job failed: " +
          (first.empty() ? std::string("no job") : first[0].error));
    }
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    RunLoop(daemon, args.seed,
            After(loop_start, untraced_seconds * segment / kSegments),
            &jobs);
    ops.peak_rss_mib.push_back(PeakRssMib());
    Stop(&daemon);
  }
  PinToCpuSlot(-1);
  const double cpu = CpuSeconds() - cpu_before;
  ops.seconds = CheckJobs(jobs, report, &ops.fit, &ops.intervals);
  ops.cpu_seconds.push_back(
      cpu / std::max<double>(1.0, static_cast<double>(ops.seconds.size())));

  ReportEndToEnd(ops, setup_seconds, report);
  if (!args.trace) return tpcp::Status::OK();

  JobLog log;
  TPCP_ASSIGN_OR_RETURN(Daemon traced, StartDaemon(&log));
  const StorageSnapshot data_before = DataCounters().Snapshot();
  const StorageSnapshot state_before = StateCounters().Snapshot();
  std::vector<JobSample> traced_jobs;
  RunLoop(traced, args.seed,
          After(Clock::now(), args.seconds - untraced_seconds), &traced_jobs);
  Stop(&traced);
  const StorageSnapshot state = StateCounters().Snapshot() - state_before;
  const StorageSnapshot data = DataCounters().Snapshot() - data_before;
  double traced_fit = 0.0;
  const std::vector<double> traced_latency =
      CheckJobs(traced_jobs, report, &traced_fit, nullptr);
  if (!ops.seconds.empty() && !traced_latency.empty() &&
      !SameBits(traced_fit, ops.fit)) {
    report->Fail("traced jobs' fit differs from untraced jobs' fit");
  }

  std::vector<double> submit_rpc, queue_wait, run, overhead;
  for (const JobSample& job : traced_jobs) {
    Clock::time_point started, succeeded;
    if (!job.error.empty() || !log.Find(job.id, &started, &succeeded)) continue;
    submit_rpc.push_back(job.submit_rpc_seconds);
    queue_wait.push_back(SecondsBetween(job.submitted, started));
    run.push_back(SecondsBetween(started, succeeded));
    overhead.push_back(job.latency_seconds - run.back());
  }
  const double n = std::max<double>(1.0, traced_latency.size());
  report->Set("core.surrogate_fit", traced_fit);
  ReportStorage(data + state, n, report);
  report->Set("server.submit_rpc_s", Median(submit_rpc));
  report->Set("server.queue_wait_s", Median(queue_wait));
  report->Set("server.run_s", Median(run));
  report->Set("server.overhead_s", Median(overhead));
  report->Set("server.state_writes_per_job", state.write_ops / n);
  report->Set("trace.overhead_s",
              Median(traced_latency) - Median(ops.seconds));

  const tpcp::GridPartition grid = tpcp::GridPartition::Uniform(
      tpcp::Shape({kJobDim, kJobDim, kJobDim}), kJobParts);
  report->Set("kernel.phase1_gflop",
              Phase1Gflop(grid, kJobRank, kJobPhase1Iterations));
  report->Set("kernel.phase2_gflop",
              Phase2Gflop(grid, kJobRank, kJobVirtualIterations));

  // The job's input generation, replayed outside the daemon (inside it,
  // generation runs within the submit RPC).
  std::vector<double> generate_seconds;
  for (int i = 0; i < 5; ++i) {
    TPCP_ASSIGN_OR_RETURN(tpcp::OpenedEnv env, tpcp::OpenEnv("mem://"));
    TPCP_ASSIGN_OR_RETURN(tpcp::BlockTensorStore store,
                          tpcp::BlockTensorStore::Create(env.get(), "t", grid));
    tpcp::LowRankSpec spec;
    spec.shape = grid.tensor_shape();
    spec.rank = kJobRank;
    spec.noise_level = 0.05;
    spec.seed = args.seed;
    const Clock::time_point start = Clock::now();
    TPCP_RETURN_IF_ERROR(tpcp::GenerateLowRankIntoStore(spec, &store));
    generate_seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  report->Set("data.generate_s", Median(generate_seconds));
  return tpcp::Status::OK();
}

}  // namespace perfbench
