// Tenancy, scheduling and survivability of the tpcpd daemon:
//
//   * admission control rejects over-quota submits and provably bounds
//     aggregate running usage under concurrent multi-tenant load,
//   * a higher-priority job preempts a running lower-priority one within
//     one virtual iteration, and the victim later resumes bit-identically
//     to an uninterrupted run,
//   * the persisted queue survives a daemon restart: backlog re-admits,
//     the interrupted job auto-resumes from its checkpoint,
//   * the persisted job record is the JSON object poll returns, its
//     decoder rejects every truncation and mistyped field, and the record
//     and options codecs round-trip exactly (the property the resume
//     fingerprint depends on).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/names.h"
#include "core/phase2_engine.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "server/daemon.h"
#include "server/job_record.h"
#include "server/tenant.h"
#include "storage/env_uri.h"

namespace tpcp {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kParts = 2;
constexpr int kRank = 3;
constexpr uint64_t kGenSeed = 29;

/// Collects daemon log lines; the preemption tests assert on them.
struct LogCapture {
  std::mutex mu;
  std::vector<std::string> lines;
  std::function<void(const std::string&)> Sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }
  bool Contains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  /// Index of the first line containing `needle`, or -1. The fair-share
  /// test asserts on relative start order through this.
  int IndexOf(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(needle) != std::string::npos) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

/// The submit used throughout: a generated low-rank cube. `long_run`
/// pins a large fixed iteration count so the job is guaranteed to still
/// be running when the scheduler comes for it.
SubmitRequest CubeSubmit(const std::string& tenant, int priority,
                         bool long_run) {
  SubmitRequest request;
  request.tenant = tenant;
  request.priority = priority;
  request.options.rank = kRank;
  request.options.phase1_max_iterations = 10;
  request.options.max_virtual_iterations = long_run ? 400 : 6;
  request.options.fit_tolerance = -1.0;  // fixed work: never converge early
  request.options.buffer_fraction = 0.5;
  request.generate = true;
  request.gen_dims = {kDim, kDim, kDim};
  request.gen_parts = kParts;
  request.gen_rank = kRank;
  request.gen_seed = kGenSeed;
  return request;
}

/// Uninterrupted reference run of the same job on a private mem Env,
/// mirroring the daemon's input generation exactly.
TwoPhaseCpResult ReferenceRun(Env* env, const TwoPhaseCpOptions& options) {
  auto grid = GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts);
  EXPECT_TRUE(grid.ok());
  BlockTensorStore input(env, "t", *grid);
  LowRankSpec spec;
  spec.shape = grid->tensor_shape();
  spec.rank = kRank;
  spec.noise_level = 0.05;
  spec.seed = kGenSeed;
  EXPECT_TRUE(GenerateLowRankIntoStore(spec, &input).ok());
  BlockFactorStore factors(env, "f", *grid, options.rank);
  TwoPhaseCp engine(&input, &factors, options);
  EXPECT_TRUE(engine.Run().ok());
  return engine.result();
}

/// Byte-for-byte factor comparison between the reference store ("f" in
/// `ref_env`) and the daemon job's store (`job-<id>/factors` in the
/// tenant root at `tenant_uri`).
void ExpectFactorsBitIdentical(Env* ref_env, const std::string& tenant_uri,
                               int64_t job_id) {
  auto grid = GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts);
  ASSERT_TRUE(grid.ok());
  auto tenant_env = OpenEnv(tenant_uri);
  ASSERT_TRUE(tenant_env.ok()) << tenant_env.status().ToString();
  BlockFactorStore ref_factors(ref_env, "f", *grid, kRank);
  BlockFactorStore job_factors(tenant_env->get(),
                               "job-" + std::to_string(job_id) + "/factors",
                               *grid, kRank);
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < grid->parts(mode); ++part) {
      auto lhs = ref_factors.ReadSubFactor(mode, part);
      auto rhs = job_factors.ReadSubFactor(mode, part);
      ASSERT_TRUE(lhs.ok()) << lhs.status().ToString();
      ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();
      EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
    }
  }
}

/// Polls until the job's record reaches `state` (~30 s cap).
bool AwaitState(Tpcpd* daemon, int64_t id, ServerJobState state) {
  for (int spin = 0; spin < 30000; ++spin) {
    const auto record = daemon->Poll(id);
    if (record.ok() && record->state == state) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Polls until the running job has completed at least `vi` Phase-2
/// virtual iterations — i.e. it has a live checkpoint cursor, so a
/// preemption landing now exercises checkpoint resume, not a fresh
/// restart after an interrupted Phase 1.
bool AwaitVirtualIteration(Tpcpd* daemon, int64_t id, int vi) {
  for (int spin = 0; spin < 30000; ++spin) {
    const auto progress = daemon->Progress(id);
    if (progress.ok() && progress->virtual_iteration >= vi) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(TpcpdAdmissionTest, RejectsWhatCanNeverFit) {
  TpcpdOptions options;
  TenantConfig tenant;
  tenant.name = "alice";
  tenant.quota.buffer_bytes = 4ull << 20;
  tenant.quota.threads = 2;
  options.tenants.push_back(tenant);
  options.total_buffer_bytes = 64ull << 20;
  options.total_threads = 8;
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  SubmitRequest request = CubeSubmit("alice", 0, false);
  request.options.buffer_bytes = 8ull << 20;  // twice the tenant quota
  auto over_buffer = (*daemon)->Submit(request);
  ASSERT_FALSE(over_buffer.ok());
  EXPECT_TRUE(over_buffer.status().IsResourceExhausted())
      << over_buffer.status().ToString();

  request = CubeSubmit("alice", 0, false);
  request.options.num_threads = 3;  // over the tenant's 2-thread quota
  auto over_threads = (*daemon)->Submit(request);
  ASSERT_FALSE(over_threads.ok());
  EXPECT_TRUE(over_threads.status().IsResourceExhausted());

  request = CubeSubmit("nobody", 0, false);
  EXPECT_TRUE((*daemon)->Submit(request).status().IsNotFound());

  request = CubeSubmit("alice", 0, false);
  request.solver = "no-such-solver";
  EXPECT_FALSE((*daemon)->Submit(request).ok());

  // A fitting submit still goes through after all the rejections.
  request = CubeSubmit("alice", 0, false);
  request.options.buffer_bytes = 1ull << 20;
  auto id = (*daemon)->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto record = (*daemon)->Await(*id, 120.0);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, ServerJobState::kSucceeded);
}

// A fraction-sized generate-submit is charged the pool the engine will
// size from its grid, not the tenant's whole quota, and that size is what
// the record persists — so the charge binds the run.
TEST(TpcpdAdmissionTest, FractionSubmitIsChargedTheResolvedBuffer) {
  auto grid = GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts);
  ASSERT_TRUE(grid.ok());
  TwoPhaseCpOptions full = CubeSubmit("alice", 0, false).options;
  full.buffer_fraction = 1.0;
  TwoPhaseCpOptions quarter = full;
  quarter.buffer_fraction = 0.25;
  const uint64_t full_bytes = Phase2PlannerOptions(full, *grid).buffer_bytes;
  const uint64_t quarter_bytes =
      Phase2PlannerOptions(quarter, *grid).buffer_bytes;
  ASSERT_LT(quarter_bytes, full_bytes);

  const std::string root = ::testing::TempDir() + "tpcpd_fraction_charge";
  std::filesystem::remove_all(root);
  TpcpdOptions options;
  TenantConfig tenant;
  tenant.name = "alice";
  tenant.storage_uri = "posix://" + root;
  tenant.quota.buffer_bytes = (quarter_bytes + full_bytes) / 2;
  options.tenants.push_back(tenant);
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  SubmitRequest request = CubeSubmit("alice", 0, false);
  request.options = full;
  auto rejected = (*daemon)->Submit(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_TRUE((*daemon)->List("alice", "").empty())
      << "rejected submit left job state behind";
  EXPECT_FALSE(std::filesystem::exists(root + "/job-1"))
      << "rejected submit generated its input";

  request.options = quarter;
  auto id = (*daemon)->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto record = (*daemon)->Await(*id, 120.0);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, ServerJobState::kSucceeded) << record->detail;
  EXPECT_EQ(record->budget_buffer_bytes, quarter_bytes);
  EXPECT_EQ(record->options.at("buffer_bytes"),
            std::to_string(quarter_bytes));
}

TEST(TpcpdAdmissionTest, AggregateUsageStaysBoundedUnderConcurrentLoad) {
  TpcpdOptions options;
  for (const char* name : {"alice", "bob"}) {
    TenantConfig tenant;
    tenant.name = name;
    tenant.quota.buffer_bytes = 2ull << 20;
    tenant.quota.threads = 2;
    tenant.quota.max_concurrent_jobs = 2;
    options.tenants.push_back(tenant);
  }
  options.total_buffer_bytes = 2ull << 20;
  options.total_threads = 2;
  options.max_running_jobs = 2;
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Two submitter threads race 3 jobs each into their tenant; every job
  // charges 1 MiB / 1 thread, so at most two may ever run at once.
  std::vector<int64_t> ids;
  std::mutex ids_mu;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (const char* name : {"alice", "bob"}) {
    submitters.emplace_back([&, name] {
      for (int i = 0; i < 3; ++i) {
        SubmitRequest request = CubeSubmit(name, 0, false);
        request.options.buffer_bytes = 1ull << 20;
        auto id = (*daemon)->Submit(request);
        if (!id.ok()) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.push_back(*id);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(ids.size(), 6u);
  for (const int64_t id : ids) {
    auto record = (*daemon)->Await(id, 120.0);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->state, ServerJobState::kSucceeded)
        << "job " << id << ": " << record->detail;
  }

  // The acceptance bound: the sum of running budgets never exceeded the
  // daemon totals at any point.
  EXPECT_LE((*daemon)->peak_buffer_bytes(), 2ull << 20);
  EXPECT_LE((*daemon)->peak_threads(), 2);
  EXPECT_LE((*daemon)->peak_running_jobs(), 2);
  // And the machine was actually contended, not accidentally serial.
  EXPECT_GE((*daemon)->peak_running_jobs(), 2);
}

TEST(TpcpdPreemptionTest, HighPriorityPreemptsAndVictimResumesBitIdentical) {
  const std::string root = ::testing::TempDir() + "tpcpd_preempt";
  LogCapture log;
  TpcpdOptions options;
  for (const char* name : {"alice", "bob"}) {
    TenantConfig tenant;
    tenant.name = name;
    tenant.storage_uri = "posix://" + root + "/" + name;
    options.tenants.push_back(tenant);
  }
  options.total_buffer_bytes = 256ull << 20;
  options.total_threads = 8;
  options.max_running_jobs = 1;  // one slot: priority must evict
  options.log = log.Sink();
  const std::string alice_uri = options.tenants[0].storage_uri;
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Low priority long-runner takes the only slot...
  auto low = (*daemon)->Submit(CubeSubmit("alice", 0, true));
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  ASSERT_TRUE(AwaitState(daemon->get(), *low, ServerJobState::kRunning));
  ASSERT_TRUE(AwaitVirtualIteration(daemon->get(), *low, 2));

  // ...then a high-priority job arrives and must take it over.
  auto high = (*daemon)->Submit(CubeSubmit("bob", 10, false));
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  auto high_record = (*daemon)->Await(*high, 120.0);
  ASSERT_TRUE(high_record.ok());
  EXPECT_EQ(high_record->state, ServerJobState::kSucceeded);

  auto low_record = (*daemon)->Await(*low, 120.0);
  ASSERT_TRUE(low_record.ok());
  EXPECT_EQ(low_record->state, ServerJobState::kSucceeded);
  EXPECT_EQ(low_record->preemptions, 1);
  EXPECT_TRUE(low_record->resumed)
      << "the victim must continue from its checkpoint, not restart";
  EXPECT_EQ((*daemon)->preemption_count(), 1);
  EXPECT_TRUE(log.Contains("preempts job"));
  // The cancel landed mid-run on a checkpoint (within one vi), not after
  // the victim had quietly finished.
  EXPECT_TRUE(log.Contains("preempted at vi"));
  EXPECT_TRUE(log.Contains("resumes"));

  // Preempt + resume must reproduce the uninterrupted run byte for byte.
  auto ref_env = NewMemEnv();
  const TwoPhaseCpResult reference =
      ReferenceRun(ref_env.get(), CubeSubmit("alice", 0, true).options);
  EXPECT_NEAR(low_record->fit, reference.surrogate_fit, 0.0);
  ExpectFactorsBitIdentical(ref_env.get(), alice_uri, *low);
}

TEST(TpcpdFairShareTest, LighterTenantStartsFirstAtEqualPriority) {
  LogCapture log;
  TpcpdOptions options;
  for (const char* name : {"alice", "bob"}) {
    TenantConfig tenant;
    tenant.name = name;
    options.tenants.push_back(tenant);
  }
  options.max_running_jobs = 1;  // one slot: release order is start order
  options.log = log.Sink();
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Alice burns batch time in the only slot...
  auto blocker = (*daemon)->Submit(CubeSubmit("alice", 0, true));
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  ASSERT_TRUE(AwaitState(daemon->get(), *blocker, ServerJobState::kRunning));
  ASSERT_TRUE(AwaitVirtualIteration(daemon->get(), *blocker, 2));

  // ...while one job per tenant queues up at equal priority. Alice's is
  // submitted first (lower seq), which a FIFO tie-break would reward.
  auto alice_queued = (*daemon)->Submit(CubeSubmit("alice", 0, false));
  ASSERT_TRUE(alice_queued.ok()) << alice_queued.status().ToString();
  auto bob_queued = (*daemon)->Submit(CubeSubmit("bob", 0, false));
  ASSERT_TRUE(bob_queued.ok()) << bob_queued.status().ToString();

  // Free the slot. The blocker's wall time lands on alice's fair-share
  // weight, so fresh-faced bob must start first despite his later seq.
  ASSERT_TRUE((*daemon)->Cancel(*blocker).ok());
  auto bob_record = (*daemon)->Await(*bob_queued, 120.0);
  ASSERT_TRUE(bob_record.ok());
  EXPECT_EQ(bob_record->state, ServerJobState::kSucceeded)
      << bob_record->detail;
  auto alice_record = (*daemon)->Await(*alice_queued, 120.0);
  ASSERT_TRUE(alice_record.ok());
  EXPECT_EQ(alice_record->state, ServerJobState::kSucceeded)
      << alice_record->detail;

  const int bob_start =
      log.IndexOf("job " + std::to_string(*bob_queued) + " starts");
  const int alice_start =
      log.IndexOf("job " + std::to_string(*alice_queued) + " starts");
  ASSERT_GE(bob_start, 0);
  ASSERT_GE(alice_start, 0);
  EXPECT_LT(bob_start, alice_start)
      << "the tenant with less recent consumption must go first";

  // The weight is visible to operators: both tenants have now consumed
  // batch time, and the protocol reports it.
  double alice_consumed = 0.0, bob_consumed = 0.0;
  for (const TenantStats& stats : (*daemon)->Stats()) {
    if (stats.config.name == "alice") alice_consumed = stats.consumed_seconds;
    if (stats.config.name == "bob") bob_consumed = stats.consumed_seconds;
  }
  EXPECT_GT(alice_consumed, 0.0);
  EXPECT_GT(bob_consumed, 0.0);
  const std::string response =
      (*daemon)->HandleRequest("{\"cmd\":\"tenant-stats\"}");
  EXPECT_NE(response.find("consumed_seconds"), std::string::npos) << response;
}

TEST(TpcpdRestartTest, PersistedQueueSurvivesRestartAndResumes) {
  const std::string root = ::testing::TempDir() + "tpcpd_restart";
  TpcpdOptions options;
  options.state_uri = "posix://" + root + "/state";
  TenantConfig tenant;
  tenant.name = "alice";
  tenant.storage_uri = "posix://" + root + "/alice";
  options.tenants.push_back(tenant);
  options.max_running_jobs = 1;
  const std::string alice_uri = tenant.storage_uri;
  const TpcpdOptions options_copy = options;

  int64_t interrupted = 0;
  int64_t queued = 0;
  {
    LogCapture log;
    TpcpdOptions first_options = options_copy;
    first_options.log = log.Sink();
    auto daemon = Tpcpd::Start(std::move(first_options));
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    auto a = (*daemon)->Submit(CubeSubmit("alice", 0, true));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    interrupted = *a;
    ASSERT_TRUE(AwaitState(daemon->get(), *a, ServerJobState::kRunning));
    ASSERT_TRUE(AwaitVirtualIteration(daemon->get(), *a, 2));
    auto b = (*daemon)->Submit(CubeSubmit("alice", 0, false));
    ASSERT_TRUE(b.ok());
    queued = *b;
    // Daemon goes down with one job mid-flight and one queued.
    daemon->reset();
    EXPECT_TRUE(log.Contains("parked for restart"));
  }

  LogCapture log;
  TpcpdOptions second_options = options_copy;
  second_options.log = log.Sink();
  auto daemon = Tpcpd::Start(std::move(second_options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  EXPECT_EQ((*daemon)->recovered_count(), 2);
  EXPECT_TRUE(log.Contains("recovered 2 job(s)"));

  auto a_record = (*daemon)->Await(interrupted, 120.0);
  ASSERT_TRUE(a_record.ok());
  EXPECT_EQ(a_record->state, ServerJobState::kSucceeded)
      << a_record->detail;
  EXPECT_TRUE(a_record->resumed)
      << "the restarted daemon must resume, not rerun, the parked job";
  auto b_record = (*daemon)->Await(queued, 120.0);
  ASSERT_TRUE(b_record.ok());
  EXPECT_EQ(b_record->state, ServerJobState::kSucceeded)
      << b_record->detail;

  // Resume across a process boundary is still bit-identical.
  auto ref_env = NewMemEnv();
  ReferenceRun(ref_env.get(), CubeSubmit("alice", 0, true).options);
  ExpectFactorsBitIdentical(ref_env.get(), alice_uri, interrupted);
}

// A record recovery cannot decode still owns its id: the next submit must
// neither overwrite `jobs/<id>` nor reuse the old job's store directory.
TEST(TpcpdRestartTest, UndecodableRecordKeepsItsId) {
  const std::string root = ::testing::TempDir() + "tpcpd_skipped_id";
  std::filesystem::remove_all(root);
  const std::string state_uri = "posix://" + root + "/state";
  const std::string garbage = "tpcpd-job 1\nid 7\ntenant alice\n";
  {
    auto state = OpenEnv(state_uri);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_TRUE((*state)->WriteFile("jobs/7", garbage).ok());
  }

  LogCapture log;
  TpcpdOptions options;
  options.state_uri = state_uri;
  TenantConfig tenant;
  tenant.name = "alice";
  options.tenants.push_back(tenant);
  options.log = log.Sink();
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  EXPECT_TRUE(log.Contains("skipping corrupt job record jobs/7"));
  auto id = (*daemon)->Submit(CubeSubmit("alice", 0, false));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 8);
  daemon->reset();

  auto state = OpenEnv(state_uri);
  ASSERT_TRUE(state.ok());
  std::string text;
  ASSERT_TRUE((*state)->ReadFile("jobs/7", &text).ok());
  EXPECT_EQ(text, garbage);
}

// The persisted record and the wire's "job" object are one encoding:
// `jobs/<id>` holds byte for byte what poll returns, and every field the
// wire carried before keeps its name and JSON type.
TEST(TpcpdRestartTest, PersistedRecordIsThePolledJob) {
  const std::string root = ::testing::TempDir() + "tpcpd_record_is_poll";
  std::filesystem::remove_all(root);
  TpcpdOptions options;
  options.state_uri = "posix://" + root + "/state";
  TenantConfig tenant;
  tenant.name = "alice";
  options.tenants.push_back(tenant);
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto succeeds = (*daemon)->Submit(CubeSubmit("alice", 0, false));
  ASSERT_TRUE(succeeds.ok()) << succeeds.status().ToString();
  SubmitRequest no_input = CubeSubmit("alice", 0, false);
  no_input.generate = false;  // nothing to decompose: fails with a detail
  auto fails = (*daemon)->Submit(no_input);
  ASSERT_TRUE(fails.ok()) << fails.status().ToString();
  ASSERT_TRUE((*daemon)->Await(*succeeds, 120.0).ok());
  ASSERT_TRUE((*daemon)->Await(*fails, 120.0).ok());

  auto state = OpenEnv("posix://" + root + "/state");
  ASSERT_TRUE(state.ok());
  using Kind = JsonValue::Kind;
  const std::vector<std::pair<std::string, Kind>> wire_fields = {
      {"id", Kind::kInt},          {"tenant", Kind::kString},
      {"name", Kind::kString},     {"priority", Kind::kInt},
      {"seq", Kind::kInt},         {"state", Kind::kString},
      {"preemptions", Kind::kInt}, {"resumed", Kind::kBool},
      {"solver", Kind::kString},   {"session_uri", Kind::kString},
      {"budget_buffer_bytes", Kind::kInt},
      {"budget_threads", Kind::kInt}};
  for (const int64_t id : {*succeeds, *fails}) {
    std::string persisted;
    ASSERT_TRUE(
        (*state)->ReadFile("jobs/" + std::to_string(id), &persisted).ok());
    auto response = JsonValue::Parse((*daemon)->HandleRequest(
        "{\"cmd\":\"poll\",\"job\":" + std::to_string(id) + "}"));
    ASSERT_TRUE(response.ok());
    const JsonValue* job = response->Find("job");
    ASSERT_NE(job, nullptr) << response->Serialize();
    EXPECT_EQ(job->Serialize(), persisted);
    for (const auto& [name, kind] : wire_fields) {
      const JsonValue* field = job->Find(name);
      ASSERT_NE(field, nullptr) << name;
      EXPECT_EQ(field->kind(), kind) << name;
    }
    ASSERT_NE(job->Find("fit"), nullptr);
    EXPECT_TRUE(job->Find("fit")->is_number() || job->Find("fit")->is_null());
    EXPECT_TRUE(job->Find("options")->is_object());
    EXPECT_TRUE(job->Find("params")->is_object());
  }
  auto failed = JsonValue::Parse((*daemon)->HandleRequest(
      "{\"cmd\":\"poll\",\"job\":" + std::to_string(*fails) + "}"));
  ASSERT_TRUE(failed.ok());
  const JsonValue* detail = failed->Find("job")->Find("detail");
  ASSERT_NE(detail, nullptr) << failed->Serialize();
  EXPECT_TRUE(detail->is_string());
}

// ---- codecs ----------------------------------------------------------------

ServerJobRecord FullRecord() {
  ServerJobRecord record;
  record.id = 42;
  record.tenant = "team a";  // strings keep spaces, '%', tabs and newlines
  record.name = "nightly 100% run\nwith newline";
  record.priority = -3;
  record.seq = 17;
  record.state = ServerJobState::kPreempted;
  record.preemptions = 2;
  record.resumed = true;
  record.detail = "made\troom";
  record.fit = 0.875;
  record.solver = "grid-parafac";
  record.session_uri = "posix:///data/team%20a#job-42";
  record.budget_buffer_bytes = 123456789;
  record.budget_threads = 5;
  record.options["rank"] = "7";
  record.options["schedule"] = "sn";
  record.params["grid"] = "4 4 4";
  return record;
}

TEST(JobRecordTest, EncodeDecodeRoundTripsEveryField) {
  ServerJobRecord record = FullRecord();
  const std::string text = JobRecordToJson(record).Serialize();
  auto decoded = DecodeServerJobRecord(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, record.id);
  EXPECT_EQ(decoded->tenant, record.tenant);
  EXPECT_EQ(decoded->name, record.name);
  EXPECT_EQ(decoded->priority, record.priority);
  EXPECT_EQ(decoded->seq, record.seq);
  EXPECT_EQ(decoded->state, record.state);
  EXPECT_EQ(decoded->preemptions, record.preemptions);
  EXPECT_EQ(decoded->resumed, record.resumed);
  EXPECT_EQ(decoded->detail, record.detail);
  EXPECT_EQ(decoded->fit, record.fit);
  EXPECT_EQ(decoded->solver, record.solver);
  EXPECT_EQ(decoded->session_uri, record.session_uri);
  EXPECT_EQ(decoded->budget_buffer_bytes, record.budget_buffer_bytes);
  EXPECT_EQ(decoded->budget_threads, record.budget_threads);
  EXPECT_EQ(decoded->options, record.options);
  EXPECT_EQ(decoded->params, record.params);

  // A non-finite fit persists as null, which reads back as NaN.
  record.fit = std::numeric_limits<double>::quiet_NaN();
  auto no_fit = DecodeServerJobRecord(JobRecordToJson(record).Serialize());
  ASSERT_TRUE(no_fit.ok()) << no_fit.status().ToString();
  EXPECT_TRUE(std::isnan(no_fit->fit));
}

/// `object` without its `key` member.
JsonValue Without(const JsonValue& object, const std::string& key) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : object.object_items()) {
    if (name != key) out.Set(name, value);
  }
  return out;
}

TEST(JobRecordTest, RejectsCorruptRecords) {
  ServerJobRecord record;
  record.id = 1;
  record.tenant = "alice";
  const JsonValue json = JobRecordToJson(record);
  const std::string text = json.Serialize();

  // Truncated write: the closing brace is gone.
  EXPECT_FALSE(DecodeServerJobRecord(text.substr(0, text.size() - 1)).ok());
  // Not one JSON object (the retired text format among them).
  EXPECT_FALSE(DecodeServerJobRecord("tpcpd-job 1\nid 1\nend\n").ok());
  EXPECT_FALSE(DecodeServerJobRecord("").ok());
  EXPECT_FALSE(DecodeServerJobRecord("[" + text + "]").ok());
  EXPECT_FALSE(DecodeServerJobRecord(text + text).ok());
  // Required identity fields must be present.
  for (const char* key : {"id", "tenant", "solver", "state"}) {
    const auto decoded = DecodeServerJobRecord(Without(json, key).Serialize());
    ASSERT_FALSE(decoded.ok()) << key;
    EXPECT_TRUE(decoded.status().IsCorruption()) << key;
  }
  JsonValue bad = json;
  EXPECT_FALSE(DecodeServerJobRecord(bad.Set("id", 0).Serialize()).ok());
  bad = json;
  EXPECT_FALSE(DecodeServerJobRecord(bad.Set("tenant", "").Serialize()).ok());
  // Unknown keys are skipped.
  bad = json;
  EXPECT_TRUE(
      DecodeServerJobRecord(bad.Set("from_the_future", 1).Serialize()).ok());
}

// Deterministic mutation of the one record decoder that reads from disk:
// no truncation decodes, no single-byte flip crashes it (the sanitizer
// builds run this too), and a wrongly typed field is refused, not coerced.
TEST(JobRecordTest, MutatedRecordsAreRejectedNotMisread) {
  const JsonValue json = JobRecordToJson(FullRecord());
  const std::string text = json.Serialize();
  for (size_t size = 0; size < text.size(); ++size) {
    EXPECT_FALSE(DecodeServerJobRecord(text.substr(0, size)).ok()) << size;
  }
  for (size_t i = 0; i < text.size(); ++i) {
    for (const int mask : {0x01, 0x20, 0x80, 0xff}) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      const auto decoded = DecodeServerJobRecord(flipped);
      if (!decoded.ok()) {
        EXPECT_TRUE(decoded.status().IsCorruption()) << i;
      }
    }
  }
  JsonValue rank = JsonValue::Object();
  rank.Set("rank", 7);
  const std::vector<std::pair<std::string, JsonValue>> wrong = {
      {"id", JsonValue("7")},        {"state", JsonValue("paused")},
      {"options", rank},             {"params", JsonValue("grid=4")},
      {"fit", JsonValue("high")},    {"resumed", JsonValue(1)},
      {"priority", JsonValue(1.5)},  {"budget_buffer_bytes", JsonValue(-1)},
      {"budget_threads", JsonValue(int64_t{1} << 40)}};
  for (const auto& [key, value] : wrong) {
    JsonValue bad = json;
    bad.Set(key, value);
    EXPECT_FALSE(DecodeServerJobRecord(bad.Serialize()).ok())
        << bad.Serialize();
  }
}

TEST(JobRecordTest, OptionsMapRoundTripsTheResumeFingerprint) {
  TwoPhaseCpOptions options;
  options.rank = 7;
  options.phase1_max_iterations = 11;
  options.phase1_fit_tolerance = 3e-5;
  options.phase1_ridge = 2e-3;
  options.seed = 987654321;
  options.num_threads = 3;
  const auto schedule = ScheduleTypeFromName("sn");
  ASSERT_TRUE(schedule.ok());
  options.schedule = *schedule;
  options.buffer_fraction = 0.375;
  options.buffer_bytes = 9999999;
  options.max_virtual_iterations = 55;
  options.fit_tolerance = 1.25e-3;
  options.refinement_ridge = 7e-4;
  options.prefetch_depth = 2;
  options.io_threads = 3;
  options.compute_threads = 2;
  options.plan_reorder = false;

  const auto map = OptionsToMap(options);
  const auto round = OptionsFromMap(map);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->rank, options.rank);
  EXPECT_EQ(round->phase1_max_iterations, options.phase1_max_iterations);
  EXPECT_EQ(round->phase1_fit_tolerance, options.phase1_fit_tolerance);
  EXPECT_EQ(round->phase1_ridge, options.phase1_ridge);
  EXPECT_EQ(round->seed, options.seed);
  EXPECT_EQ(round->num_threads, options.num_threads);
  EXPECT_EQ(round->schedule, options.schedule);
  EXPECT_EQ(round->buffer_fraction, options.buffer_fraction);
  EXPECT_EQ(round->buffer_bytes, options.buffer_bytes);
  EXPECT_EQ(round->max_virtual_iterations, options.max_virtual_iterations);
  EXPECT_EQ(round->fit_tolerance, options.fit_tolerance);
  EXPECT_EQ(round->refinement_ridge, options.refinement_ridge);
  EXPECT_EQ(round->prefetch_depth, options.prefetch_depth);
  EXPECT_EQ(round->io_threads, options.io_threads);
  EXPECT_EQ(round->compute_threads, options.compute_threads);
  EXPECT_EQ(round->plan_reorder, options.plan_reorder);
  // The property everything above exists for: a record-recovered job
  // fingerprints identically, so its checkpoint is honoured.
  EXPECT_EQ(round->ResumeFingerprint(), options.ResumeFingerprint());

  // The seed round-trips over its whole unsigned range.
  options.seed = UINT64_MAX;
  const auto top = OptionsFromMap(OptionsToMap(options));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->seed, options.seed);
  EXPECT_EQ(top->ResumeFingerprint(), options.ResumeFingerprint());

  EXPECT_FALSE(ApplyOption("no_such_option", "1", &options).ok());
  EXPECT_FALSE(ApplyOption("rank", "lots", &options).ok());
  EXPECT_FALSE(ApplyOption("seed", "-1", &options).ok());
  EXPECT_FALSE(ApplyOption("seed", "18446744073709551616", &options).ok());
  // An int field does not wrap: 2^32 - 1 is not prefetch depth -1.
  EXPECT_FALSE(ApplyOption("prefetch_depth", "4294967295", &options).ok());
}

TEST(JobRecordTest, OptionsFromMapValidatesRanges) {
  using Map = std::map<std::string, std::string>;
  for (const Map& bad :
       {Map{{"rank", "0"}}, Map{{"num_threads", "0"}},
        Map{{"compute_threads", "0"}}, Map{{"io_threads", "0"}},
        Map{{"prefetch_depth", "-1"}}, Map{{"max_virtual_iterations", "0"}},
        Map{{"buffer_fraction", "0"}}, Map{{"buffer_fraction", "1.5"}},
        Map{{"max_seconds", "-1"}}}) {
    const auto options = OptionsFromMap(bad);
    ASSERT_FALSE(options.ok()) << bad.begin()->first;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().message().find(bad.begin()->first),
              std::string::npos)
        << options.status().ToString();
  }
  // The retired plan-window, slab-sharding and FMA keys are unknown now,
  // even at what used to be their defaults.
  for (const char* retired :
       {"plan_reorder_window", "shard_slab_blocks", "kernel_fma"}) {
    const auto options = OptionsFromMap({{retired, "0"}});
    ASSERT_FALSE(options.ok()) << retired;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().message().find(std::string("unknown option '") +
                                              retired + "'"),
              std::string::npos)
        << options.status().ToString();
  }
  // buffer_bytes overrides the fraction; negative tolerances mean "never
  // stop early" and stay legal.
  EXPECT_TRUE(OptionsFromMap({{"buffer_fraction", "0"},
                              {"buffer_bytes", "1048576"},
                              {"fit_tolerance", "-1"},
                              {"phase1_fit_tolerance", "-1"}})
                  .ok());
}

TEST(TpcpdSubmitTest, NegativeSeedIsRejectedAtSubmit) {
  TpcpdOptions options;
  TenantConfig tenant;
  tenant.name = "alice";
  options.tenants = {tenant};
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto response = JsonValue::Parse((*daemon)->HandleRequest(
      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
      "\"options\":{\"seed\":-1}}"));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value());
  const std::string error = response->Find("error")->string_value();
  EXPECT_EQ(error.rfind("InvalidArgument", 0), 0u) << error;
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_TRUE((*daemon)->List("alice", "").empty())
      << "rejected submit left job state behind";

  // Seeds above 2^63-1 do not fit a JSON integer; they travel as strings.
  response = JsonValue::Parse((*daemon)->HandleRequest(
      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
      "\"options\":{\"seed\":\"18446744073709551615\"}}"));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->Find("ok")->bool_value()) << response->Serialize();
  const auto jobs = (*daemon)->List("alice", "");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].options.at("seed"), "18446744073709551615");
}

// Options the engine cannot run are InvalidArgument at submit. Accepted,
// the first three used to abort the whole daemon (every tenant's jobs with
// it) on a worker-thread invariant check; the fourth skipped Phase 2 and
// reported success.
TEST(TpcpdSubmitTest, OutOfRangeOptionsAreRejectedAtSubmit) {
  TpcpdOptions options;
  TenantConfig tenant;
  tenant.name = "alice";
  options.tenants = {tenant};
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (const std::string bad :
       {"{\"prefetch_depth\":-1}", "{\"compute_threads\":0}",
        "{\"io_threads\":0,\"prefetch_depth\":2}",
        "{\"max_virtual_iterations\":-3}"}) {
    auto response = JsonValue::Parse((*daemon)->HandleRequest(
        "{\"cmd\":\"submit\",\"tenant\":\"alice\",\"options\":" + bad +
        ",\"generate\":{\"dims\":[8,8,8],\"parts\":2,\"rank\":2}}"));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->Find("ok")->bool_value()) << bad;
    const JsonValue* error = response->Find("error");
    ASSERT_NE(error, nullptr) << bad;
    EXPECT_EQ(error->string_value().rfind("InvalidArgument", 0), 0u)
        << bad << ": " << error->string_value();
    EXPECT_TRUE((*daemon)->List("alice", "").empty())
        << bad << ": rejected submit left job state behind";
  }
}

TEST(TenantTest, ParseTenantSpecReadsQuotaOverrides) {
  auto spec =
      ParseTenantSpec("alice,mem://,buffer_mb=16,threads=3,max_jobs=5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "alice");
  EXPECT_EQ(spec->storage_uri, "mem://");
  EXPECT_EQ(spec->quota.buffer_bytes, 16ull << 20);
  EXPECT_EQ(spec->quota.threads, 3);
  EXPECT_EQ(spec->quota.max_concurrent_jobs, 5);
  EXPECT_FALSE(ParseTenantSpec("").ok());
  EXPECT_FALSE(ParseTenantSpec("alice,mem://,bogus=1").ok());
}

TEST(TenantTest, ParseTenantSpecReadsToken) {
  auto spec = ParseTenantSpec("vault,mem://,token=s3cret,threads=2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "vault");
  EXPECT_EQ(spec->token, "s3cret");
  EXPECT_EQ(spec->quota.threads, 2);
  // No token key: the tenant stays open.
  auto open = ParseTenantSpec("alice,mem://");
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->token.empty());
  // An empty token would mean "protected by nothing" — rejected.
  EXPECT_FALSE(ParseTenantSpec("vault,mem://,token=").ok());
}

TEST(TpcpdAuthTest, TokenProtectedTenantGuardsJobCommands) {
  TpcpdOptions options;
  TenantConfig open;
  open.name = "open";
  TenantConfig locked;
  locked.name = "locked";
  locked.token = "s3cret";
  options.tenants = {open, locked};
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Credential validation, the connection layer's entry point.
  EXPECT_TRUE((*daemon)->Authenticate("locked", "s3cret").ok());
  EXPECT_FALSE((*daemon)->Authenticate("locked", "wrong").ok());
  EXPECT_FALSE((*daemon)->Authenticate("nobody", "s3cret").ok());
  // An open tenant has nothing to authenticate against.
  EXPECT_FALSE((*daemon)->Authenticate("open", "anything").ok());

  const auto call = [&daemon](const std::string& payload,
                              const std::string& auth) {
    auto parsed = JsonValue::Parse((*daemon)->HandleRequest(payload, auth));
    EXPECT_TRUE(parsed.ok());
    return *parsed;
  };
  const auto ok = [](const JsonValue& response) {
    const JsonValue* flag = response.Find("ok");
    return flag != nullptr && flag->is_bool() && flag->bool_value();
  };

  // Submits: rejected before any job state is touched unless the
  // connection authenticated as the tenant; open tenants need nothing.
  const std::string submit_locked =
      "{\"cmd\":\"submit\",\"tenant\":\"locked\"}";
  const JsonValue rejected = call(submit_locked, "");
  EXPECT_FALSE(ok(rejected));
  EXPECT_NE(rejected.Find("error")->string_value().find(
                "requires token authentication"),
            std::string::npos);
  EXPECT_TRUE((*daemon)->List("locked", "").empty())
      << "rejected submit left job state behind";
  EXPECT_FALSE(ok(call(submit_locked, "open")));  // wrong identity
  const JsonValue admitted = call(submit_locked, "locked");
  ASSERT_TRUE(ok(admitted));
  const int64_t job = admitted.Find("job")->int_value();
  EXPECT_TRUE(ok(call("{\"cmd\":\"submit\",\"tenant\":\"open\"}", "")));

  // Job-addressed commands inherit the owner's protection.
  const std::string poll =
      "{\"cmd\":\"poll\",\"job\":" + std::to_string(job) + "}";
  EXPECT_FALSE(ok(call(poll, "")));
  EXPECT_TRUE(ok(call(poll, "locked")));
  const std::string cancel =
      "{\"cmd\":\"cancel\",\"job\":" + std::to_string(job) + "}";
  EXPECT_FALSE(ok(call(cancel, "")));
  EXPECT_TRUE(ok(call(cancel, "locked")));

  // Listing: a protected tenant's jobs are invisible to strangers —
  // filtered out of the unfiltered view, an error when asked for by name.
  const JsonValue everyone = call("{\"cmd\":\"list\"}", "");
  ASSERT_TRUE(ok(everyone));
  for (const JsonValue& record : everyone.Find("jobs")->array_items()) {
    EXPECT_EQ(record.Find("tenant")->string_value(), "open");
  }
  EXPECT_FALSE(ok(call("{\"cmd\":\"list\",\"tenant\":\"locked\"}", "")));
  const JsonValue own = call("{\"cmd\":\"list\",\"tenant\":\"locked\"}",
                             "locked");
  ASSERT_TRUE(ok(own));
  EXPECT_EQ(own.Find("jobs")->array_items().size(), 1u);
}

}  // namespace
}  // namespace tpcp
