#include "api/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/progress_observer.h"
#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

LowRankSpec TestSpec() {
  LowRankSpec spec;
  spec.shape = Shape({12, 12, 12});
  spec.rank = 3;
  spec.noise_level = 0.0;
  spec.seed = 3;
  return spec;
}

TwoPhaseCpOptions TestOptions() {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 40;
  options.max_virtual_iterations = 25;
  options.fit_tolerance = 1e-4;
  options.buffer_fraction = 0.5;
  return options;
}

TEST(SolverRegistryTest, BuiltinsRegistered) {
  const std::vector<std::string> names = Session::Solvers();
  for (const char* expected :
       {"2pcp", "naive-oocp", "grid-parafac", "haten2"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(SolverRegistryTest, UnknownSolverIsInvalidArgument) {
  auto solver = SolverRegistry::Global().Create("definitely-not-a-solver");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solver.status().message().find("2pcp"), std::string::npos);
}

TEST(SessionTest, OpenRejectsBadUriAndPrefixes) {
  EXPECT_EQ(Session::Open({"not-a-uri"}).status().code(),
            StatusCode::kInvalidArgument);
  SessionOptions same_prefix;
  same_prefix.tensor_prefix = same_prefix.factor_prefix = "x";
  EXPECT_EQ(Session::Open(same_prefix).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, DecomposeWithoutDataIsNotFound) {
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto result = (*session)->Decompose("2pcp", TestOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(SessionTest, InvalidRankRejectedBeforeRunning) {
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(Shape({8, 8, 8}), 2);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE((*session)->CreateTensorStore(*grid).ok());
  TwoPhaseCpOptions options = TestOptions();
  options.rank = 0;
  auto result = (*session)->Decompose("2pcp", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The acceptance bar for the facade: a Session-driven 2PCP run is
// bit-identical to the direct TwoPhaseCp wiring, sub-factor by sub-factor.
TEST(SessionTest, SessionRunMatchesDirectApiBitForBit) {
  const LowRankSpec spec = TestSpec();
  const TwoPhaseCpOptions options = TestOptions();
  const DenseTensor tensor = MakeLowRankTensor(spec);

  // Direct (legacy) wiring.
  auto direct_env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(spec.shape, 2);
  BlockTensorStore direct_input(direct_env.get(), "tensor", grid);
  ASSERT_TRUE(direct_input.ImportTensor(tensor).ok());
  BlockFactorStore direct_factors(direct_env.get(), "factors", grid,
                                  options.rank);
  TwoPhaseCp engine(&direct_input, &direct_factors, options);
  auto direct = engine.Run();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Session wiring.
  auto session = Session::Open({"mem://"});
  ASSERT_TRUE(session.ok());
  auto store = (*session)->CreateTensorStore(grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(tensor).ok());
  auto result = (*session)->Decompose("2pcp", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->solver, "2pcp");
  EXPECT_EQ(result->virtual_iterations, engine.result().virtual_iterations);
  EXPECT_EQ(result->fit_trace, engine.result().fit_trace);

  // Factor stores agree byte-for-byte.
  BlockFactorStore* session_factors = (*session)->factor_store();
  ASSERT_NE(session_factors, nullptr);
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto lhs = direct_factors.ReadSubFactor(mode, part);
      auto rhs = session_factors->ReadSubFactor(mode, part);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
    }
  }
}

TEST(SessionTest, NaiveOocpRunsThroughRegistry) {
  const LowRankSpec spec = TestSpec();
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());

  auto result = (*session)->Decompose("naive-oocp", TestOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->solver, "naive-oocp");
  EXPECT_GT(result->virtual_iterations, 0);
  EXPECT_GT(result->bytes_streamed, 0u);
  EXPECT_GT(Fit(MakeLowRankTensor(spec), result->decomposition), 0.9);
  // One-shot baselines write no factors, so no factor store (or manifest
  // claiming one) may be left behind.
  EXPECT_EQ((*session)->factor_store(), nullptr);
  EXPECT_FALSE((*session)->env()->FileExists("factors/MANIFEST"));
}

TEST(SessionTest, GridParafacPinsModeCentricLru) {
  const LowRankSpec spec = TestSpec();
  const DenseTensor tensor = MakeLowRankTensor(spec);
  const GridPartition grid = GridPartition::Uniform(spec.shape, 2);
  const auto solve = [&](const std::string& solver,
                         const TwoPhaseCpOptions& options) {
    auto session = Session::Open({});
    EXPECT_TRUE(session.ok());
    auto store = (*session)->CreateTensorStore(grid);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE((*store)->ImportTensor(tensor).ok());
    auto result = (*session)->Decompose(solver, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : SolveResult();
  };

  // Deliberately request HO+FOR; the solver must pin MC+LRU regardless.
  TwoPhaseCpOptions options = TestOptions();
  options.schedule = ScheduleType::kHilbertOrder;
  options.policy = PolicyType::kForward;
  const SolveResult baseline = solve("grid-parafac", options);
  EXPECT_EQ(baseline.solver, "grid-parafac");
  EXPECT_GT(baseline.surrogate_fit, 0.8);

  // The pin is exact: 2pcp run with MC+LRU gives bit-identical factors.
  options.schedule = ScheduleType::kModeCentric;
  options.policy = PolicyType::kLru;
  const SolveResult pinned = solve("2pcp", options);
  EXPECT_EQ(baseline.fit_trace, pinned.fit_trace);
  ASSERT_EQ(baseline.decomposition.num_modes(),
            pinned.decomposition.num_modes());
  for (int mode = 0; mode < pinned.decomposition.num_modes(); ++mode) {
    EXPECT_TRUE(baseline.decomposition.factor(mode) ==
                pinned.decomposition.factor(mode))
        << "mode " << mode;
  }
  EXPECT_EQ(baseline.decomposition.lambda(), pinned.decomposition.lambda());
}

TEST(SessionTest, Haten2SolverReportsShuffleAccounting) {
  LowRankSpec spec = TestSpec();
  spec.shape = Shape({8, 8, 8});
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());

  TwoPhaseCpOptions options = TestOptions();
  options.max_virtual_iterations = 1;  // one MapReduce ALS sweep
  auto result = (*session)->Decompose("haten2", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->solver, "haten2");
  EXPECT_FALSE(result->failed);
  EXPECT_GT(result->mapreduce_jobs, 0u);
  EXPECT_GT(result->shuffle_bytes, 0u);
}

TEST(SessionTest, Haten2HeapCapFailureIsReportedNotAnError) {
  LowRankSpec spec = TestSpec();
  spec.shape = Shape({10, 10, 10});
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());

  TwoPhaseCpOptions options = TestOptions();
  options.max_virtual_iterations = 1;
  auto result = (*session)->Decompose("haten2", options,
                                      {{"heap_cap_bytes", "1024"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->failed);
  EXPECT_FALSE(result->failure.empty());
}

TEST(SessionTest, FailedRunLeavesNoFactorManifest) {
  // Stage through a faulty env that dies mid-Phase-1: the factor store's
  // manifest must only exist after a successful run, never describe
  // half-written factors.
  auto session =
      Session::Open({"faulty+mem://?fail_writes_after=12"});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(Shape({8, 8, 8}), 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);  // 1 manifest write
  ASSERT_TRUE(store.ok());
  LowRankSpec spec;
  spec.shape = Shape({8, 8, 8});
  spec.rank = 2;
  spec.seed = 1;
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());  // 8

  TwoPhaseCpOptions options = TestOptions();
  options.rank = 2;
  auto result = (*session)->Decompose("2pcp", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_FALSE((*session)->env()->FileExists("factors/MANIFEST"));
  EXPECT_EQ((*session)->factor_store(), nullptr);
}

TEST(SessionTest, SuccessfulRunWritesFactorManifest) {
  const LowRankSpec spec = TestSpec();
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());
  ASSERT_TRUE((*session)->Decompose("2pcp", TestOptions()).ok());
  auto reopened = BlockFactorStore::Open((*session)->env(), "factors");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->rank(), TestOptions().rank);
}

TEST(SessionTest, UnknownSolverParamRejected) {
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(Shape({8, 8, 8}), 2);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE((*session)->CreateTensorStore(*grid).ok());
  auto result =
      (*session)->Decompose("2pcp", TestOptions(), {{"warp", "9"}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- Observer events ----

struct Event {
  enum Kind { kPhase1Block, kPhase1Done, kVirtualIteration, kPhase2Done };
  Kind kind;
  int64_t a = 0;  // done / iteration
  int64_t b = 0;  // total / swap_ins
  double fit = 0.0;
};

class RecordingObserver : public ProgressObserver {
 public:
  void OnPhase1BlockDone(int64_t done, int64_t total,
                         double block_fit) override {
    events.push_back({Event::kPhase1Block, done, total, block_fit});
  }
  void OnPhase1Done(double seconds, double mean_block_fit) override {
    (void)seconds;
    events.push_back({Event::kPhase1Done, 0, 0, mean_block_fit});
  }
  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override {
    events.push_back({Event::kVirtualIteration, iteration,
                      static_cast<int64_t>(swap_ins), surrogate_fit});
  }
  void OnPhase2Done(int virtual_iterations, bool converged,
                    double surrogate_fit, const BufferStats& stats) override {
    (void)converged;
    (void)stats;
    events.push_back({Event::kPhase2Done, virtual_iterations, 0,
                      surrogate_fit});
  }

  std::vector<Event> events;
};

TEST(ProgressObserverTest, EventsArriveInDocumentedOrder) {
  const LowRankSpec spec = TestSpec();
  auto session = Session::Open({});
  ASSERT_TRUE(session.ok());
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  ASSERT_TRUE(grid.ok());
  auto store = (*session)->CreateTensorStore(*grid);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->ImportTensor(MakeLowRankTensor(spec)).ok());

  RecordingObserver observer;
  TwoPhaseCpOptions options = TestOptions();
  options.observer = &observer;
  options.num_threads = 4;  // Phase-1 events stay serialized and complete
  auto result = (*session)->Decompose("2pcp", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto& events = observer.events;
  const int64_t blocks = grid->NumBlocks();
  ASSERT_GE(static_cast<int64_t>(events.size()), blocks + 3);

  // Phase-1 block events first: cumulative `done` 1..blocks, then the
  // phase-1 summary.
  for (int64_t i = 0; i < blocks; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].kind, Event::kPhase1Block);
    EXPECT_EQ(events[static_cast<size_t>(i)].a, i + 1);
    EXPECT_EQ(events[static_cast<size_t>(i)].b, blocks);
  }
  EXPECT_EQ(events[static_cast<size_t>(blocks)].kind, Event::kPhase1Done);

  // Then per-virtual-iteration events with strictly increasing iteration
  // numbers and non-decreasing swap counts, closed by the phase-2 summary.
  const size_t first_vi = static_cast<size_t>(blocks) + 1;
  ASSERT_EQ(events.back().kind, Event::kPhase2Done);
  int expected_iteration = 1;
  int64_t last_swaps = 0;
  for (size_t i = first_vi; i + 1 < events.size(); ++i) {
    ASSERT_EQ(events[i].kind, Event::kVirtualIteration) << i;
    EXPECT_EQ(events[i].a, expected_iteration++);
    EXPECT_GE(events[i].b, last_swaps);
    last_swaps = events[i].b;
  }
  EXPECT_EQ(events.back().a, result->virtual_iterations);
  EXPECT_EQ(expected_iteration - 1, result->virtual_iterations);

  // The event stream and the result agree on the final fit.
  EXPECT_DOUBLE_EQ(events.back().fit, result->surrogate_fit);
}

}  // namespace
}  // namespace tpcp
