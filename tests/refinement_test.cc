// Unit tests for RefinementState — the Phase-2 update rule in isolation.

#include "core/refinement_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<BlockTensorStore> input;
  std::unique_ptr<BlockFactorStore> factors;
  GridPartition grid;
};

// Stages Phase-1 factors for a small low-rank tensor.
Fixture MakeFixture(int64_t rank, uint64_t seed) {
  Fixture f;
  f.env = NewMemEnv();
  f.grid = GridPartition::Uniform(Shape({8, 8, 8}), 2);
  f.input = std::make_unique<BlockTensorStore>(f.env.get(), "t", f.grid);
  LowRankSpec spec;
  spec.shape = f.grid.tensor_shape();
  spec.rank = rank;
  spec.seed = seed;
  TPCP_CHECK(GenerateLowRankIntoStore(spec, f.input.get()).ok());
  f.factors = std::make_unique<BlockFactorStore>(f.env.get(), "f", f.grid,
                                                 rank);
  TwoPhaseCpOptions options;
  options.rank = rank;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  TPCP_CHECK(engine.RunPhase1().ok());
  return f;
}

TEST(RefinementStateTest, InitializePersistsSeededSubFactors) {
  Fixture f = MakeFixture(2, 1);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      auto a = f.factors->ReadSubFactor(mode, part);
      ASSERT_TRUE(a.ok());
      // Seed = the first block of the slab.
      const BlockIndex first = f.factors->SlabBlocks(mode, part).front();
      auto u = f.factors->ReadBlockFactor(first, mode);
      ASSERT_TRUE(u.ok());
      EXPECT_TRUE(*a == *u);
    }
  }
}

TEST(RefinementStateTest, LoadEvictRoundTrip) {
  Fixture f = MakeFixture(2, 2);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{0, 1};
  EXPECT_FALSE(state.IsResident(unit));
  ASSERT_TRUE(state.LoadUnit(unit).ok());
  EXPECT_TRUE(state.IsResident(unit));
  ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/false).ok());
  EXPECT_FALSE(state.IsResident(unit));
}

TEST(RefinementStateTest, DirtyEvictPersistsUpdatedFactor) {
  Fixture f = MakeFixture(2, 3);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{1, 0};
  auto before = f.factors->ReadSubFactor(1, 0);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(state.LoadUnit(unit).ok());
  UpdateStep step;
  step.block = {0, 0, 0};
  step.mode = 1;
  state.ApplyUpdate(step);
  EXPECT_EQ(state.updates_applied(), 1);
  ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/true).ok());

  auto after = f.factors->ReadSubFactor(1, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(*after == *before);  // the update changed the factor
}

/// Forwards to a base Env; once armed, every WriteFile announces itself and
/// then blocks until released, holding a writeback mid-flight.
class BlockingWriteEnv : public Env {
 public:
  explicit BlockingWriteEnv(Env* base) : base_(base) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitUntilWriting() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return writing_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  Status WriteFile(const std::string& name,
                   const std::string& data) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        writing_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    return base_->WriteFile(name, data);
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    return base_->ReadFile(name, out);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  Result<uint64_t> FileSize(const std::string& name) override {
    return base_->FileSize(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) override {
    return base_->ListFiles(prefix);
  }

 private:
  Env* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool writing_ = false;
  bool released_ = false;
};

// A dist worker uploads CurrentSubFactor at persist boundaries while its
// pipeline may be writing the same unit back on an I/O thread. Until that
// write lands, the store still holds the old A, so the resident copy must
// stay visible.
TEST(RefinementStateTest, CurrentSubFactorSeesUpdateDuringWriteback) {
  Fixture f = MakeFixture(2, 3);
  BlockingWriteEnv env(f.env.get());
  BlockFactorStore factors(&env, "f", f.grid, 2);
  RefinementState state(&factors);
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{1, 0};
  ASSERT_TRUE(state.LoadUnit(unit).ok());
  UpdateStep step;
  step.block = {0, 0, 0};
  step.mode = 1;
  state.ApplyUpdate(step);
  auto updated = state.CurrentSubFactor(unit);
  ASSERT_TRUE(updated.ok());
  auto stored = factors.ReadSubFactor(1, 0);
  ASSERT_TRUE(stored.ok());
  ASSERT_FALSE(*stored == *updated);

  env.Arm();
  Status evicted;
  std::thread writeback(
      [&] { evicted = state.EvictUnit(unit, /*dirty=*/true); });
  env.WaitUntilWriting();
  auto during = state.CurrentSubFactor(unit);
  env.Release();
  writeback.join();
  ASSERT_TRUE(evicted.ok()) << evicted.ToString();
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(*during == *updated);
}

TEST(RefinementStateTest, UpdatesImproveSurrogateFit) {
  Fixture f = MakeFixture(2, 4);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const double initial = state.SurrogateFit();
  // One full mode-centric sweep.
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      const ModePartition unit{mode, part};
      ASSERT_TRUE(state.LoadUnit(unit).ok());
      UpdateStep step;
      step.block = {0, 0, 0};
      step.block[static_cast<size_t>(mode)] = part;
      step.mode = mode;
      state.ApplyUpdate(step);
      ASSERT_TRUE(state.EvictUnit(unit, true).ok());
    }
  }
  EXPECT_GE(state.SurrogateFit(), initial - 1e-9);
}

TEST(RefinementStateTest, RepeatedUpdatesAreStable) {
  // Applying the same update many times must not blow up (the pinv + ridge
  // safeguards): the surrogate fit sequence stays bounded and monotone
  // after the first application.
  Fixture f = MakeFixture(2, 5);
  RefinementState state(f.factors.get(), /*ridge=*/1e-3);
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{2, 1};
  ASSERT_TRUE(state.LoadUnit(unit).ok());
  UpdateStep step;
  step.block = {0, 0, 1};
  step.mode = 2;
  double prev = -1e30;
  for (int i = 0; i < 10; ++i) {
    state.ApplyUpdate(step);
    const double fit = state.SurrogateFit();
    EXPECT_TRUE(std::isfinite(fit));
    EXPECT_GE(fit, prev - 1e-9);
    prev = fit;
  }
}

TEST(RefinementStateTest, UpdateOnNonResidentUnitDies) {
  Fixture f = MakeFixture(2, 6);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  UpdateStep step;
  step.block = {0, 0, 0};
  step.mode = 0;
  EXPECT_DEATH(state.ApplyUpdate(step), "non-resident");
}

TEST(RefinementStateTest, SurrogateFitNearBlockFitQuality) {
  // For an exactly low-rank tensor whose blocks decompose near-perfectly,
  // the initial surrogate norm matches the tensor norm closely.
  Fixture f = MakeFixture(3, 7);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const double fit = state.SurrogateFit();
  EXPECT_TRUE(std::isfinite(fit));
  EXPECT_LE(fit, 1.0);
}

TEST(RefinementStateTest, ResumeUsesPersistedSubFactors) {
  Fixture f = MakeFixture(2, 8);
  // Run a few updates and flush the dirty unit, as an interrupted Phase 2
  // would have.
  {
    RefinementState state(f.factors.get());
    ASSERT_TRUE(state.Initialize().ok());
    const ModePartition unit{0, 0};
    ASSERT_TRUE(state.LoadUnit(unit).ok());
    UpdateStep step;
    step.block = {0, 0, 0};
    step.mode = 0;
    state.ApplyUpdate(step);
    ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/true).ok());
  }
  auto persisted = f.factors->ReadSubFactor(0, 0);
  ASSERT_TRUE(persisted.ok());

  // A fresh Initialize would overwrite A with the Phase-1 seed; resume
  // must keep the refined value.
  RefinementState resumed(f.factors.get());
  ASSERT_TRUE(resumed.Initialize(/*resume=*/true).ok());
  auto after = f.factors->ReadSubFactor(0, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after == *persisted);
}

TEST(RefinementStateTest, ResumeFailsWithoutPersistedSubFactors) {
  Fixture f = MakeFixture(2, 9);
  RefinementState state(f.factors.get());
  // No prior Initialize: the store has block factors but no sub-factors.
  EXPECT_TRUE(state.Initialize(/*resume=*/true).IsNotFound());
}

}  // namespace
}  // namespace tpcp
