#include "grid/manifest.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/block_factors.h"
#include "data/synthetic.h"
#include "grid/block_tensor_store.h"

namespace tpcp {
namespace {

GridPartition TestGrid() {
  return GridPartition(Shape({10, 9, 7}), {3, 2, 2});
}

TEST(StoreManifestTest, RoundTrip) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kTensorKind;
  manifest.grid = TestGrid();
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, StoreManifest::kTensorKind);
  EXPECT_TRUE(parsed->grid == manifest.grid);
  EXPECT_EQ(parsed->rank, 0);
}

TEST(StoreManifestTest, FactorsRoundTripKeepsRank) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 12;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, StoreManifest::kFactorsKind);
  EXPECT_EQ(parsed->rank, 12);
}

TEST(StoreManifestTest, GarbageIsCorruption) {
  for (const char* bytes :
       {"", "not a manifest",
        "tpcp-manifest 5\nkind tensor\n",           // missing geometry
        "tpcp-manifest 5\nkind what\nshape 4\nparts 2\n",
        "tpcp-manifest 5\nkind tensor\nshape 4 4\nparts 8 8\n",  // parts>dim
        "tpcp-manifest 5\nkind factors\nshape 4 4\nparts 2 2\n",  // no rank
        "tpcp-manifest 5\nkind tensor\nshape 4 4\nparts 2 2\nwat 1\n"}) {
    auto parsed = StoreManifest::Parse(bytes);
    EXPECT_FALSE(parsed.ok()) << "'" << bytes << "'";
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorruption()) << bytes;
    }
  }
}

TEST(StoreManifestTest, NewerVersionIsIncompatibleNotCorrupt) {
  auto parsed = StoreManifest::Parse("tpcp-manifest 6\nkind tensor\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreManifestTest, OlderVersionsAreIncompatibleNotCorrupt) {
  // Only the current version is read: well-formed manifests of versions
  // 1-4 are refused as incompatible, never parsed with defaults.
  for (int version = 1; version <= 4; ++version) {
    auto parsed = StoreManifest::Parse(
        "tpcp-manifest " + std::to_string(version) +
        "\nkind factors\nshape 10 9 7\nparts 3 2 2\nrank 4\n");
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition)
        << "version " << version;
  }
}

TEST(StoreManifestTest, SlabFormatRoundTrips) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kTensorKind;
  manifest.grid = TestGrid();
  for (SlabFormat format :
       {SlabFormat::kDense, SlabFormat::kCoo, SlabFormat::kCsf}) {
    manifest.format = format;
    const std::string bytes = manifest.Serialize();
    // Dense is the implicit default: no key.
    EXPECT_EQ(bytes.find("format") != std::string::npos,
              format != SlabFormat::kDense);
    auto parsed = StoreManifest::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->format, format);
  }
}

TEST(StoreManifestTest, BadSlabFormatValueIsCorruption) {
  auto parsed = StoreManifest::Parse(
      "tpcp-manifest 5\nkind tensor\nshape 10 9 7\nparts 3 2 2\n"
      "format lzma\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(StoreManifestTest, PlanFingerprintRoundTrips) {
  // The execution-plan fingerprint serializes bit for bit.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 3;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "fo";
  ckpt.iteration = 1;
  ckpt.cursor = 9;
  ckpt.fit_trace = {0.25};
  ckpt.plan_fingerprint = 0xdeadbeefcafef00dull;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->plan_fingerprint, 0xdeadbeefcafef00dull);
}

TEST(StoreManifestTest, OwnershipFingerprintRoundTrips) {
  // The dist ownership-map fingerprint serializes bit for bit.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 3;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "mc";
  ckpt.iteration = 1;
  ckpt.cursor = 7;
  ckpt.fit_trace = {0.5};
  ckpt.ownership_fingerprint = 0x0123456789abcdefull;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->ownership_fingerprint,
            0x0123456789abcdefull);
}

TEST(StoreManifestTest, CheckpointMissingAKeyIsCorruption) {
  // Every writer records all seven ckpt_* keys; a checkpoint without one
  // — in particular the plan or options fingerprint the resume checks
  // rest on — is damage, not an older format.
  const std::string base =
      "tpcp-manifest 5\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n";
  const std::vector<std::string> keys = {
      "ckpt_schedule zo\n",     "ckpt_iteration 1\n",
      "ckpt_cursor 4\n",        "ckpt_fingerprint 11\n",
      "ckpt_plan 22\n",         "ckpt_ownership 0\n",
      "ckpt_fit 0.5\n"};
  std::string complete;
  for (const std::string& key : keys) complete += key;
  auto parsed = StoreManifest::Parse(base + complete);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->options_fingerprint, 11u);
  EXPECT_EQ(parsed->checkpoint->plan_fingerprint, 22u);

  for (size_t missing = 0; missing < keys.size(); ++missing) {
    std::string bytes = base;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i != missing) bytes += keys[i];
    }
    auto incomplete = StoreManifest::Parse(bytes);
    ASSERT_FALSE(incomplete.ok()) << "without " << keys[missing];
    EXPECT_TRUE(incomplete.status().IsCorruption())
        << "without " << keys[missing] << ": "
        << incomplete.status().ToString();
  }
}

TEST(StoreManifestTest, CheckpointRoundTrip) {
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 5;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "ho";
  ckpt.iteration = 3;
  ckpt.cursor = 23;
  ckpt.fit_trace = {0.5123456789012345, 0.75, 0.8000000000000007};
  manifest.checkpoint = ckpt;

  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->schedule, "ho");
  EXPECT_EQ(parsed->checkpoint->iteration, 3);
  EXPECT_EQ(parsed->checkpoint->cursor, 23);
  // Bit-exact doubles: resume must replay the same trace.
  EXPECT_EQ(parsed->checkpoint->fit_trace, ckpt.fit_trace);
}

TEST(StoreManifestTest, EmptyFitTraceCheckpointRoundTrips) {
  // A job cancelled inside its first virtual iteration has a cursor but
  // no completed-iteration fits yet.
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = TestGrid();
  manifest.rank = 2;
  Phase2Checkpoint ckpt;
  ckpt.schedule = "zo";
  ckpt.iteration = 0;
  ckpt.cursor = 2;
  manifest.checkpoint = ckpt;
  auto parsed = StoreManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->checkpoint.has_value());
  EXPECT_EQ(parsed->checkpoint->cursor, 2);
  EXPECT_TRUE(parsed->checkpoint->fit_trace.empty());
}

TEST(StoreManifestTest, MalformedCheckpointIsCorruption) {
  const std::string base =
      "tpcp-manifest 5\nkind factors\nshape 4 4\nparts 2 2\nrank 2\n";
  const std::string fingerprints =
      "ckpt_fingerprint 1\nckpt_plan 2\nckpt_ownership 0\n";
  for (const std::string& extra :
       {std::string("ckpt_cursor 3\n"),  // no schedule / fit line
        std::string("ckpt_schedule zo\nckpt_iteration 2\nckpt_cursor 9\n"
                    "ckpt_fit 0.5\n") +
            fingerprints,  // trace size != iteration
        std::string("ckpt_schedule zo\nckpt_iteration -1\nckpt_cursor 0\n"
                    "ckpt_fit\n") +
            fingerprints,
        std::string("ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\n"
                    "ckpt_fit wat\n") +
            fingerprints}) {
    auto parsed = StoreManifest::Parse(base + extra);
    EXPECT_FALSE(parsed.ok()) << extra;
    if (!parsed.ok()) EXPECT_TRUE(parsed.status().IsCorruption()) << extra;
  }
  // Checkpoints belong to factor stores only.
  auto tensor_ckpt = StoreManifest::Parse(
      "tpcp-manifest 5\nkind tensor\nshape 4 4\nparts 2 2\n"
      "ckpt_schedule zo\nckpt_iteration 0\nckpt_cursor 0\nckpt_fit\n" +
      fingerprints);
  ASSERT_FALSE(tensor_ckpt.ok());
  EXPECT_TRUE(tensor_ckpt.status().IsCorruption());
}

TEST(BlockTensorStoreManifestTest, NewerManifestIsNeverClobbered) {
  auto env = NewMemEnv();
  const std::string future = "tpcp-manifest 6\nkind tensor\nfrobnicate 7\n";
  ASSERT_TRUE(env->WriteFile("t/MANIFEST", future).ok());
  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  // The future-version manifest survives untouched.
  std::string bytes;
  ASSERT_TRUE(env->ReadFile("t/MANIFEST", &bytes).ok());
  EXPECT_EQ(bytes, future);
}

TEST(BlockTensorStoreManifestTest, CreateWritesOpenReads) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  auto created = BlockTensorStore::Create(env.get(), "t", grid);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_TRUE(env->FileExists("t/MANIFEST"));

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
}

TEST(BlockTensorStoreManifestTest, OpenReadsOnlyTheManifest) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  ASSERT_TRUE(BlockTensorStore::Create(env.get(), "t", grid).ok());
  // No blocks exist: the geometry comes from the manifest alone.
  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
}

/// Every file under `prefix` with its bytes.
std::map<std::string, std::string> Snapshot(Env* env,
                                            const std::string& prefix) {
  std::map<std::string, std::string> files;
  for (const std::string& name : env->ListFiles(prefix)) {
    EXPECT_TRUE(env->ReadFile(name, &files[name]).ok()) << name;
  }
  return files;
}

/// A tensor store whose blocks were written through the manifest-less
/// constructor: block files, no MANIFEST.
void WriteBlocksWithoutManifest(Env* env) {
  BlockTensorStore blocks(env, "t", TestGrid());
  LowRankSpec spec;
  spec.shape = TestGrid().tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  ASSERT_TRUE(blocks.ImportTensor(MakeLowRankTensor(spec)).ok());
}

TEST(BlockTensorStoreManifestTest, OpenWithoutManifestIsNotFound) {
  auto env = NewMemEnv();
  WriteBlocksWithoutManifest(env.get());
  ASSERT_FALSE(env->FileExists("t/MANIFEST"));
  const auto before = Snapshot(env.get(), "t/");

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
  // Block files are never read for geometry, and nothing is written.
  EXPECT_EQ(Snapshot(env.get(), "t/"), before);
}

TEST(BlockTensorStoreManifestTest, OpenWithDamagedManifestIsCorruption) {
  auto env = NewMemEnv();
  WriteBlocksWithoutManifest(env.get());
  ASSERT_TRUE(env->WriteFile("t/MANIFEST", "scribbled over").ok());
  const auto before = Snapshot(env.get(), "t/");

  auto opened = BlockTensorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  // The damaged manifest is reported, not healed over.
  EXPECT_EQ(Snapshot(env.get(), "t/"), before);
}

TEST(BlockTensorStoreManifestTest, SparseFormatsReadBackBitIdentical) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  const DenseTensor tensor = MakeLowRankTensor(spec);

  auto dense = BlockTensorStore::Create(env.get(), "d", grid);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(dense->ImportTensor(tensor).ok());
  for (SlabFormat format : {SlabFormat::kCoo, SlabFormat::kCsf}) {
    const std::string prefix =
        format == SlabFormat::kCoo ? "coo" : "csf";
    auto store = BlockTensorStore::Create(env.get(), prefix, grid, format);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->format(), format);
    ASSERT_TRUE(store->ImportTensor(tensor).ok());
    // Reopen through the manifest: the format must survive the round
    // trip, and every block must decode to the dense store's bits.
    auto opened = BlockTensorStore::Open(env.get(), prefix);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->format(), format);
    for (const BlockIndex& block : grid.AllBlocks()) {
      auto want = dense->ReadBlock(block);
      auto got = opened->ReadBlock(block);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want->NumElements(), got->NumElements());
      for (int64_t i = 0; i < want->NumElements(); ++i) {
        ASSERT_EQ(want->at_linear(i), got->at_linear(i))
            << prefix << " block i=" << i;
      }
    }
  }
}

TEST(BlockTensorStoreManifestTest, ReadBlockSparseWorksOnEveryFormat) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 7;
  const DenseTensor tensor = MakeLowRankTensor(spec);
  const BlockIndex block = grid.AllBlocks().front();
  std::vector<SparseEntry> reference;
  for (SlabFormat format :
       {SlabFormat::kDense, SlabFormat::kCoo, SlabFormat::kCsf}) {
    const std::string prefix = SlabFormatName(format);
    auto store = BlockTensorStore::Create(env.get(), prefix, grid, format);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ImportTensor(tensor).ok());
    auto sparse = store->ReadBlockSparse(block);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    if (reference.empty()) {
      reference = sparse->entries();
      ASSERT_FALSE(reference.empty());
    } else {
      // Same entries in the same lexicographic order on every format.
      ASSERT_EQ(sparse->entries().size(), reference.size()) << prefix;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(sparse->entries()[i].index, reference[i].index);
        ASSERT_EQ(sparse->entries()[i].value, reference[i].value);
      }
    }
  }
}

TEST(BlockTensorStoreManifestTest, OpenOfNothingIsNotFound) {
  auto env = NewMemEnv();
  auto opened = BlockTensorStore::Open(env.get(), "empty");
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound());
}

TEST(BlockTensorStoreManifestTest, CreateValidatesArguments) {
  auto env = NewMemEnv();
  EXPECT_EQ(BlockTensorStore::Create(nullptr, "t", TestGrid())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockTensorStore::Create(env.get(), "", TestGrid())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockTensorStore::Create(env.get(), "t", GridPartition())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockFactorStoreManifestTest, CreateOpenRoundTrip) {
  auto env = NewMemEnv();
  const GridPartition grid = TestGrid();
  auto created = BlockFactorStore::Create(env.get(), "f", grid, 4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto opened = BlockFactorStore::Open(env.get(), "f");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->grid() == grid);
  EXPECT_EQ(opened->rank(), 4);
}

TEST(BlockFactorStoreManifestTest, CreateValidatesRank) {
  auto env = NewMemEnv();
  auto bad = BlockFactorStore::Create(env.get(), "f", TestGrid(), 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockFactorStoreManifestTest, OpenRejectsTensorStore) {
  auto env = NewMemEnv();
  ASSERT_TRUE(BlockTensorStore::Create(env.get(), "t", TestGrid()).ok());
  auto opened = BlockFactorStore::Open(env.get(), "t");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tpcp
