#include <gtest/gtest.h>

#include <filesystem>

#include "storage/crc32.h"
#include "storage/env.h"
#include "storage/faulty_env.h"
#include "storage/retry_env.h"
#include "storage/serializer.h"
#include "util/random.h"

namespace tpcp {
namespace {

TEST(Crc32Test, KnownVector) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  std::string data = "hello world";
  const uint32_t base = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

class EnvTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "mem") {
      env_ = NewMemEnv();
    } else {
      root_ = std::filesystem::temp_directory_path() /
              ("tpcp_env_test_" + std::to_string(::getpid()));
      env_ = NewPosixEnv(root_.string());
    }
  }
  void TearDown() override {
    env_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<Env> env_;
  std::filesystem::path root_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(env_->WriteFile("a/b/file", "payload").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("a/b/file", &out).ok());
  EXPECT_EQ(out, "payload");
}

TEST_P(EnvTest, ReadMissingIsNotFound) {
  std::string out;
  EXPECT_TRUE(env_->ReadFile("missing", &out).IsNotFound());
}

TEST_P(EnvTest, OverwriteReplacesContent) {
  ASSERT_TRUE(env_->WriteFile("f", "one").ok());
  ASSERT_TRUE(env_->WriteFile("f", "two-longer").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("f", &out).ok());
  EXPECT_EQ(out, "two-longer");
}

TEST_P(EnvTest, ExistsDeleteSize) {
  EXPECT_FALSE(env_->FileExists("f"));
  ASSERT_TRUE(env_->WriteFile("f", "12345").ok());
  EXPECT_TRUE(env_->FileExists("f"));
  auto size = env_->FileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 5u);
  EXPECT_TRUE(env_->DeleteFile("f").ok());
  EXPECT_FALSE(env_->FileExists("f"));
  EXPECT_TRUE(env_->DeleteFile("f").IsNotFound());
  EXPECT_FALSE(env_->FileSize("f").ok());
}

TEST_P(EnvTest, EmptyFile) {
  ASSERT_TRUE(env_->WriteFile("empty", "").ok());
  std::string out = "junk";
  ASSERT_TRUE(env_->ReadFile("empty", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EnvTest, ListFilesByPrefix) {
  ASSERT_TRUE(env_->WriteFile("dir/a", "1").ok());
  ASSERT_TRUE(env_->WriteFile("dir/b", "2").ok());
  ASSERT_TRUE(env_->WriteFile("other/c", "3").ok());
  const auto files = env_->ListFiles("dir/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "dir/a");
  EXPECT_EQ(files[1], "dir/b");
}

TEST_P(EnvTest, StatsTrackBytes) {
  env_->stats().Reset();
  ASSERT_TRUE(env_->WriteFile("f", "1234").ok());
  std::string out;
  ASSERT_TRUE(env_->ReadFile("f", &out).ok());
  EXPECT_EQ(env_->stats().writes(), 1u);
  EXPECT_EQ(env_->stats().reads(), 1u);
  EXPECT_EQ(env_->stats().bytes_written(), 4u);
  EXPECT_EQ(env_->stats().bytes_read(), 4u);
  EXPECT_NE(env_->stats().ToString().find("reads=1"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, EnvTest, ::testing::Values("mem", "posix"));

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

TEST(SerializerTest, MatrixRoundTrip) {
  const Matrix m = RandomMatrix(7, 5, 1);
  auto back = DeserializeMatrix(SerializeMatrix(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == m);
}

TEST(SerializerTest, EmptyMatrixRoundTrip) {
  const Matrix m(0, 0);
  auto back = DeserializeMatrix(SerializeMatrix(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 0);
}

TEST(SerializerTest, TensorRoundTrip) {
  Rng rng(2);
  DenseTensor t{Shape({3, 4, 2})};
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) = rng.NextGaussian();
  }
  auto back = DeserializeTensor(SerializeTensor(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shape(), t.shape());
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_EQ(back->at_linear(i), t.at_linear(i));
  }
}

TEST(SerializerTest, DetectsCorruption) {
  std::string bytes = SerializeMatrix(RandomMatrix(4, 4, 3));
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(DeserializeMatrix(bytes).status().IsCorruption());
}

TEST(SerializerTest, DetectsTruncation) {
  std::string bytes = SerializeMatrix(RandomMatrix(4, 4, 4));
  bytes.resize(bytes.size() / 2);
  EXPECT_TRUE(DeserializeMatrix(bytes).status().IsCorruption());
}

TEST(SerializerTest, RejectsWrongKind) {
  DenseTensor t{Shape({2, 2})};
  EXPECT_TRUE(
      DeserializeMatrix(SerializeTensor(t)).status().IsCorruption());
}

TEST(SerializerTest, EnvWrappers) {
  auto env = NewMemEnv();
  const Matrix m = RandomMatrix(3, 3, 5);
  ASSERT_TRUE(WriteMatrix(env.get(), "m", m).ok());
  auto back = ReadMatrix(env.get(), "m");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == m);
  EXPECT_TRUE(ReadMatrix(env.get(), "nope").status().IsNotFound());
}

SparseTensor ClusteredSparse(uint64_t seed) {
  // Non-zeros clustered into fibers: the case CSF's shared prefixes and
  // tiny leaf deltas are built for.
  Rng rng(seed);
  SparseTensor t(Shape({20, 18, 16}));
  for (int64_t i = 0; i < 20; i += 2) {
    for (int64_t j = 0; j < 6; ++j) {
      for (int64_t k = 3; k < 11; ++k) {
        t.Add({i, j, k}, rng.NextGaussian());
      }
    }
  }
  return t;
}

TEST(SerializerTest, SparseCooRoundTrip) {
  const SparseTensor t = ClusteredSparse(6);
  auto back = DeserializeSparse(SerializeSparseCoo(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nnz(), t.nnz());
  for (int64_t i = 0; i < t.nnz(); ++i) {
    const SparseEntry& a = t.entries()[static_cast<size_t>(i)];
    const SparseEntry& b = back->entries()[static_cast<size_t>(i)];
    ASSERT_EQ(a.index, b.index);
    ASSERT_EQ(a.value, b.value);
  }
}

TEST(SerializerTest, SparseCsfRoundTrip) {
  const CsfTensor t = CsfTensor::FromSparse(ClusteredSparse(7));
  const std::string bytes = SerializeSparseCsf(t);
  auto back = DeserializeSparseCsf(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nnz(), t.nnz());
  for (int level = 0; level < t.num_modes(); ++level) {
    ASSERT_EQ(back->idx(level), t.idx(level)) << "level=" << level;
    if (level + 1 < t.num_modes()) {
      ASSERT_EQ(back->ptr(level), t.ptr(level)) << "level=" << level;
    }
  }
  ASSERT_EQ(back->values(), t.values());
  // Also decodable straight to COO and to dense through the auto paths.
  auto coo = DeserializeSparse(bytes);
  ASSERT_TRUE(coo.ok());
  EXPECT_EQ(coo->nnz(), t.nnz());
  auto dense = DeserializeTensorAny(bytes);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->shape(), t.shape());
}

TEST(SerializerTest, CsfDeltaCodingBeatsCooOnClusteredData) {
  const SparseTensor coo = ClusteredSparse(8);
  const std::string coo_bytes = SerializeSparseCoo(coo);
  const std::string csf_bytes =
      SerializeSparseCsf(CsfTensor::FromSparse(coo));
  EXPECT_LT(csf_bytes.size(), coo_bytes.size() / 2)
      << "csf=" << csf_bytes.size() << " coo=" << coo_bytes.size();
}

TEST(SerializerTest, PeekRecordKindDistinguishesAllKinds) {
  DenseTensor dense{Shape({2, 3})};
  dense.at_linear(1) = 4.0;
  const SparseTensor coo = SparseTensor::FromDense(dense);
  auto kind = PeekRecordKind(SerializeTensor(dense));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 2);
  kind = PeekRecordKind(SerializeSparseCoo(coo));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 3);
  kind = PeekRecordKind(SerializeSparseCsf(CsfTensor::FromSparse(coo)));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, 4);
  EXPECT_TRUE(PeekRecordKind("junk").status().IsCorruption());
}

TEST(SerializerTest, DeserializeTensorAnyMatchesAcrossKinds) {
  Rng rng(9);
  DenseTensor dense{Shape({4, 3, 5})};
  for (int64_t i = 0; i < dense.NumElements(); ++i) {
    dense.at_linear(i) = rng.NextDouble() < 0.3 ? rng.NextGaussian() : 0.0;
  }
  const std::string as_dense = SerializeTensor(dense);
  const std::string as_coo =
      SerializeSparseCoo(SparseTensor::FromDense(dense));
  const std::string as_csf =
      SerializeSparseCsf(CsfTensor::FromDense(dense));
  for (const std::string* bytes : {&as_dense, &as_coo, &as_csf}) {
    auto back = DeserializeTensorAny(*bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->shape(), dense.shape());
    for (int64_t i = 0; i < dense.NumElements(); ++i) {
      ASSERT_EQ(back->at_linear(i), dense.at_linear(i)) << "i=" << i;
    }
  }
}

TEST(SerializerTest, SparseRecordsDetectCorruptionAndTruncation) {
  for (std::string bytes :
       {SerializeSparseCoo(ClusteredSparse(10)),
        SerializeSparseCsf(CsfTensor::FromSparse(ClusteredSparse(10)))}) {
    std::string flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x10;
    EXPECT_TRUE(DeserializeSparse(flipped).status().IsCorruption());
    bytes.resize(bytes.size() / 2);
    EXPECT_TRUE(DeserializeSparse(bytes).status().IsCorruption());
  }
}

TEST(SerializerTest, SparseEnvWrappers) {
  auto env = NewMemEnv();
  const SparseTensor t = ClusteredSparse(11);
  ASSERT_TRUE(WriteSparseCoo(env.get(), "coo", t).ok());
  ASSERT_TRUE(
      WriteSparseCsf(env.get(), "csf", CsfTensor::FromSparse(t)).ok());
  for (const char* name : {"coo", "csf"}) {
    std::string bytes;
    ASSERT_TRUE(env->ReadFile(name, &bytes).ok()) << name;
    auto back = DeserializeSparse(bytes);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_EQ(back->nnz(), t.nnz()) << name;
    auto dense = ReadTensorAny(env.get(), name);
    ASSERT_TRUE(dense.ok()) << name;
  }
  EXPECT_TRUE(ReadTensorAny(env.get(), "nope").status().IsNotFound());
}

TEST(FaultyEnvTest, InjectsWriteFailures) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  env.FailWritesAfter(2);
  EXPECT_TRUE(env.WriteFile("a", "1").ok());
  EXPECT_TRUE(env.WriteFile("b", "2").ok());
  EXPECT_TRUE(env.WriteFile("c", "3").IsIOError());
  EXPECT_TRUE(env.WriteFile("d", "4").IsIOError());
}

TEST(FaultyEnvTest, InjectsReadFailures) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(env.WriteFile("a", "1").ok());
  env.FailReadsAfter(0);
  std::string out;
  EXPECT_TRUE(env.ReadFile("a", &out).IsIOError());
}

TEST(FaultyEnvTest, CorruptionIsCaughtByChecksum) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(WriteMatrix(&env, "m", RandomMatrix(4, 4, 6)).ok());
  env.CorruptReads(true);
  EXPECT_TRUE(ReadMatrix(&env, "m").status().IsCorruption());
}

TEST(FaultyEnvTest, TruncationIsCaughtByChecksum) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(WriteMatrix(&env, "m", RandomMatrix(4, 4, 7)).ok());
  env.TruncateReads(true);
  EXPECT_TRUE(ReadMatrix(&env, "m").status().IsCorruption());
}

TEST(FaultyEnvTest, TransientFaultsFailOnceAndRecover) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  env.TransientWriteFaultEvery(3);
  // Every 3rd write op fails once; the immediate retry is a new op and
  // succeeds — the shape RetryEnv is built to absorb.
  EXPECT_TRUE(env.WriteFile("a", "1").ok());
  EXPECT_TRUE(env.WriteFile("b", "2").ok());
  EXPECT_TRUE(env.WriteFile("c", "3").IsIOError());
  EXPECT_TRUE(env.WriteFile("c", "3").ok());
  EXPECT_TRUE(env.WriteFile("d", "4").ok());
  EXPECT_TRUE(env.WriteFile("e", "5").IsIOError());
  EXPECT_TRUE(env.WriteFile("e", "5").ok());

  env.TransientReadFaultEvery(2);
  std::string out;
  EXPECT_TRUE(env.ReadFile("a", &out).ok());
  EXPECT_TRUE(env.ReadFile("a", &out).IsIOError());
  EXPECT_TRUE(env.ReadFile("a", &out).ok());
  EXPECT_EQ(out, "1");
}

TEST(RetryEnvTest, AbsorbsTransientFaults) {
  auto base = NewMemEnv();
  FaultyEnv flaky(base.get());
  flaky.TransientWriteFaultEvery(2);
  flaky.TransientReadFaultEvery(2);
  RetryPolicy policy;
  policy.initial_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  RetryEnv env(&flaky, policy);
  for (int i = 0; i < 10; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(env.WriteFile(name, name).ok()) << name;
    std::string out;
    ASSERT_TRUE(env.ReadFile(name, &out).ok()) << name;
    EXPECT_EQ(out, name);
  }
}

TEST(RetryEnvTest, PermanentFaultsSurfaceAfterBudget) {
  auto base = NewMemEnv();
  FaultyEnv broken(base.get());
  broken.FailWritesAfter(0);  // every attempt fails: transient code,
                              // permanent behavior
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  RetryEnv env(&broken, policy);
  const Status status = env.WriteFile("a", "1");
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.ToString().find("3 attempts"), std::string::npos)
      << status.ToString();

  // Deterministic failures short-circuit: no attempt budget burned.
  std::string out;
  EXPECT_TRUE(env.ReadFile("missing", &out).IsNotFound());
}

TEST(FaultyEnvTest, DelegatesMetadataOps) {
  auto base = NewMemEnv();
  FaultyEnv env(base.get());
  ASSERT_TRUE(env.WriteFile("x/y", "abc").ok());
  EXPECT_TRUE(env.FileExists("x/y"));
  EXPECT_EQ(env.FileSize("x/y").value(), 3u);
  EXPECT_EQ(env.ListFiles("x/").size(), 1u);
  EXPECT_TRUE(env.DeleteFile("x/y").ok());
}

}  // namespace
}  // namespace tpcp
