// Bit-identity contract of the variant-selectable kernels: the SIMD form
// of every kernel must produce the exact same bits as its scalar
// reference on every shape — including tail fringes narrower than a
// vector, unaligned leading dimensions, and zero-skip corner cases with
// -0.0 and non-finite values.
//
// These tests are the proof obligation behind running the CI matrix with
// and without TPCP_FORCE_SCALAR: either leg runs them, and a vector
// backend that rounds differently from the plain loops fails here first.

#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/blas.h"
#include "tensor/mttkrp.h"
#include "util/random.h"

namespace tpcp {
namespace {

std::vector<double> RandomVec(int64_t n, uint64_t seed,
                              double zero_fraction = 0.0) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) {
    x = rng.NextDouble() < zero_fraction ? 0.0 : rng.NextGaussian();
  }
  return v;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double zero_fraction = 0.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        rng.NextDouble() < zero_fraction ? 0.0 : rng.NextGaussian();
  }
  return m;
}

DenseTensor RandomTensor(const Shape& shape, uint64_t seed,
                         double zero_fraction) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) =
        rng.NextDouble() < zero_fraction ? 0.0 : rng.NextGaussian();
  }
  return t;
}

std::vector<Matrix> RandomFactorsFor(const Shape& shape, int64_t rank,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < shape.num_modes(); ++m) {
    Matrix f(shape.dim(m), rank);
    for (int64_t i = 0; i < f.size(); ++i) f.data()[i] = rng.NextGaussian();
    factors.push_back(std::move(f));
  }
  return factors;
}

/// Bitwise equality — the only comparison that can certify identity in the
/// presence of -0.0 and NaN payloads.
::testing::AssertionResult BitsEqual(const double* a, const double* b,
                                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitsEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  return BitsEqual(a.data(), b.data(), a.size());
}

// ---- Gemm microkernels ------------------------------------------------

/// Runs MicroKernelNN in both variants over a buffer with padded leading
/// dimensions (lda > kb etc. exercises the unaligned-row path) and checks
/// bitwise identity, for every fringe shape up to two vector widths.
TEST(KernelsTest, MicroKernelNNBitIdenticalAcrossTails) {
  constexpr int64_t kMax = 9;  // spans 1..9: fringes on both sides of 4
  const int64_t lda = kMax + 3, ldb = kMax + 1, ldc = kMax + 2;
  const std::vector<double> a = RandomVec(kMax * lda, 1, 0.2);
  const std::vector<double> b = RandomVec(kMax * ldb, 2);
  const std::vector<double> c0 = RandomVec(kMax * ldc, 3);
  for (int64_t mb = 1; mb <= kMax; ++mb) {
    for (int64_t nb = 1; nb <= kMax; ++nb) {
      for (int64_t kb : {int64_t{1}, int64_t{3}, int64_t{8}, kMax}) {
        std::vector<double> cs = c0, cv = c0;
        MicroKernelNN(a.data(), lda, b.data(), ldb, cs.data(), ldc, mb, nb,
                      kb, KernelVariant::kScalar);
        MicroKernelNN(a.data(), lda, b.data(), ldb, cv.data(), ldc, mb, nb,
                      kb, KernelVariant::kSimd);
        ASSERT_TRUE(BitsEqual(cs.data(), cv.data(),
                              static_cast<int64_t>(cs.size())))
            << "mb=" << mb << " nb=" << nb << " kb=" << kb;
      }
    }
  }
}

TEST(KernelsTest, MicroKernelTNBitIdenticalAcrossTails) {
  constexpr int64_t kMax = 9;
  const int64_t lda = kMax + 2, ldb = kMax + 3, ldc = kMax + 1;
  const std::vector<double> a = RandomVec(kMax * lda, 4, 0.2);
  const std::vector<double> b = RandomVec(kMax * ldb, 5);
  const std::vector<double> c0 = RandomVec(kMax * ldc, 6);
  for (int64_t mb = 1; mb <= kMax; ++mb) {
    for (int64_t nb = 1; nb <= kMax; ++nb) {
      for (double alpha : {1.0, -0.75}) {
        std::vector<double> cs = c0, cv = c0;
        MicroKernelTN(a.data(), lda, b.data(), ldb, cs.data(), ldc, mb, nb,
                      kMax, alpha, KernelVariant::kScalar);
        MicroKernelTN(a.data(), lda, b.data(), ldb, cv.data(), ldc, mb, nb,
                      kMax, alpha, KernelVariant::kSimd);
        ASSERT_TRUE(BitsEqual(cs.data(), cv.data(),
                              static_cast<int64_t>(cs.size())))
            << "mb=" << mb << " nb=" << nb << " alpha=" << alpha;
      }
    }
  }
}

/// The zero-skip contract: a zero multiplier means *no update*, which is
/// observable when C holds -0.0 (adding +0.0 would flip it to +0.0) or a
/// non-finite value (adding 0 * b would still propagate NaN from inf * 0).
/// Both variants must preserve the untouched rows bit-for-bit.
TEST(KernelsTest, ZeroSkipPreservesSignedZeroAndNonFinite) {
  constexpr int64_t n = 6;
  std::vector<double> a(n * n, 0.0);  // all-zero A: every update skipped
  const std::vector<double> b = RandomVec(n * n, 7);
  std::vector<double> c0(n * n);
  c0[0] = -0.0;
  c0[1] = std::numeric_limits<double>::infinity();
  c0[2] = std::numeric_limits<double>::quiet_NaN();
  c0[3] = -std::numeric_limits<double>::infinity();
  for (KernelVariant variant :
       {KernelVariant::kScalar, KernelVariant::kSimd}) {
    std::vector<double> c = c0;
    MicroKernelNN(a.data(), n, b.data(), n, c.data(), n, n, n, n, variant);
    EXPECT_TRUE(BitsEqual(c.data(), c0.data(), n * n));
    c = c0;
    MicroKernelTN(a.data(), n, b.data(), n, c.data(), n, n, n, n, 1.0,
                  variant);
    EXPECT_TRUE(BitsEqual(c.data(), c0.data(), n * n));
  }
}

// ---- element-wise + MTTKRP inner loops --------------------------------

TEST(KernelsTest, HadamardBitIdenticalAcrossLengths) {
  for (int64_t n = 1; n <= 35; ++n) {
    const std::vector<double> a0 = RandomVec(n, 10 + static_cast<uint64_t>(n));
    const std::vector<double> b = RandomVec(n, 60 + static_cast<uint64_t>(n));
    std::vector<double> as = a0, av = a0;
    HadamardKernel(as.data(), b.data(), n, KernelVariant::kScalar);
    HadamardKernel(av.data(), b.data(), n, KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(as.data(), av.data(), n)) << "n=" << n;
  }
}

TEST(KernelsTest, MttkrpRowKernelsBitIdenticalAcrossLengths) {
  for (int64_t f = 1; f <= 35; ++f) {
    const uint64_t s = static_cast<uint64_t>(f);
    const std::vector<double> r1 = RandomVec(f, 100 + s);
    const std::vector<double> r2 = RandomVec(f, 200 + s);
    const std::vector<double> d0 = RandomVec(f, 300 + s);
    const double v = 1.7 - static_cast<double>(f) * 0.3;

    std::vector<double> ds = d0, dv = d0;
    MttkrpRow3(ds.data(), v, r1.data(), r2.data(), f,
               KernelVariant::kScalar);
    MttkrpRow3(dv.data(), v, r1.data(), r2.data(), f, KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(ds.data(), dv.data(), f)) << "row3 f=" << f;

    std::vector<double> ps(static_cast<size_t>(f)),
        pv(static_cast<size_t>(f));
    MttkrpSeed(ps.data(), v, r1.data(), f, KernelVariant::kScalar);
    MttkrpSeed(pv.data(), v, r1.data(), f, KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(ps.data(), pv.data(), f)) << "seed f=" << f;

    ds = d0;
    dv = d0;
    MttkrpAccum(ds.data(), r2.data(), f, KernelVariant::kScalar);
    MttkrpAccum(dv.data(), r2.data(), f, KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(ds.data(), dv.data(), f)) << "accum f=" << f;
  }
}

// ---- full tiled paths -------------------------------------------------

/// GemmVariant drives the whole cache-blocked path, so odd shapes exercise
/// tile fringes in all three dimensions at once.
TEST(KernelsTest, GemmVariantBitIdenticalOnOddShapes) {
  struct Case {
    int64_t m, n, k;
  };
  for (const Case& c : {Case{1, 1, 1}, Case{3, 5, 2}, Case{65, 67, 66},
                        Case{130, 7, 129}}) {
    const Matrix a = RandomMatrix(c.m, c.k, 20, 0.15);
    const Matrix b = RandomMatrix(c.k, c.n, 21);
    Matrix cs = RandomMatrix(c.m, c.n, 22);
    Matrix cv = cs;
    GemmVariant(Trans::kNo, a, Trans::kNo, b, 1.25, 0.5, &cs,
                KernelVariant::kScalar);
    GemmVariant(Trans::kNo, a, Trans::kNo, b, 1.25, 0.5, &cv,
                KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(cs, cv)) << c.m << "x" << c.n << "x" << c.k;

    const Matrix at = RandomMatrix(c.k, c.m, 23);
    Matrix gs(c.m, c.n), gv(c.m, c.n);
    GemmVariant(Trans::kYes, at, Trans::kNo, b, 1.0, 0.0, &gs,
                KernelVariant::kScalar);
    GemmVariant(Trans::kYes, at, Trans::kNo, b, 1.0, 0.0, &gv,
                KernelVariant::kSimd);
    ASSERT_TRUE(BitsEqual(gs, gv)) << "TN " << c.m << "x" << c.n;
  }
}

/// The public entry points (always-kSimd) must equal the scalar reference
/// bitwise — this is the end-user-visible statement of the contract.
TEST(KernelsTest, PublicGemmAndGramMatchScalarReferenceBitwise) {
  const Matrix a = RandomMatrix(67, 13, 30, 0.1);
  const Matrix b = RandomMatrix(13, 9, 31);
  Matrix c_pub = RandomMatrix(67, 9, 32);
  Matrix c_ref = c_pub;
  Gemm(Trans::kNo, a, Trans::kNo, b, 2.0, -1.0, &c_pub);
  GemmVariant(Trans::kNo, a, Trans::kNo, b, 2.0, -1.0, &c_ref,
              KernelVariant::kScalar);
  EXPECT_TRUE(BitsEqual(c_pub, c_ref));

  Matrix gram_ref(13, 13);
  GemmVariant(Trans::kYes, a, Trans::kNo, a, 1.0, 0.0, &gram_ref,
              KernelVariant::kScalar);
  EXPECT_TRUE(BitsEqual(Gram(a), gram_ref));
}

TEST(KernelsTest, MttkrpVariantsBitIdenticalAcrossBackends) {
  const Shape shape({7, 6, 5});
  const DenseTensor dense = RandomTensor(shape, 40, 0.6);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 5, 41);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix ds = MttkrpVariant(dense, f, mode, KernelVariant::kScalar);
    EXPECT_TRUE(
        BitsEqual(ds, MttkrpVariant(dense, f, mode, KernelVariant::kSimd)))
        << "dense mode=" << mode;
    const Matrix ss = MttkrpVariant(coo, f, mode, KernelVariant::kScalar);
    EXPECT_TRUE(
        BitsEqual(ss, MttkrpVariant(coo, f, mode, KernelVariant::kSimd)))
        << "coo mode=" << mode;
    const Matrix cs = MttkrpVariant(csf, f, mode, KernelVariant::kScalar);
    EXPECT_TRUE(
        BitsEqual(cs, MttkrpVariant(csf, f, mode, KernelVariant::kSimd)))
        << "csf mode=" << mode;
    // COO and CSF stream the same non-zeros in the same lexicographic
    // order, so the two sparse layouts are bit-identical too.
    EXPECT_TRUE(BitsEqual(ss, cs)) << "coo-vs-csf mode=" << mode;
  }
}

TEST(KernelsTest, SimdReportingIsConsistent) {
  // SimdCompiled and the target name must agree; under TPCP_FORCE_SCALAR
  // the name is "scalar" and compiled is false.
  const bool compiled = SimdCompiled();
  const std::string target = SimdTargetName();
  EXPECT_EQ(compiled, target != "scalar");
}

}  // namespace
}  // namespace tpcp
