// Variant-selectable inner-loop kernels — the raw hot loops under Gemm,
// Gram, Hadamard, and MTTKRP, each available in an explicit scalar form
// and an explicitly vectorized form (linalg/simd.h). MTTKRP has a
// per-entry row update (MttkrpRow3, for COO/CSF non-zeros), a whole-fiber
// form of it (MttkrpFiber3, one call per last-mode fiber of a dense
// 3-mode tensor), and the seed/accumulate pair of the N-mode paths.
//
// Every call site that matters for wall-clock dispatches KernelVariant::
// kSimd; kScalar is the reference implementation the bit-identity tests
// and the micro-kernel bench compare against. kSimd runs the vector
// backend chosen once, at first use: AVX2 on an x86-64 CPU that reports
// it (every x86-64 build carries the AVX2 bodies), NEON in an aarch64
// build, and the scalar bodies otherwise or under TPCP_FORCE_SCALAR.
//
// Every update multiplies and adds separately (two roundings, see
// simd.h's MulAdd), so the scalar and vector forms produce the same bits
// on every backend.

#ifndef TPCP_LINALG_KERNELS_H_
#define TPCP_LINALG_KERNELS_H_

#include <cstdint>

namespace tpcp {

enum class KernelVariant { kScalar, kSimd };

/// One build of the kernel bodies: the entry points below without their
/// KernelVariant argument, and the backend's name.
struct KernelTable {
  const char* name;
  void (*micro_nn)(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb);
  void (*micro_tn)(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, double alpha);
  void (*hadamard)(double* a, const double* b, int64_t n);
  void (*mttkrp_row3)(double* dst, double v, const double* r1,
                      const double* r2, int64_t f);
  void (*mttkrp_fiber3)(double* dst, int64_t dst_step, const double* x,
                        int64_t len, const double* r1, const double* r2,
                        int64_t r2_step, int64_t f);
  void (*mttkrp_seed)(double* prod, double v, const double* row, int64_t f);
  void (*mttkrp_accum)(double* dst, const double* src, int64_t f);
};

/// The scalar reference bodies: what KernelVariant::kScalar runs.
extern const KernelTable kScalarKernels;

/// Picks the table KernelVariant::kSimd runs: AVX2 when the build carries
/// it and the CPU reports it, NEON in an aarch64 build, kScalarKernels
/// otherwise. SimdKernels() calls it once.
const KernelTable* ChooseSimdKernels();

/// The table KernelVariant::kSimd runs, chosen on first use. Inline, as
/// are the entry points below: the MTTKRP loops call a kernel per tensor
/// entry, so a call must cost one indirect call and no more.
inline const KernelTable& SimdKernels() {
  static const KernelTable* const table = ChooseSimdKernels();
  return *table;
}

inline const KernelTable& Kernels(KernelVariant variant) {
  return variant == KernelVariant::kSimd ? SimdKernels() : kScalarKernels;
}

/// True when KernelVariant::kSimd runs a vector backend on the running CPU
/// (false under TPCP_FORCE_SCALAR and on CPUs without AVX2 or NEON).
inline bool SimdCompiled() { return &SimdKernels() != &kScalarKernels; }

/// Name of the backend KernelVariant::kSimd runs: "avx2", "neon", or
/// "scalar" — chosen at run time, unlike simd::kTargetName.
inline const char* SimdTargetName() { return SimdKernels().name; }

const char* KernelVariantName(KernelVariant variant);

/// C[mb x nb] += A[mb x kb] * B[kb x nb], row-major with leading
/// dimensions lda/ldb/ldc — the Gemm NN microkernel. Skips (i, p) pairs
/// with a(i, p) == 0 exactly like the scalar loop (a skipped update is no
/// update, which matters for -0.0 and non-finite C/B values).
inline void MicroKernelNN(const double* a, int64_t lda, const double* b,
                          int64_t ldb, double* c, int64_t ldc, int64_t mb,
                          int64_t nb, int64_t kb, KernelVariant variant) {
  Kernels(variant).micro_nn(a, lda, b, ldb, c, ldc, mb, nb, kb);
}

/// C[mb x nb] += alpha * A^T * B with A (kb x mb) and B (kb x nb)
/// row-major — the Gemm TN microkernel (Gram / MatTMul shape). Skips
/// (p, i) pairs where alpha * a(p, i) == 0.
inline void MicroKernelTN(const double* a, int64_t lda, const double* b,
                          int64_t ldb, double* c, int64_t ldc, int64_t mb,
                          int64_t nb, int64_t kb, double alpha,
                          KernelVariant variant) {
  Kernels(variant).micro_tn(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
}

/// a[i] *= b[i] for i in [0, n) — the Hadamard inner loop.
inline void HadamardKernel(double* a, const double* b, int64_t n,
                           KernelVariant variant) {
  Kernels(variant).hadamard(a, b, n);
}

/// dst[c] += v * r1[c] * r2[c] for c in [0, f) — the fused 3-mode sparse
/// MTTKRP row update. Evaluation order matches the scalar expression:
/// (v * r1[c]) * r2[c], then add.
inline void MttkrpRow3(double* dst, double v, const double* r1,
                       const double* r2, int64_t f, KernelVariant variant) {
  Kernels(variant).mttkrp_row3(dst, v, r1, r2, f);
}

/// MttkrpRow3 along one last-mode fiber of a dense 3-mode tensor: for
/// each j in [0, len) in ascending order with x[j] != 0,
///   MttkrpRow3(dst + j * dst_step, x[j], r1, r2 + j * r2_step, f).
/// dst_step == 0 accumulates the whole fiber into one output row (modes 0
/// and 1); dst_step == f walks the output rows with the fiber (mode 2).
/// Every dst element sees the same adds in the same order as the per-cell
/// calls, so the bits match them.
inline void MttkrpFiber3(double* dst, int64_t dst_step, const double* x,
                         int64_t len, const double* r1, const double* r2,
                         int64_t r2_step, int64_t f, KernelVariant variant) {
  Kernels(variant).mttkrp_fiber3(dst, dst_step, x, len, r1, r2, r2_step, f);
}

/// prod[c] = v * row[c] — the fused product-buffer seed of the generic
/// MTTKRP paths.
inline void MttkrpSeed(double* prod, double v, const double* row, int64_t f,
                       KernelVariant variant) {
  Kernels(variant).mttkrp_seed(prod, v, row, f);
}

/// dst[c] += src[c] — the product-buffer accumulate of the generic MTTKRP
/// paths.
inline void MttkrpAccum(double* dst, const double* src, int64_t f,
                        KernelVariant variant) {
  Kernels(variant).mttkrp_accum(dst, src, f);
}

}  // namespace tpcp

#endif  // TPCP_LINALG_KERNELS_H_
