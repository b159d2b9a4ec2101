// The SIMD layer under the double-precision kernels (linalg/kernels.cc).
//
// Two kinds of vector backend:
//   - NEON (aarch64, __ARM_NEON): 2 doubles per lane group, chosen at
//     compile time and defined here.
//   - AVX2 (x86-64, GCC): 4 doubles per lane group, defined in
//     linalg/kernels_avx2.cc inside an AVX2 target region, so every
//     x86-64 GCC build carries it whatever its -m flags. kernels.cc runs
//     it when the CPU reports AVX2 at run time. TPCP_KERNELS_AVX2 says it
//     is built. (Clang ignores `#pragma GCC target`; a Clang build keeps
//     the scalar bodies.)
// Elsewhere, and on an x86-64 CPU without AVX2, the kernels run their
// scalar bodies. Defining TPCP_FORCE_SCALAR (CMake option of the same
// name) compiles both vector backends out — the CI leg that proves the
// vector kernels are bit-identical to the scalar ones.
//
// Each backend defines, in a namespace `simd` of its own: VecD, kWidth,
// kTargetName, Load, Store, Broadcast, Add, Mul, MulAdd and NonZeroMask
// (bit i set when lane i is not == 0.0, so NaN lanes count). The kernel
// bodies are written once against them (linalg/kernel_bodies.inc) and
// compiled once per backend into a KernelTable (linalg/kernels.h).
//
// Determinism contract: MulAdd(a, b, acc) computes acc + a*b with TWO
// roundings (separate multiply and add), exactly like the scalar
// expression `acc + a * b`, so kernels built on it are bit-identical to
// their scalar loops. There is deliberately no fused multiply-add: it
// rounds once and would give other numbers.

#ifndef TPCP_LINALG_SIMD_H_
#define TPCP_LINALG_SIMD_H_

#include <cstdint>

#include "linalg/kernels.h"

#if !defined(TPCP_FORCE_SCALAR) && defined(__ARM_NEON)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if !defined(TPCP_FORCE_SCALAR) && defined(__x86_64__) && \
    defined(__GNUC__) && !defined(__clang__)
#define TPCP_KERNELS_AVX2 1
#endif

namespace tpcp {

#if defined(TPCP_KERNELS_AVX2)
namespace kernels_avx2 {
/// The AVX2 build of the kernel bodies; run it only on an AVX2 CPU.
extern const KernelTable kTable;
}  // namespace kernels_avx2
#endif

namespace simd {

#if defined(TPCP_SIMD_NEON)

inline constexpr int kWidth = 2;
inline constexpr const char* kTargetName = "neon";

struct VecD {
  float64x2_t v;
};

inline VecD Load(const double* p) { return {vld1q_f64(p)}; }
inline void Store(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
inline VecD Add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {vaddq_f64(acc.v, vmulq_f64(a.v, b.v))};
}
inline unsigned NonZeroMask(VecD a) {
  const uint64x2_t zero = vceqq_f64(a.v, vdupq_n_f64(0.0));
  return (vgetq_lane_u64(zero, 0) != 0 ? 0u : 1u) |
         (vgetq_lane_u64(zero, 1) != 0 ? 0u : 2u);
}

#else

/// The compile-time backend has no vector unit; on x86-64 the kernels may
/// still run AVX2, chosen at run time (SimdTargetName in kernels.h).
inline constexpr const char* kTargetName = "scalar";

#endif

}  // namespace simd
}  // namespace tpcp

#endif  // TPCP_LINALG_SIMD_H_
