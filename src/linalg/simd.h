// Portable compile-time SIMD layer for the double-precision kernels.
//
// One vector type, VecD, selected at compile time:
//   - AVX2  (x86-64, __AVX2__):  4 doubles per lane group
//   - NEON  (aarch64, __ARM_NEON): 2 doubles per lane group
//   - scalar fallback: 1 double (always available)
// Defining TPCP_FORCE_SCALAR (CMake option of the same name) pins the
// scalar backend regardless of the architecture flags — the CI leg that
// proves the vector kernels are bit-identical to the scalar ones.
//
// Determinism contract: MulAdd(a, b, acc) computes acc + a*b with TWO
// roundings (separate multiply and add), exactly like the scalar
// expression `acc + a * b`, so kernels built on it are bit-identical to
// their scalar loops. There is deliberately no fused multiply-add: it
// rounds once and would give other numbers.

#ifndef TPCP_LINALG_SIMD_H_
#define TPCP_LINALG_SIMD_H_

#include <cstdint>

#if !defined(TPCP_FORCE_SCALAR) && defined(__AVX2__)
#define TPCP_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(TPCP_FORCE_SCALAR) && defined(__ARM_NEON)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tpcp {
namespace simd {

#if defined(TPCP_SIMD_AVX2)

inline constexpr int kWidth = 4;
inline constexpr const char* kTargetName = "avx2";

struct VecD {
  __m256d v;
};

inline VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void Store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
}

#elif defined(TPCP_SIMD_NEON)

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

#else

inline constexpr int kWidth = 1;
inline constexpr const char* kTargetName = "scalar";

struct VecD {
  double v;
};

inline VecD Load(const double* p) { return {*p}; }
inline void Store(double* p, VecD a) { *p = a.v; }
inline VecD Broadcast(double x) { return {x}; }
inline VecD Add(VecD a, VecD b) { return {a.v + b.v}; }
inline VecD Mul(VecD a, VecD b) { return {a.v * b.v}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) { return {acc.v + a.v * b.v}; }

#endif

/// True when an explicit vector backend (width > 1) is compiled in.
inline constexpr bool kEnabled = kWidth > 1;

}  // namespace simd
}  // namespace tpcp

#endif  // TPCP_LINALG_SIMD_H_
