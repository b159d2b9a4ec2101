// Deterministic, seedable PRNG used across the library.
//
// All stochastic components (factor initialization, synthetic data) take a
// seed so experiments are exactly reproducible.

#ifndef TPCP_UTIL_RANDOM_H_
#define TPCP_UTIL_RANDOM_H_

#include <cstdint>

namespace tpcp {

/// xoshiro256++ generator: fast, high-quality, 256-bit state.
///
/// Not thread-safe; create one Rng per thread or per component.
class Rng {
 public:
  /// Seeds the state from a single 64-bit value via SplitMix64.
  explicit Rng(uint64_t seed = 0x2b7e151628aed2a6ull);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound). CHECK-fails on bound == 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box–Muller (cached second value).
  double NextGaussian();

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace tpcp

#endif  // TPCP_UTIL_RANDOM_H_
