#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace tpcp {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  TPCP_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

}  // namespace tpcp
