#include "data/synthetic.h"

#include <cmath>
#include <set>

#include "util/random.h"

namespace tpcp {
namespace {

// Deterministic per-cell hash so streamed generation is reproducible and
// order-independent.
uint64_t CellHash(const Index& index, uint64_t seed) {
  uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (int64_t c : index) {
    h ^= static_cast<uint64_t>(c) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  // Final murmur3 fmix64 avalanche: per-cell draws must be unbiased.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// Low-rank factor set with entries in [0,1).
std::vector<std::vector<double>> MakeFactors(const Shape& shape, int64_t rank,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> factors;
  factors.reserve(static_cast<size_t>(shape.num_modes()));
  for (int m = 0; m < shape.num_modes(); ++m) {
    std::vector<double> f(static_cast<size_t>(shape.dim(m) * rank));
    for (double& v : f) v = rng.NextDouble();
    factors.push_back(std::move(f));
  }
  return factors;
}

// Value of the low-rank signal at `index`.
double SignalAt(const std::vector<std::vector<double>>& factors, int64_t rank,
                const Index& index) {
  double acc = 0.0;
  for (int64_t c = 0; c < rank; ++c) {
    double prod = 1.0;
    for (size_t m = 0; m < factors.size(); ++m) {
      prod *= factors[m][static_cast<size_t>(index[m]) *
                             static_cast<size_t>(rank) +
                         static_cast<size_t>(c)];
    }
    acc += prod;
  }
  return acc;
}

// Cheap hash-derived standard normal (Box–Muller on two hash lanes).
double HashGaussian(uint64_t h) {
  const double u1 =
      (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  const double u2 = (static_cast<double>((h * 0x9e3779b97f4a7c15ull) >> 11) +
                     0.5) *
                    0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

class LowRankGenerator {
 public:
  explicit LowRankGenerator(const LowRankSpec& spec)
      : spec_(spec),
        factors_(MakeFactors(spec.shape, spec.rank, spec.seed)),
        // Signal RMS for rank-F products of U[0,1) entries: each term has
        // mean 2^-N; a good-enough scale anchor for the noise level.
        signal_rms_(static_cast<double>(spec.rank) *
                    std::pow(0.5, spec.shape.num_modes())) {}

  double operator()(const Index& index) const {
    const uint64_t h = CellHash(index, spec_.seed);
    if (spec_.density < 1.0) {
      const double u = (static_cast<double>(h >> 11)) * 0x1.0p-53;
      if (u >= spec_.density) return 0.0;
    }
    double v = SignalAt(factors_, spec_.rank, index);
    if (spec_.noise_level > 0.0) {
      v += spec_.noise_level * signal_rms_ * HashGaussian(h ^ 0xabcdef12ull);
    }
    return v;
  }

 private:
  LowRankSpec spec_;
  std::vector<std::vector<double>> factors_;
  double signal_rms_;
};

}  // namespace

DenseTensor MakeLowRankTensor(const LowRankSpec& spec) {
  LowRankGenerator gen(spec);
  DenseTensor out(spec.shape);
  const int n = spec.shape.num_modes();
  Index index(static_cast<size_t>(n), 0);
  for (int64_t linear = 0; linear < out.NumElements(); ++linear) {
    out.at_linear(linear) = gen(index);
    for (int m = n - 1; m >= 0; --m) {
      if (++index[static_cast<size_t>(m)] < spec.shape.dim(m)) break;
      index[static_cast<size_t>(m)] = 0;
    }
  }
  return out;
}

Status GenerateLowRankIntoStore(const LowRankSpec& spec,
                                BlockTensorStore* store) {
  if (!(store->grid().tensor_shape() == spec.shape)) {
    return Status::InvalidArgument("store grid does not match spec shape");
  }
  LowRankGenerator gen(spec);
  return store->Generate([&gen](const Index& index) { return gen(index); });
}

SparseTensor MakePowerLawSparseTensor(const Shape& shape, int64_t nnz,
                                      double skew, uint64_t seed) {
  Rng rng(seed);
  SparseTensor out(shape);
  std::set<int64_t> used;
  const int n = shape.num_modes();
  Index index(static_cast<size_t>(n));
  int64_t attempts = 0;
  const int64_t max_attempts = nnz * 200;
  while (static_cast<int64_t>(used.size()) < nnz &&
         attempts++ < max_attempts) {
    for (int m = 0; m < n; ++m) {
      // Inverse-power sampling: u^skew concentrates mass near 0.
      const double u = rng.NextDouble();
      index[static_cast<size_t>(m)] = static_cast<int64_t>(
          std::pow(u, skew) * static_cast<double>(shape.dim(m)));
      if (index[static_cast<size_t>(m)] >= shape.dim(m)) {
        index[static_cast<size_t>(m)] = shape.dim(m) - 1;
      }
    }
    const int64_t linear = shape.LinearIndex(index);
    if (!used.insert(linear).second) continue;
    out.Add(index, rng.NextDouble(0.5, 5.0));
  }
  return out;
}

}  // namespace tpcp
