// Deterministic pseudo-random number generation.
//
// All stochastic components (initialization, sampling, dropout, synthetic
// data) draw from pup::Rng so that every experiment is reproducible from a
// single seed, independent of the platform's std::random implementations.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/check.h"

namespace pup {

/// Complete serializable state of an Rng stream. Restoring a saved state
/// replays the exact continuation of the stream — the building block of
/// bitwise-deterministic training resume (see ckpt/).
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool have_cached_gaussian = false;
  double cached_gaussian = 0.0;

  bool operator==(const RngState&) const = default;
};

/// xoshiro256++ PRNG with splitmix64 seeding.
///
/// Fast, high-quality, and fully deterministic across platforms. Not
/// cryptographically secure (nor does anything here need it).
class Rng {
 public:
  /// Seeds the generator; equal seeds yield identical streams.
  explicit Rng(uint64_t seed = 42) {
    // splitmix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  uint64_t NextU64() {
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

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n) {
    PUP_DCHECK(n > 0);
    // Lemire's multiply-shift rejection method (unbiased).
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0 - n) % n;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    PUP_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Box-Muller.
  double NextGaussian() {
    if (have_cached_gaussian_) {
      have_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = NextDouble();
    double u2 = NextDouble();
    // Avoid log(0).
    if (u1 <= 1e-300) u1 = 1e-300;
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = r * std::sin(theta);
    have_cached_gaussian_ = true;
    return r * std::cos(theta);
  }

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Log-normal sample: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma) {
    return std::exp(NextGaussian(mu, sigma));
  }

  /// True with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Samples an index from unnormalized non-negative weights.
  /// Requires at least one strictly positive weight.
  size_t NextWeighted(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) {
      PUP_DCHECK(w >= 0.0);
      total += w;
    }
    PUP_CHECK_MSG(total > 0.0, "NextWeighted needs a positive total weight");
    double target = NextDouble() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (target < acc) return i;
    }
    return weights.size() - 1;  // Floating-point edge: return the last index.
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork() { return Rng(NextU64()); }

  /// Snapshot of the full generator state (including the Box-Muller cache,
  /// so Gaussian streams resume mid-pair).
  RngState SaveState() const {
    RngState state;
    for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
    state.have_cached_gaussian = have_cached_gaussian_;
    state.cached_gaussian = cached_gaussian_;
    return state;
  }

  /// Restores a snapshot taken by SaveState.
  void RestoreState(const RngState& state) {
    for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
    have_cached_gaussian_ = state.have_cached_gaussian;
    cached_gaussian_ = state.cached_gaussian;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Counter-based hash: the value a SplitMix64 stream seeded with `key`
/// yields at position `counter` (a golden-ratio step per position, then
/// the SplitMix64 finalizer). Stateless, so every element of a keyed
/// stream can be computed on its own — in parallel, in any order, for any
/// subset of positions — and still agree bitwise with every other
/// evaluation. ag::Dropout derives its masks from it.
inline uint64_t KeyedHash(uint64_t key, uint64_t counter) {
  uint64_t z = key + (counter + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Zipf-like rank weights: weight(rank) = 1 / (rank + 1)^alpha.
/// Returns `n` unnormalized weights, heaviest first.
std::vector<double> ZipfWeights(size_t n, double alpha);

}  // namespace pup
