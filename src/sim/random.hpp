#pragma once

#include <cstdint>

namespace pisces::sim {

/// Small deterministic PRNG (xorshift64*) used by workloads and cost
/// perturbation. Deterministic across platforms, unlike std::mt19937
/// distributions, so benchmark output is stable.
class Rng {
 public:
  /// Seeds that differ only in bit 0 give the same stream.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed | 1) {}

  std::uint64_t next() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  std::uint64_t state_;
};

}  // namespace pisces::sim
