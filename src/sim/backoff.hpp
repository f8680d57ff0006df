#pragma once

#include "sim/time.hpp"

namespace pisces::sim {

/// Exponential backoff: the delay before the n-th attempt (n >= 1) is
/// base · factor^(n-1), saturating at `cap`. Repeated multiplication, never
/// pow, so every backend computes the same bits.
struct Backoff {
  Tick base = 0;
  double factor = 2.0;
  Tick cap = kForever;

  [[nodiscard]] Tick delay(int attempt) const {
    const auto limit = static_cast<double>(cap);
    auto d = static_cast<double>(base);
    for (int i = 1; i < attempt && d < limit; ++i) d *= factor;
    return d >= limit ? cap : static_cast<Tick>(d);
  }
};

}  // namespace pisces::sim
