#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace pisces::rt {

/// The system default DELAY: the timeout applied to an ACCEPT whose spec
/// sets neither `delay` nor `no_timeout`. Pinned here (the home of the
/// ACCEPT statement) so the configuration default, the runtime, and the
/// tests all agree on one value instead of scattering the literal.
inline constexpr sim::Tick kDefaultAcceptDelayTicks = 2'000'000;

/// The ACCEPT statement (Section 6):
///
///     ACCEPT <number> OF
///       <message type 1>
///       <message type 2> ...
///     DELAY <time value> THEN
///       <statement sequence>
///     END ACCEPT
///
/// Built fluently:
///     ctx.accept(AcceptSpec{}.of("rows", 3).all_of("done").delay_for(100, fn));
///
/// Counting modes, per the paper:
///  * `.total(n)` — accept until n messages of the listed types, any mix;
///  * per-type counts via `.of(type, k)` — accept until every listed type
///    reached its count;
///  * `.all_of(type)` — process every message of that type already received;
///    never waits for more.
/// If `.total()` is set, per-type counts are ignored (the paper offers the
/// modes as alternatives); all_of types still drain alongside.
struct AcceptSpec {
  struct TypeSpec {
    std::string type;
    int count = 1;
    bool all = false;
  };

  std::vector<TypeSpec> types;
  std::optional<int> total_count;
  std::optional<sim::Tick> delay;        ///< relative timeout; unset => system default
  std::function<void()> on_delay;        ///< DELAY ... THEN body (may be null)
  bool no_timeout = false;               ///< wait forever (extension for servers)

  // Each builder has an `&&` twin, so a spec built on a temporary
  // (`ctx.accept(AcceptSpec{}.of("ping").forever())`) is moved into
  // accept() instead of copied.
  AcceptSpec& of(std::string type, int count = 1) & {
    types.push_back(TypeSpec{std::move(type), count, false});
    return *this;
  }
  AcceptSpec&& of(std::string type, int count = 1) && {
    return std::move(of(std::move(type), count));
  }
  AcceptSpec& all_of(std::string type) & {
    types.push_back(TypeSpec{std::move(type), 0, true});
    return *this;
  }
  AcceptSpec&& all_of(std::string type) && { return std::move(all_of(std::move(type))); }
  AcceptSpec& total(int n) & {
    total_count = n;
    return *this;
  }
  AcceptSpec&& total(int n) && { return std::move(total(n)); }
  AcceptSpec& delay_for(sim::Tick t, std::function<void()> then = nullptr) & {
    delay = t;
    on_delay = std::move(then);
    return *this;
  }
  AcceptSpec&& delay_for(sim::Tick t, std::function<void()> then = nullptr) && {
    return std::move(delay_for(t, std::move(then)));
  }
  /// Block indefinitely instead of using the system default timeout.
  AcceptSpec& forever() & {
    no_timeout = true;
    return *this;
  }
  AcceptSpec&& forever() && { return std::move(forever()); }

  [[nodiscard]] bool lists(const std::string& type) const {
    for (const auto& t : types) {
      if (t.type == type) return true;
    }
    return false;
  }
};

/// What an ACCEPT statement processed.
struct AcceptResult {
  std::map<std::string, int> accepted;  ///< per-type processed counts
  bool timed_out = false;

  [[nodiscard]] int total() const {
    int n = 0;
    for (const auto& [type, k] : accepted) n += k;
    return n;
  }
  [[nodiscard]] int count(const std::string& type) const {
    auto it = accepted.find(type);
    return it == accepted.end() ? 0 : it->second;
  }
};

}  // namespace pisces::rt
