#pragma once

// Host-time spans for the traced run. Spans are opened and closed only in
// the benchmark's own files, around the public calls a workload makes into
// the simulator's layers; nothing inside src/ is instrumented.
//
// The traced run drives the engine itself, one Engine::step() at a time
// (which is what Runtime::run() does inside run_until), and brackets every
// step with begin_step()/end_step(). One step runs one fiber body or one
// engine closure, so the boundaries a step records belong to one owner (an
// mmos::Proc, or none for closures and trace records without an owner).
// Each owner keeps its own stack of open spans across steps, and a step's
// host time is split at its boundaries:
//   - step start .. first boundary -> the span the owner resumed inside;
//   - between boundaries           -> the innermost span open at the time;
//   - last boundary .. step end    -> the span the owner blocked in;
//   - a step with no boundary, or time with no span open -> sim.other.
// Nested spans are subtracted from their parents, so app spans opened in
// handlers come out of the core.accept that runs them. The split is exact
// in integer nanoseconds: sum(self) + other == sum(step time).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace perfbench {

enum class Span : std::uint8_t {
  app,
  compute,
  send,
  accept,
  initiate,
  forcesplit,
  presched,
  window_read,
  window_write,
  trace_format,
};
inline constexpr std::size_t kSpanCount = 10;
/// Metric prefix of each span, in enum order.
inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "app",           "mmos.compute",     "core.send",
    "core.accept",   "core.initiate",    "core.forcesplit",
    "core.presched", "core.window_read", "core.window_write",
    "trace.format",
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  std::array<std::int64_t, kSpanCount> self_ns{};
  std::array<std::uint64_t, kSpanCount> calls{};
  std::array<std::int64_t, kSpanCount> ticks{};  ///< simulated ticks inside
  std::int64_t other_ns = 0;
  std::int64_t step_ns = 0;
  std::uint64_t steps = 0;
  /// Boundaries that break the attribution rules: outside a step, two
  /// owners in one step, a close that does not match the innermost open
  /// span, or a span left open by a step with no owner.
  std::uint64_t faults = 0;

  [[nodiscard]] std::int64_t attributed_ns() const {
    std::int64_t sum = other_ns;
    for (std::int64_t ns : self_ns) sum += ns;
    return sum;
  }
};

class Spans {
 public:
  explicit Spans(const pisces::sim::Engine& engine) : engine_(&engine) {}

  [[nodiscard]] const pisces::sim::Engine& engine() const { return *engine_; }

  void begin_step() {
    boundaries_.clear();
    in_step_ = true;
    step_start_ = now_ns();
  }

  void end_step() {
    const std::int64_t end = now_ns();
    in_step_ = false;
    totals_.step_ns += end - step_start_;
    ++totals_.steps;
    if (boundaries_.empty()) {
      totals_.other_ns += end - step_start_;
      return;
    }
    const void* owner = nullptr;
    for (const Boundary& b : boundaries_) {
      if (b.owner == nullptr) continue;
      if (owner == nullptr) {
        owner = b.owner;
      } else if (b.owner != owner) {
        ++totals_.faults;
      }
    }
    scratch_.clear();
    std::vector<Span>& stack = owner != nullptr ? stacks_[owner] : scratch_;
    auto charge = [&](std::int64_t ns) {
      if (stack.empty()) {
        totals_.other_ns += ns;
      } else {
        totals_.self_ns[static_cast<std::size_t>(stack.back())] += ns;
      }
    };
    std::int64_t prev = step_start_;
    for (const Boundary& b : boundaries_) {
      charge(b.at - prev);
      prev = b.at;
      if (b.open) {
        stack.push_back(b.span);
      } else if (!stack.empty() && stack.back() == b.span) {
        stack.pop_back();
      } else {
        ++totals_.faults;
      }
    }
    charge(end - prev);
    if (owner == nullptr) {
      if (!stack.empty()) ++totals_.faults;
    } else if (stack.empty()) {
      stacks_.erase(owner);
    }
  }

  void mark(Span span, const void* owner, bool open) {
    if (!in_step_) {
      ++totals_.faults;
      return;
    }
    boundaries_.push_back(Boundary{now_ns(), span, open, owner});
  }

  void count(Span span, pisces::sim::Tick ticks) {
    const auto i = static_cast<std::size_t>(span);
    ++totals_.calls[i];
    totals_.ticks[i] += ticks;
  }

  /// Spans still open when the run ended (0 after a clean run).
  [[nodiscard]] std::size_t open_owners() const { return stacks_.size(); }
  [[nodiscard]] const SpanTotals& totals() const { return totals_; }

 private:
  struct Boundary {
    std::int64_t at = 0;
    Span span{};
    bool open = false;
    const void* owner = nullptr;
  };

  const pisces::sim::Engine* engine_;
  bool in_step_ = false;
  std::int64_t step_start_ = 0;
  std::vector<Boundary> boundaries_;
  std::vector<Span> scratch_;
  std::unordered_map<const void*, std::vector<Span>> stacks_;
  SpanTotals totals_;
};

/// One span around a scope. With no Spans (the untraced run) it does
/// nothing but a null check.
class Scope {
 public:
  Scope(Spans* spans, Span span, const void* owner)
      : spans_(spans), span_(span), owner_(owner) {
    if (spans_ == nullptr) return;
    start_tick_ = spans_->engine().now();
    spans_->mark(span_, owner_, true);
  }
  ~Scope() {
    if (spans_ == nullptr) return;
    spans_->mark(span_, owner_, false);
    spans_->count(span_, spans_->engine().now() - start_tick_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  Span span_;
  const void* owner_;
  pisces::sim::Tick start_tick_ = 0;
};

/// Run `f` inside a span and return its result.
template <typename F>
decltype(auto) timed(Spans* spans, Span span, const void* owner, F&& f) {
  Scope scope(spans, span, owner);
  return std::forward<F>(f)();
}

}  // namespace perfbench
