#pragma once

// Stackful user-level fiber core for the simulation engine: a saved machine
// context, a guard-paged lazily-committed stack, and a symmetric switch
// primitive. Two implementations sit behind the same interface:
//
//  - Raw assembly (x86-64 SysV / aarch64 AAPCS64): saves only the
//    callee-saved register set and swaps stack pointers. No syscalls — in
//    particular it skips the sigprocmask round-trip that makes ucontext
//    switches an order of magnitude slower.
//  - POSIX ucontext: portable fallback, selected automatically on other
//    architectures or explicitly with -DPISCES_SIM_FIBER_UCONTEXT.
//
// Under AddressSanitizer the assembly path issues the
// __sanitizer_*_switch_fiber annotations around every switch so ASan tracks
// the active stack correctly. ThreadSanitizer cannot observe either
// implementation; the engine falls back to the thread backend there (see
// default_backend() in engine.hpp).

#include <cstddef>

#if !defined(PISCES_SIM_FIBER_UCONTEXT) && \
    (defined(__x86_64__) || defined(__aarch64__))
#define PISCES_SIM_FIBER_ASM 1
#else
#define PISCES_SIM_FIBER_ASM 0
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PISCES_SIM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PISCES_SIM_FIBER_ASAN 1
#endif
#endif
#if !defined(PISCES_SIM_FIBER_ASAN)
#define PISCES_SIM_FIBER_ASAN 0
#endif

namespace pisces::sim::fiber {

/// Entry function of a fiber. Must never return: a finishing fiber performs
/// a final switch_to(..., /*from_dying=*/true) instead.
using Entry = void (*)(void* arg);

/// Saved execution state of one context — either a fiber or the host thread
/// the engine loop runs on.
struct Context {
#if PISCES_SIM_FIBER_ASM
  void* sp = nullptr;  ///< stack pointer; callee-saved regs live on that stack
#else
  ucontext_t uc{};
#endif
  Entry entry = nullptr;  ///< set by make(); invoked on first switch in
  void* arg = nullptr;
#if PISCES_SIM_FIBER_ASAN
  void* fake_stack = nullptr;  ///< ASan fake-stack handle while suspended
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
#endif
};

/// A fiber stack: an anonymous mapping with an inaccessible guard page at
/// the low end. The kernel commits pages on first touch, so a generous
/// reservation costs only the memory a fiber actually uses; overflow hits
/// the guard page (deterministic fault) instead of silently corrupting the
/// neighbouring allocation. The constructor throws when it cannot map the
/// stack or protect its guard page. A stack is movable, so one fiber's stack
/// can serve the next (the Engine keeps finished fibers' stacks for that);
/// the mapping is released with the last owner.
class Stack {
 public:
  Stack() = default;
  explicit Stack(std::size_t usable_bytes);
  ~Stack();
  Stack(Stack&& other) noexcept;
  Stack& operator=(Stack&& other) noexcept;

  [[nodiscard]] bool allocated() const { return base_ != nullptr; }
  /// Lowest usable address (just above the guard page).
  [[nodiscard]] void* limit() const;
  /// One past the highest usable address, 16-byte aligned.
  [[nodiscard]] void* top() const;
  [[nodiscard]] std::size_t usable_bytes() const;

 private:
  void* base_ = nullptr;   ///< mapping start (the guard page)
  std::size_t size_ = 0;   ///< total mapping size including the guard
  std::size_t guard_ = 0;  ///< guard page bytes (0 when mmap is unavailable)
};

/// Default per-fiber stack reservation (env override: PISCES_SIM_STACK_KB).
std::size_t default_stack_bytes();

/// Prepare `ctx` so the first switch_to() into it calls `entry(arg)` at the
/// top of `stack`. The stack must outlive the fiber; it may have served a
/// fiber that has finished (under ASan the shadow its frames left is
/// cleared here).
void make(Context& ctx, const Stack& stack, Entry entry, void* arg);

/// Capture the host thread's identity into `ctx` so fibers can switch back
/// to it. Under ASan this records the thread's stack bounds; otherwise it
/// only needs `ctx` to be default-initialized.
void capture_host(Context& ctx);

/// Suspend `from`, resume `to`; returns when something switches back into
/// `from`. With `from_dying` set, `from` is never resumed again — its saved
/// state may be discarded and (under ASan) its fake stack is released.
void switch_to(Context& from, Context& to, bool from_dying = false);

}  // namespace pisces::sim::fiber
