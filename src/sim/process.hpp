#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace pisces::sim {

class Engine;
class Process;

namespace detail {

/// Execution substrate behind one Process: the thing that owns a suspendable
/// stack for the body and can transfer control between it and the engine
/// loop. Two implementations exist (see engine.hpp's Backend):
///  - FiberBackend: a user-level fiber; resume/suspend are direct context
///    swaps on the engine's host thread (~tens of ns).
///  - ThreadBackend: a dedicated OS thread with a mutex/condvar turn
///    handshake (two futex round-trips per handoff); kept for differential
///    testing and for ThreadSanitizer, which cannot see fiber switches.
class ProcessBackend {
 public:
  virtual ~ProcessBackend() = default;
  /// Engine side: transfer control into the body (starting it on first
  /// call); returns when the body suspends or finishes.
  virtual void resume() = 0;
  /// Body side: transfer control back to the engine loop.
  virtual void suspend() = 0;
  /// Engine side, once the body has finished: the stack it ran on, for the
  /// next process to start on. A thread has none to give.
  virtual fiber::Stack take_stack() { return {}; }

 protected:
  /// Runs the process's body wrapper on the backend's stack (backends are
  /// not friends of Process; this is their one entry point into it).
  static void run_body(Process& p);
};

}  // namespace detail

/// Thrown out of a blocking call when the process has been killed; the body
/// wrapper catches it to unwind the process's stack. User code must never
/// swallow this type (catch(...) blocks in task bodies must rethrow).
struct ProcessKilled {};

/// A cooperatively scheduled simulated process.
///
/// The Engine enforces a strict one-runnable-at-a-time handshake: at any
/// instant either the engine loop or exactly one process body is executing.
/// Virtual time only advances in the engine loop, so process bodies see a
/// consistent `engine().now()` and the whole simulation is deterministic
/// regardless of the backing substrate (fibers or host threads).
///
/// Stacks are lazy: a process holds no fiber stack (or thread) until the
/// first time the body actually runs, and gives it up as soon as the body
/// finishes: a fiber's stack goes back to the Engine for the next process
/// to start, a thread is joined.
class Process {
 public:
  using Body = std::function<void(Process&)>;
  /// An object the Engine destroys with the process (see Engine::spawn).
  using Owned = std::unique_ptr<void, void (*)(void*)>;

  enum class State {
    created,   ///< spawned, body not yet started
    blocked,   ///< waiting for a wake or timeout
    runnable,  ///< resume event scheduled but not yet fired
    running,   ///< body currently executing
    finished,  ///< body returned or process killed
  };

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] State state() const { return state_; }
  /// Whether an unfinished process's body has been switched in: false until
  /// its first resume runs it, and a process killed before that finishes
  /// without running it.
  [[nodiscard]] bool started() const { return backend_ != nullptr; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] bool killed() const { return kill_requested_; }
  /// Whether the resume that ended, or is now stepping, the last wait was
  /// its deadline rather than a wake.
  [[nodiscard]] bool timed_out() const { return timed_out_; }

  // ---- Calls below are valid only from inside this process's body. ----

  /// Block until another process/event wakes this one. Throws ProcessKilled
  /// if the process is killed while waiting.
  void wait() { (void)wait_until(kForever); }

  /// Block until woken or until virtual time `deadline`. Returns true if the
  /// deadline fired first (timeout), false if explicitly woken.
  bool wait_until(Tick deadline) {
    arm_wait(deadline);
    park(nullptr, nullptr);
    return timed_out_;
  }

  /// Yield and resume at time `at` (>= now). Other processes run meanwhile;
  /// when none has an event due by `at`, the process runs ahead instead
  /// (see Engine) and returns without yielding.
  void sleep_until(Tick at) {
    if (arm_sleep(at)) park(nullptr, nullptr);
  }

  // ---- The two waits above, split into arming and switching. A body that
  // would wake only to arm its next wait parks on an engine-side step
  // instead (mmos::Proc's compute slices do). Arming is valid from inside
  // the body, or from that step while the body is parked. ----

  /// The engine-side step a parked body waits on: it arms the next wait
  /// and returns false, or returns true to switch the body in.
  using Step = bool (*)(void*);

  /// Arm wait_until(deadline) without switching: the process is blocked
  /// until woken or, unless `deadline` is kForever, until the deadline.
  /// Throws ProcessKilled if the process has been killed.
  void arm_wait(Tick deadline);
  /// Arm sleep_until(at) without switching. Returns false, with nothing
  /// armed, when the process runs ahead to `at` instead. Throws
  /// ProcessKilled if the process has been killed.
  bool arm_sleep(Tick at);
  /// Switch to the engine until the armed wait ends. While parked, each
  /// resume that would switch the body in runs `step(arg)` on the engine
  /// side instead, as long as the process has not been killed; the body is
  /// switched in once the step returns true, or by the first resume after
  /// a kill, and then throws ProcessKilled. A null `step` switches the body
  /// in at the first resume. The step runs while the body is suspended (on
  /// the engine thread with the thread backend), and must not throw.
  void park(Step step, void* arg);

 private:
  friend class Engine;
  friend class detail::ProcessBackend;

  Process(Engine& engine, std::string name, Body body, Owned owned);

  /// Runs the body with the kill/failure wrapper; executed on the backend's
  /// stack. Marks the process finished when the body unwinds.
  void body_main();
  /// Engine side: hand control to the body; returns when the process
  /// blocks, yields, or finishes. Creates the backend on first use and
  /// retires it (stack spare / thread joined) once the body has finished.
  void run_slice();
  /// Process side: hand control back to the engine loop.
  void switch_to_engine();
  /// Schedule a typed resume event for a blocked process. `timeout`
  /// distinguishes a deadline expiry from an explicit wake; the word queued
  /// packs it with `epoch`.
  void schedule_resume(Tick at, bool timeout, std::uint64_t epoch);
  /// Engine side: a resume event fired. A no-op when stale (its wait has
  /// already ended, or the process has finished). Runs the parked body's
  /// step, or switches the body in.
  void fire_resume(std::uint64_t word);
  /// Mark finished and release per-process resources kept for the body,
  /// and the owned object once the process has been released.
  void finish();

  Engine& engine_;
  const std::string name_;
  Body body_;
  State state_ = State::created;

  std::unique_ptr<detail::ProcessBackend> backend_;  ///< null until started

  std::uint64_t wait_epoch_ = 0;  ///< invalidates stale resume events
  bool timed_out_ = false;        ///< result of the last wait_until
  bool kill_requested_ = false;
  Step step_ = nullptr;        ///< set while the body is parked on a step
  void* step_arg_ = nullptr;

  // Lifetime (see Engine::release): the owned object goes once the process
  // is released and finished; the record once it is also reaped and no
  // queued resume names it.
  static constexpr std::size_t kNoTombstone = static_cast<std::size_t>(-1);
  bool released_ = false;             ///< its owner will not touch it again
  std::uint32_t queued_resumes_ = 0;  ///< typed resumes queued for it
  std::size_t tombstone_ = kNoTombstone;  ///< index in Engine::tombstones_
  Owned owned_;                       ///< null once destroyed, or if none
};

}  // namespace pisces::sim
