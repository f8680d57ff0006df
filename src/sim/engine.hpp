#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace pisces::sim {

/// Execution substrate for process bodies. `fibers` runs every body as a
/// user-level fiber on the engine's host thread (direct context swaps, no
/// syscalls); `threads` gives each body a dedicated OS thread with a
/// mutex/condvar handshake. Both honour the same determinism contract and
/// produce tick-identical simulations.
enum class Backend {
  fibers,
  threads,
};

/// The backend a default-constructed Engine uses:
///  - ThreadSanitizer builds always get `threads` (TSan cannot track fiber
///    context switches and reports false races on fiber stacks).
///  - Otherwise `threads` when the PISCES_SIM_THREADS environment variable
///    is set to anything but "" or "0", and `fibers` when it is not.
[[nodiscard]] Backend default_backend();

/// A place in the engine's event order: a tick, and a position among the
/// events at that tick. Compares in firing order.
struct EventSlot {
  Tick at = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const EventSlot&, const EventSlot&) = default;
};

/// Discrete-event simulation engine: a virtual clock, a time-ordered event
/// queue, and a set of cooperative processes. This is the substrate on which
/// the FLEX/32 machine model and the MMOS kernel are built.
///
/// Determinism contract: events at equal ticks fire in schedule order; only
/// one process body runs at a time; virtual time advances only between
/// events, or when a process runs ahead (below). Given the same inputs, a
/// simulation always produces the same trace — on either backend.
///
/// Run-ahead: when a process sleeps until a tick at which nothing else is
/// queued, at or before, and within the active run limit, its own resume
/// would be the very next event fired. The process then moves the clock and
/// keeps running: no event, no switch. Skipping the (tick, seq)-minimum
/// cannot reorder any other event, so trajectories are the same as without
/// it; only events_fired() is lower.
///
/// Parked bodies: a body can arm its wait and park on an engine-side step
/// (Process::park). A resume of a parked body that has not been killed runs
/// the step in the engine loop instead of switching into the body; the step
/// arms the next wait, or lets the body continue. Its waits are the events
/// the body's own would have been, in the same places, so trajectories and
/// events_fired() are the same; only body_switches() is lower.
///
/// Fiber stacks: a process takes a stack when its body first runs and hands
/// it back when the body finishes; the next process to start reuses the
/// stack returned last, and a new one is mapped only when none is spare.
/// So the engine never holds more stacks than the most fibers ever live at
/// once, and unmaps them when it is destroyed.
///
/// Process records: the Engine is the one owner of each process and of the
/// object spawned with it. A released process's owned object goes once its
/// body has finished, and the process itself once it has also been reaped
/// and no queued resume names it, so memory follows the live set rather
/// than every process ever spawned. Only processes nobody releases stay, as
/// tombstones with their owned objects, for the Engine's lifetime.
///
/// An Engine and all its processes run on the thread that constructed it.
class Engine {
 public:
  explicit Engine(Backend backend = default_backend());
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedule `action` to run at absolute tick `at` (>= now).
  void schedule(Tick at, EventQueue::Action action);
  /// Schedule `action` to run `delay` ticks from now.
  void schedule_in(Tick delay, EventQueue::Action action) {
    schedule(now_ + delay, std::move(action));
  }

  /// Reserve the place schedule(at, ...) would give an event now, without
  /// queueing anything. A caller that may never need the event (a timer
  /// whose cause is usually resolved first) reserves its place instead of
  /// scheduling it. A place never filled still acts as a no-op event at its
  /// tick wherever a run can stop: step() with nothing queued moves the
  /// clock to it, run_until() counts it among the events up to its limit,
  /// and pending_events() counts it while it lies ahead. So every run, whole
  /// or cut, stops at the tick it would reach had the event been scheduled.
  EventSlot reserve_order(Tick at);
  /// Queue `action` in a place from reserve_order(): it fires exactly where
  /// it would have fired had schedule() been called at reservation time.
  /// The place must not precede the event now firing, and takes at most one
  /// action.
  void schedule_reserved(EventSlot slot, EventQueue::Action action);

  /// Create a process. The body does not start running until wake() is
  /// called on it. `owned`, if set, is the caller's record of the process
  /// (mmos::Kernel passes its Proc): the Engine destroys it once the process
  /// has been released and its body has finished, whichever comes last,
  /// and frees it too if spawn throws. The returned reference stays
  /// valid until the caller passes it to release(); the process then goes
  /// once it has finished, been reaped and no queued resume names it. A
  /// process nobody releases, and its owned object, last as long as the
  /// Engine (once finished, it is reaped to a tombstone).
  Process& spawn(std::string name, Process::Body body,
                 Process::Owned owned = {nullptr, nullptr});

  /// The owner of `p` will not touch it again. The Engine destroys p's
  /// owned object once the body has finished, and `p` once it has also been
  /// reaped and no queued resume names it: each here if that already
  /// holds, else when the last of those happens. Destroying schedules
  /// nothing. Idempotent.
  void release(Process& p);

  /// Wake a blocked (or not-yet-started) process at the current tick.
  /// No-op if the process is runnable, running, or finished — callers use
  /// condition-recheck loops, so a redundant wake is harmless.
  void wake(Process& p);

  /// Request that a process unwind and finish. A blocked process is woken
  /// immediately; a running/runnable one unwinds at its next blocking call.
  void kill(Process& p);

  /// Run until the event queue is empty. Returns the final tick.
  Tick run();
  /// Run events with tick <= `limit`; processes run ahead no further than
  /// `limit` either, so the clock never passes it. Returns the tick reached.
  Tick run_until(Tick limit);
  /// Fire a single event if one is pending. Returns false when idle. A step
  /// that resumes a process, or runs a parked body's step, lasts until that
  /// process blocks, so it may cover several of its slices when it runs
  /// ahead (with no limit: kForever).
  /// With nothing queued but a reserved place ahead, a step only moves the
  /// clock to the earliest one.
  bool step();

  /// Processes currently blocked with no pending event to wake them — a
  /// non-empty result after run() indicates deadlock (or tasks waiting for
  /// external input).
  [[nodiscard]] std::vector<const Process*> blocked_processes() const;

  /// Force-unwind every live process (their blocking calls throw
  /// ProcessKilled) and release their stacks/threads. Called automatically
  /// by the destructor; call it earlier when higher-level objects referenced
  /// by process bodies are destroyed before the Engine. Idempotent. After
  /// shutdown, schedule() becomes a no-op and exit callbacks do not run.
  void shutdown_processes();
  /// True once shutdown_processes() has run.
  [[nodiscard]] bool shut_down() const { return shutting_down_; }

  /// Move finished processes out of the live set so scans stay proportional
  /// to live processes. Their heavy state (stack/thread, body storage) was
  /// already given up when the body finished. A released process no queued
  /// resume names is destroyed; the rest stay as small tombstones, so
  /// references returned by spawn() stay valid until release(). Runs
  /// automatically every few hundred finishes during run(); public so
  /// long-lived sessions with dynamic task churn can force it at a barrier.
  void reap_finished();

  /// Events that actually fired: closures, and resumes that went through the
  /// queue. A run-ahead fires nothing and is not counted.
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  /// Events still queued, plus reserved places never filled that lie ahead
  /// (0 after run() unless run_until stopped early).
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() + static_cast<std::size_t>(std::count_if(
                               reserved_.begin(), reserved_.end(),
                               [this](Tick at) { return at > now_; }));
  }
  [[nodiscard]] std::size_t live_process_count() const { return live_count_; }
  /// Finished processes reaped so far, destroyed or kept as tombstones:
  /// after reap_finished(), live + reaped counts every process spawned.
  [[nodiscard]] std::size_t reaped_process_count() const { return reaped_; }
  /// Fiber stacks this engine has mapped, in use or spare (0 on threads).
  [[nodiscard]] std::size_t fiber_stacks() const { return stacks_made_; }
  /// Switches into a process body so far, on either backend: a body's start
  /// and each resume that ran it. A run-ahead, and a resume that runs a
  /// parked body's step (Process::park), switch nothing.
  [[nodiscard]] std::uint64_t body_switches() const { return body_switches_; }

 private:
  friend class Process;

  /// Called from a process body that threw (other than ProcessKilled): the
  /// exception is stashed and rethrown from the run loop.
  void note_failure(std::exception_ptr e) { failure_ = std::move(e); }
  /// Bookkeeping when a body finishes (any backend, any path).
  void on_process_finished();
  /// Destroy `p` if it is a released tombstone no queued resume names.
  void collect(Process& p);
  /// Queue a typed resume of `p` at `at` (clamped to now); `word` is handed
  /// back to Process::fire_resume.
  void schedule_resume(Tick at, Process& p, std::uint64_t word);
  /// Called by a process about to sleep until `at`: if its resume would be
  /// the next event fired, move the clock there and return true (the
  /// process keeps running); otherwise change nothing and return false.
  bool run_ahead(Tick at);
  /// Drop the reserved ticks the clock has reached, then move it to the
  /// earliest one left if that is at most `limit`. Returns whether it moved.
  bool pass_reservation(Tick limit);
  /// Instantiate the configured backend for a process about to start, on
  /// the spare fiber stack returned last if there is one.
  std::unique_ptr<detail::ProcessBackend> make_backend(Process& p);
  /// Dispose of a finished process's backend: its fiber stack goes to the
  /// spare list, its thread is joined.
  void retire_backend(std::unique_ptr<detail::ProcessBackend> backend);

  /// Batch size for automatic reaping: big enough that the move is
  /// amortized, small enough that churny sessions stay flat.
  static constexpr std::size_t kReapBatch = 256;

  Backend backend_;
  fiber::Context host_ctx_;  ///< the engine loop's own context (fiber backend)
  Tick now_ = 0;
  Tick horizon_ = kForever;  ///< active run_until limit; no run-ahead past it
  bool shutting_down_ = false;
  EventQueue queue_;
  std::vector<std::unique_ptr<Process>> processes_;  ///< live + not yet reaped
  /// Finished and reaped, not yet destroyed: never released, or released
  /// while a queued resume still names it. Unordered; each knows its index.
  std::vector<std::unique_ptr<Process>> tombstones_;
  std::size_t live_count_ = 0;
  std::size_t unreaped_finished_ = 0;
  std::size_t reaped_ = 0;
  std::uint64_t events_fired_ = 0;
  std::exception_ptr failure_;
  /// Ticks of the places reserved and never filled, as a min-heap; ticks
  /// the clock has reached are dropped lazily.
  std::vector<Tick> reserved_;
  /// Stacks of finished fibers, taken from the back by the next to start.
  std::vector<fiber::Stack> spare_stacks_;
  std::size_t stacks_made_ = 0;
  std::uint64_t body_switches_ = 0;
};

}  // namespace pisces::sim
