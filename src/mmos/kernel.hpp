#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flex/machine.hpp"
#include "mmos/proc.hpp"
#include "sim/time.hpp"

namespace pisces::mmos {

/// The MMOS kernel instance on one MMOS PE (paper Section 11: "a simple
/// Unix-like kernel that provides multiprogramming, I/O, storage allocation").
/// Scheduling is round-robin with a fixed time slice; a dispatch charges a
/// context-switch cost before the incoming process runs.
class Kernel {
 public:
  Kernel(flex::Machine& machine, int pe);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] int pe() const { return pe_; }
  [[nodiscard]] flex::Machine& machine() { return *machine_; }
  [[nodiscard]] sim::Engine& engine() { return machine_->engine(); }
  [[nodiscard]] const flex::CostModel& costs() const { return machine_->costs(); }

  /// Create a process on this PE. It becomes ready immediately and starts
  /// (with process-creation cost charged to it) when first dispatched. On a
  /// halted PE the process is created already doomed: a kill is scheduled
  /// for the current tick, after the caller has had a chance to register
  /// exit callbacks. The returned reference stays valid until the caller
  /// passes it to release(): the run-time system releases a task's process
  /// when the task ends, a dead controller's, and a force's members when
  /// the force is done. A process nobody releases stays in procs() for the
  /// Kernel's lifetime.
  Proc& create_process(std::string name, Proc::Body body);

  /// The creator of `p` will not touch it again. The Kernel destroys it
  /// once it has finished, its own calls have returned and no queued event
  /// names it: here if that already holds, else when the last of those
  /// happens. Its sim::Process then goes to sim::Engine::release. Releasing
  /// or destroying schedules nothing. Idempotent.
  void release(Proc& p);

  /// Fault injection: halt this PE. Every unfinished process is killed (in
  /// creation order, for determinism) and the kernel never dispatches
  /// again. Idempotent.
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Fail-recovery: bring a halted PE back cold. Old processes stay dead
  /// (their records were reclaimed at halt time); the scheduler simply
  /// starts dispatching again for processes created from now on. Idempotent
  /// on a healthy PE.
  void restart();

  /// Invariant check for the O(1) live counter: true iff `live_count()`
  /// matches a fresh scan of the process table. O(n) — meant for the
  /// watchdog sweep and test assertions, not hot paths.
  [[nodiscard]] bool live_count_consistent() const;

  // Scheduler introspection (the exec environment's "DISPLAY PE LOADING"
  // and the runtime's least-loaded task placement).
  [[nodiscard]] const Proc* current() const { return current_; }
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  /// Unfinished processes on this PE. O(1): maintained at process create
  /// and finish, so per-task placement never rescans the process table.
  [[nodiscard]] std::size_t live_count() const { return live_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  /// Processes created here and not yet destroyed, in creation order: the
  /// live ones, finished ones nobody released, and released ones a queued
  /// event still names.
  [[nodiscard]] const std::vector<std::unique_ptr<Proc>>& procs() const {
    return procs_;
  }
  /// Ticks this PE spent executing process work (excludes context
  /// switches and idle time).
  [[nodiscard]] sim::Tick busy_ticks() const { return busy_ticks_; }
  /// Fraction of [0, now] this PE was doing useful work.
  [[nodiscard]] double utilization(sim::Tick now) const {
    return now <= 0 ? 0.0
                    : static_cast<double>(busy_ticks_) / static_cast<double>(now);
  }

 private:
  friend class Proc;

  void make_ready(Proc& p);
  /// If the CPU is idle and someone is ready, start a dispatch.
  void maybe_dispatch();
  /// Called by the running process to give up the CPU (block or exit).
  void leave_cpu(Proc& p);
  /// Remove a process from scheduler structures wherever it is (kill path).
  void remove(Proc& p);
  /// Destroy `p` if it is released, finished, off its own stack and named
  /// by no queued event.
  void collect(Proc& p);

  /// Remaining ticks in the current quantum; refreshes the quantum when the
  /// ready queue is empty (nobody to preempt for).
  sim::Tick slice_remaining();
  void note_ran(sim::Tick t) {
    slice_used_ += t;
    busy_ticks_ += t;
  }
  [[nodiscard]] bool should_preempt() const {
    return slice_used_ >= costs().time_slice && !ready_.empty();
  }

  flex::Machine* machine_;
  int pe_;
  bool halted_ = false;
  /// FIFO, popped from the front: it holds a few processes at most (4 over
  /// the seed-1 perfbench runs), and unlike a deque it allocates neither at
  /// construction nor as it cycles.
  std::vector<Proc*> ready_;
  std::size_t live_ = 0;
  Proc* current_ = nullptr;
  sim::Tick slice_used_ = 0;
  sim::Tick busy_ticks_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t next_proc_id_ = 1;
  std::vector<std::unique_ptr<Proc>> procs_;
};

}  // namespace pisces::mmos
