#pragma once

#include <cstdint>
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
  /// exit callbacks. The Proc is the owned object of its sim::Process, so
  /// the Engine alone destroys it. The returned reference stays valid until
  /// the caller passes it to release(): the run-time system releases a
  /// task's process when the task ends, a dead controller's, and a force's
  /// members when the force is done. A process nobody releases lasts as
  /// long as the Engine.
  Proc& create_process(std::string name, Proc::Body body);

  /// The creator of `p` will not touch it again: the Engine destroys it
  /// once its sim::Process has finished, here if it already has (see
  /// sim::Engine::release). Schedules nothing. Idempotent.
  void release(Proc& p) { engine().release(*p.sp_); }

  /// Fault injection: halt this PE. Every unfinished process is killed (in
  /// creation order, for determinism) and the kernel never dispatches
  /// again. Idempotent.
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Fail-recovery: bring a halted PE back cold. Old processes stay dead
  /// (halt() killed them); the scheduler simply starts dispatching again
  /// for processes created from now on. Idempotent on a healthy PE.
  void restart();

  // Scheduler introspection (the exec environment's "DISPLAY PE LOADING"
  // and the runtime's least-loaded task placement).
  [[nodiscard]] const Proc* current() const { return current_; }
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  /// Unfinished processes on this PE: the size of procs(), so per-task
  /// placement never scans it.
  [[nodiscard]] std::size_t live_count() const { return procs_.size(); }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  /// The unfinished processes on this PE, in creation order. A process
  /// leaves the list in Proc::finish: when its body returns or unwinds, or
  /// at once when it is killed before its body ever ran.
  [[nodiscard]] const std::vector<Proc*>& procs() const { return procs_; }
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
  /// Take a finishing process off the list and out of the scheduler.
  void remove(Proc& p);

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
  Proc* current_ = nullptr;
  sim::Tick slice_used_ = 0;
  sim::Tick busy_ticks_ = 0;
  std::uint64_t dispatches_ = 0;
  std::vector<Proc*> procs_;  ///< unfinished processes, in creation order
};

}  // namespace pisces::mmos
