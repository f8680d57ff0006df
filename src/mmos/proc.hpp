#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/time.hpp"

namespace pisces::mmos {

class Kernel;
class System;

/// An MMOS process: a simulated-OS process bound to one PE, scheduled
/// round-robin by that PE's Kernel. A Proc consumes CPU explicitly via
/// compute(); everything else (message waits, lock waits, barriers) is a
/// kernel-level block that releases the PE.
///
/// Two wait levels exist and must not be confused:
///  * sim::Process waits: "waiting to be put on the CPU" (internal), and
///    the compute slices themselves;
///  * Proc::block*: "waiting for a condition" (used by the PISCES runtime).
/// A block is one sim::Process wait, lasting until the process is
/// dispatched again, and its deadline is that wait's own: if it fires
/// first, the step the body parks on ends the condition wait (the process
/// becomes ready), and the body is still switched in only by its dispatch.
/// A compute() that has to wait parks its body on an engine-side step: the
/// end of each slice, and each dispatch back into the unfinished compute,
/// run the slice loop's bookkeeping in the engine loop, and the body is
/// switched in only when the compute is done or the process is killed.
class Proc {
 public:
  using Body = std::function<void(Proc&)>;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int pe() const;
  [[nodiscard]] Kernel& kernel() { return *kernel_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool was_killed() const { return killed_; }
  [[nodiscard]] sim::Tick cpu_ticks() const { return cpu_ticks_; }

  // ---- Calls valid only from inside this process's body ----

  /// Consume `ticks` of CPU on this PE, interleaving with other ready
  /// processes at time-slice boundaries (MMOS round robin). Each slice is a
  /// sleep of the sim::Process; the body returns from here at the tick the
  /// last slice ends, but is not switched in between slices.
  void compute(sim::Tick ticks);

  /// Release the PE and wait until another process calls wake().
  void block() { (void)block_with_timeout(sim::kForever); }

  /// Release the PE and wait until wake() or `deadline`. Returns true if
  /// the deadline expired first.
  bool block_with_timeout(sim::Tick deadline);

  /// Release the PE briefly so equal-priority ready processes can run.
  void yield();

  /// Wait, on this PE's CPU, for a transfer of `bytes` through shared
  /// memory on this PE's own cluster bus (latency + bus occupancy).
  void charge_shared(std::size_t bytes);
  /// Wait, on this PE's CPU, for a PE-to-PE copy of `bytes`: one cluster-bus
  /// transfer when the PEs share a hardware cluster, a store-and-forward
  /// route across the backbone otherwise.
  void charge_transfer(std::size_t bytes, int from_pe, int to_pe);

  // ---- Calls valid from anywhere in the simulation ----

  /// Make a condition-blocked process ready again. No-op otherwise
  /// (callers re-check their condition, so redundant wakes are harmless).
  void wake();

  /// Terminate the process. Its stack unwinds at the next blocking point;
  /// exit callbacks still run. A released process never started finishes
  /// here and may be destroyed before kill() returns.
  void kill();

  /// Register a callback to run (as an engine event) when the process
  /// finishes, normally or by kill.
  void on_exit(std::function<void()> fn) { exit_callbacks_.push_back(std::move(fn)); }

 private:
  friend class Kernel;
  friend class System;

  Proc(Kernel& kernel, std::uint64_t id, std::string name, Body body);

  void body_wrapper();
  /// compute()'s slice loop from where it stands: returns false once it has
  /// armed a wait (a slice, or a block until dispatched again), true once
  /// nothing is owed. Inlined into compute(), whose slices mostly run ahead.
  bool compute_step();
  /// Bill the slice just slept to this PE and this process.
  void note_slept();
  /// The engine-side step a computing body parks on: notes the slice just
  /// slept (none after a dispatch), then runs compute_step().
  static bool resume_compute(void* self);
  /// The engine-side step a body blocked with a deadline parks on: a
  /// dispatch switches the body in; the deadline wakes the process if it is
  /// still blocked, and the body stays parked until it is dispatched.
  static bool resume_blocked(void* self);
  /// Mark finished: leave the scheduler, queue the exit callbacks and drop
  /// the body with whatever it captured. The last thing it does may be to
  /// destroy this process (see Kernel::release).
  void finish();

  Kernel* kernel_;
  std::uint64_t id_;
  std::string name_;
  Body body_;
  sim::Process* sp_ = nullptr;

  bool cond_blocked_ = false;
  bool timed_out_ = false;
  bool finished_ = false;
  bool killed_ = false;
  sim::Tick cpu_ticks_ = 0;
  sim::Tick owed_ = 0;   ///< ticks the running compute() still has to bill
  sim::Tick slept_ = 0;  ///< length of the slice armed, noted when it ends
  std::vector<std::function<void()>> exit_callbacks_;

  // Lifetime (see Kernel::release).
  bool released_ = false;  ///< its creator will not touch it again
  int pins_ = 0;           ///< its own calls on the stack (body, finish)
  int queued_ = 0;         ///< engine closures naming it (a halted PE's kill)
};

}  // namespace pisces::mmos
