#include "mmos/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "flex/fault.hpp"

namespace pisces::mmos {

Kernel::Kernel(flex::Machine& machine, int pe) : machine_(&machine), pe_(pe) {
  machine.check_pe(pe);
}

Proc& Kernel::create_process(std::string name, Proc::Body body) {
  sim::Process::Owned owned(new Proc(*this, std::move(name), std::move(body)),
                            [](void* q) { delete static_cast<Proc*>(q); });
  Proc& p = *static_cast<Proc*>(owned.get());
  p.sp_ = &engine().spawn("pe" + std::to_string(pe_) + ":" + p.name(),
                          [&p](sim::Process&) { p.body_wrapper(); },
                          std::move(owned));
  procs_.push_back(&p);
  if (halted_) {
    // Deferred so the caller can still attach on_exit callbacks before the
    // kill's exit path runs them. The process is never made ready, not even
    // by a restart(), so only a kill's resume can finish it, and that is
    // queued after this closure: `p` is still alive when it runs.
    engine().schedule(engine().now(), [&p] { p.kill(); });
    return p;
  }
  make_ready(p);
  return p;
}

void Kernel::halt() {
  if (halted_) return;
  halted_ = true;
  // Kill in creation order so the unwind sequence is deterministic. Each
  // kill routes through remove()/leave_cpu(), and with halted_ set nothing
  // is ever dispatched again; bodies unwind at their next blocking point.
  // A kill of a process whose body never ran takes it off procs_ at once,
  // so walk a copy.
  const std::vector<Proc*> doomed = procs_;
  for (Proc* p : doomed) p->kill();
}

void Kernel::restart() {
  if (!halted_) return;
  halted_ = false;
  slice_used_ = 0;
  maybe_dispatch();
}

void Kernel::make_ready(Proc& p) {
  if (p.finished_ || halted_) return;
  ready_.push_back(&p);
  maybe_dispatch();
}

void Kernel::maybe_dispatch() {
  if (halted_) return;
  while (current_ == nullptr && !ready_.empty()) {
    Proc* p = ready_.front();
    ready_.erase(ready_.begin());
    if (p->finished_) continue;
    current_ = p;
    slice_used_ = 0;
    ++dispatches_;
    // The incoming process reaches the CPU after the context-switch cost,
    // unless it left the CPU meanwhile. The closure names the dispatch, not
    // the process: current_ is either the process dispatched then or null
    // while the count is unchanged, and a process that finishes leaves the
    // CPU, so the closure never touches a record that may be gone.
    engine().schedule_in(costs().context_switch, [this, n = dispatches_] {
      if (dispatches_ == n && current_ != nullptr) {
        engine().wake(*current_->sp_);
      }
    });
    return;
  }
}

void Kernel::leave_cpu(Proc& p) {
  if (current_ == &p) {
    current_ = nullptr;
    maybe_dispatch();
  }
}

void Kernel::remove(Proc& p) {
  p.cond_blocked_ = false;
  auto it = std::find(ready_.begin(), ready_.end(), &p);
  if (it != ready_.end()) ready_.erase(it);
  // Searched from the back: a process usually finishes soon after it was
  // created, and the controllers stay at the front.
  const auto listed = std::find(procs_.rbegin(), procs_.rend(), &p);
  assert(listed != procs_.rend());
  procs_.erase(std::next(listed).base());
  leave_cpu(p);
}

sim::Tick Kernel::slice_remaining() {
  if (slice_used_ >= costs().time_slice) slice_used_ = 0;  // fresh quantum
  return costs().time_slice - slice_used_;
}

// ---- Proc ----

Proc::Proc(Kernel& kernel, std::string name, Body body)
    : kernel_(&kernel), name_(std::move(name)), body_(std::move(body)) {}

int Proc::pe() const { return kernel_->pe(); }

void Proc::body_wrapper() {
  try {
    compute(kernel_->costs().process_create);
    body_(*this);
    compute(kernel_->costs().process_exit);
  } catch (const sim::ProcessKilled&) {
    killed_ = true;
  }
  finish();
}

void Proc::finish() {
  if (finished_) return;
  finished_ = true;
  Kernel& kernel = *kernel_;
  kernel.remove(*this);
  auto& eng = kernel.engine();
  for (auto& cb : exit_callbacks_) eng.schedule(eng.now(), std::move(cb));
  exit_callbacks_.clear();
  // Drop what the body captured, killed or not. That may end the last
  // reference to something that releases this very process (a force's
  // state releases its members); its sim::Process has not finished, so the
  // Engine keeps it until after this returns.
  body_ = nullptr;
}

[[gnu::always_inline]] inline void Proc::note_slept() {
  kernel_->note_ran(slept_);
  cpu_ticks_ += slept_;
  owed_ -= slept_;
  slept_ = 0;
}

// The slice loop of compute(). Between two waits it notes the slice just
// slept, then either leaves the CPU for the ready queue (quantum exhausted
// and others waiting) or sleeps the next slice, noting it at once if it ran
// ahead; that order is what KernelSlicing.SeededTrajectoriesArePinned
// holds. Its only throwing calls are the arming kill checks, and a killed
// process is never stepped, so it cannot throw on the engine side. Always
// inlined: slices that run ahead (all of pingpong's) must cost no call.
[[gnu::always_inline]] inline bool Proc::compute_step() {
  sim::Engine& eng = kernel_->engine();
  while (owed_ > 0) {
    if (kernel_->should_preempt()) {
      // Quantum exhausted and others are waiting: go to the back of the
      // ready queue and wait to be dispatched again.
      kernel_->leave_cpu(*this);
      kernel_->make_ready(*this);
      sp_->arm_wait(sim::kForever);
      return false;
    }
    slept_ = std::min(owed_, kernel_->slice_remaining());
    if (sp_->arm_sleep(eng.now() + slept_)) return false;
    note_slept();
  }
  return true;
}

bool Proc::resume_compute(void* self) {
  Proc& p = *static_cast<Proc*>(self);
  p.note_slept();
  return p.compute_step();
}

bool Proc::resume_blocked(void* self) {
  Proc& p = *static_cast<Proc*>(self);
  if (!p.sp_->timed_out()) return true;  // dispatched
  if (p.cond_blocked_) {
    p.timed_out_ = true;
    p.wake();
  }
  return false;
}

void Proc::compute(sim::Tick ticks) {
  auto& eng = kernel_->engine();
  // Degraded-clock fault: the stretch factor is sampled once per compute
  // burst at its start tick, so the charge is a pure function of (pe, now)
  // and replays identically on both engine backends.
  if (const auto* fi = kernel_->machine().fault_injector(); fi != nullptr && ticks > 0) {
    const double f = fi->slowdown_factor(kernel_->pe(), eng.now());
    if (f != 1.0) {
      ticks = static_cast<sim::Tick>(
          std::llround(static_cast<double>(ticks) * f));
      if (ticks < 1) ticks = 1;
    }
  }
  // Slices that run ahead never leave this call. Once one has to wait, the
  // body parks and the engine runs the rest of the loop (resume_compute) at
  // each slice end and each dispatch, switching the body in only when the
  // compute is done or the process has been killed.
  owed_ = ticks;
  if (!compute_step()) sp_->park(&Proc::resume_compute, this);
}

void Proc::charge_shared(std::size_t bytes) {
  const sim::Tick now = kernel_->engine().now();
  const sim::Tick done = kernel_->machine().shared_transfer(now, bytes, pe());
  if (done > now) compute(done - now);
}

void Proc::charge_transfer(std::size_t bytes, int from_pe, int to_pe) {
  const sim::Tick now = kernel_->engine().now();
  const sim::Tick done =
      kernel_->machine().message_transfer(now, bytes, from_pe, to_pe);
  if (done > now) compute(done - now);
}

bool Proc::block_with_timeout(sim::Tick deadline) {
  timed_out_ = false;
  cond_blocked_ = true;
  kernel_->leave_cpu(*this);
  // The deadline is the sim::Process's own timed wait. Its resume runs
  // resume_blocked, and is a no-op once the body is back in or the process
  // has finished; only the dispatch switches the body in.
  sp_->arm_wait(deadline);
  sp_->park(deadline == sim::kForever ? nullptr : &Proc::resume_blocked, this);
  return timed_out_;
}

void Proc::yield() {
  if (kernel_->ready_count() == 0) return;
  kernel_->leave_cpu(*this);
  kernel_->make_ready(*this);
  sp_->wait();
}

void Proc::wake() {
  if (finished_ || !cond_blocked_) return;
  cond_blocked_ = false;
  kernel_->make_ready(*this);
}

void Proc::kill() {
  if (finished_) return;
  killed_ = true;
  if (!sp_->started()) {
    // The body never ran, and now never will (still queued, or dispatched
    // with its first resume pending): tidy the scheduler here, and let the
    // engine finish the process without running the body.
    finish();
  }
  kernel_->engine().kill(*sp_);
}

}  // namespace pisces::mmos
