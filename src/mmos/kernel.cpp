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
  auto proc = std::unique_ptr<Proc>(
      new Proc(*this, next_proc_id_++, std::move(name), std::move(body)));
  Proc& p = *proc;
  p.sp_ = &engine().spawn("pe" + std::to_string(pe_) + ":" + p.name(),
                          [this, &p](sim::Process&) {
                            ++p.pins_;
                            p.body_wrapper();
                            --p.pins_;
                            collect(p);
                          });
  procs_.push_back(std::move(proc));
  ++live_;
  if (halted_) {
    // Deferred so the caller can still attach on_exit callbacks before the
    // kill's exit path runs them.
    ++p.queued_;
    engine().schedule(engine().now(), [this, &p] {
      --p.queued_;
      if (p.finished_) {
        collect(p);
      } else {
        p.kill();
      }
    });
    return p;
  }
  make_ready(p);
  return p;
}

void Kernel::release(Proc& p) {
  p.released_ = true;
  collect(p);
}

void Kernel::collect(Proc& p) {
  if (!p.finished_ || !p.released_ || p.pins_ != 0 || p.queued_ != 0) return;
  // Searched from the back: a record is usually released soon after it was
  // created, and the table holds only what has not been destroyed.
  const auto it = std::find_if(procs_.rbegin(), procs_.rend(),
                               [&p](const auto& q) { return q.get() == &p; });
  assert(it != procs_.rend());
  engine().release(*p.sp_);
  procs_.erase(std::next(it).base());
}

void Kernel::halt() {
  if (halted_) return;
  halted_ = true;
  // Kill in creation order so the unwind sequence is deterministic. Each
  // kill routes through remove()/leave_cpu(), and with halted_ set nothing
  // is ever dispatched again; bodies unwind at their next blocking point.
  // A kill may finish a process on the spot and destroy released records,
  // so walk the unfinished ones listed first: only finished records go.
  std::vector<Proc*> doomed;
  for (const auto& p : procs_) {
    if (!p->finished_) doomed.push_back(p.get());
  }
  for (Proc* p : doomed) p->kill();
}

void Kernel::restart() {
  if (!halted_) return;
  halted_ = false;
  slice_used_ = 0;
  maybe_dispatch();
}

bool Kernel::live_count_consistent() const {
  const std::size_t actual = static_cast<std::size_t>(
      std::count_if(procs_.begin(), procs_.end(),
                    [](const std::unique_ptr<Proc>& p) { return !p->finished_; }));
  return actual == live_;
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
  --live_;
  leave_cpu(p);
}

sim::Tick Kernel::slice_remaining() {
  if (slice_used_ >= costs().time_slice) slice_used_ = 0;  // fresh quantum
  return costs().time_slice - slice_used_;
}

// ---- Proc ----

Proc::Proc(Kernel& kernel, std::uint64_t id, std::string name, Body body)
    : kernel_(&kernel), id_(id), name_(std::move(name)), body_(std::move(body)) {}

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
  // state releases its members), so stay pinned while it goes.
  ++pins_;
  body_ = nullptr;
  --pins_;
  kernel.collect(*this);
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
  ++block_epoch_;
  const std::uint64_t epoch = block_epoch_;
  timed_out_ = false;
  cond_blocked_ = true;
  kernel_->leave_cpu(*this);
  if (deadline != sim::kForever) {
    // Queued until the deadline even if a wake comes first, so it keeps
    // the record alive until then.
    ++queued_;
    kernel_->engine().schedule(deadline, [this, epoch] {
      --queued_;
      if (epoch == block_epoch_ && cond_blocked_) {
        timed_out_ = true;
        wake();
      }
      kernel_->collect(*this);
    });
  }
  sp_->wait();  // until dispatched again
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
  sim::Process& sp = *sp_;
  sim::Engine& eng = kernel_->engine();
  if (sp.state() == sim::Process::State::created) {
    // Never dispatched: tidy the scheduler here, then let the host thread
    // exit without running the body. finish() may destroy this process, so
    // only locals are used after it.
    finish();
  }
  eng.kill(sp);
}

}  // namespace pisces::mmos
