#include "mmos/kernel.hpp"

#include <algorithm>
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
                          [&p](sim::Process& sp) { p.body_wrapper(sp); });
  procs_.push_back(std::move(proc));
  ++live_;
  if (halted_) {
    // Deferred so the caller can still attach on_exit callbacks before the
    // kill's exit path runs them.
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
  // kill routes through remove()/release(), and with halted_ set nothing is
  // ever dispatched again; bodies unwind at their next blocking point.
  for (auto& p : procs_) {
    if (!p->finished_) p->kill();
  }
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
    // The incoming process reaches the CPU after the context-switch cost.
    engine().schedule_in(costs().context_switch, [this, p] {
      if (current_ == p && !p->finished_) engine().wake(*p->sp_);
    });
    return;
  }
}

void Kernel::release(Proc& p) {
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
  release(p);
}

sim::Tick Kernel::slice_remaining() {
  if (slice_used_ >= costs().time_slice) slice_used_ = 0;  // fresh quantum
  return costs().time_slice - slice_used_;
}

// ---- Proc ----

Proc::Proc(Kernel& kernel, std::uint64_t id, std::string name, Body body)
    : kernel_(&kernel), id_(id), name_(std::move(name)), body_(std::move(body)) {}

int Proc::pe() const { return kernel_->pe(); }

void Proc::body_wrapper(sim::Process& /*sp*/) {
  try {
    compute(kernel_->costs().process_create);
    body_(*this);
    body_ = nullptr;
    compute(kernel_->costs().process_exit);
  } catch (const sim::ProcessKilled&) {
    killed_ = true;
  }
  finish();
}

void Proc::finish() {
  if (finished_) return;
  finished_ = true;
  kernel_->remove(*this);
  auto& eng = kernel_->engine();
  for (auto& cb : exit_callbacks_) eng.schedule(eng.now(), std::move(cb));
  exit_callbacks_.clear();
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
  while (ticks > 0) {
    if (kernel_->should_preempt()) {
      // Quantum exhausted and others are waiting: go to the back of the
      // ready queue and wait to be dispatched again.
      kernel_->release(*this);
      kernel_->make_ready(*this);
      sp_->wait();
    }
    const sim::Tick run = std::min(ticks, kernel_->slice_remaining());
    sp_->sleep_until(eng.now() + run);
    kernel_->note_ran(run);
    cpu_ticks_ += run;
    ticks -= run;
  }
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
  kernel_->release(*this);
  if (deadline != sim::kForever) {
    kernel_->engine().schedule(deadline, [this, epoch] {
      if (epoch == block_epoch_ && cond_blocked_) {
        timed_out_ = true;
        wake();
      }
    });
  }
  sp_->wait();  // until dispatched again
  return timed_out_;
}

void Proc::yield() {
  if (kernel_->ready_count() == 0) return;
  kernel_->release(*this);
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
  if (sp_->state() == sim::Process::State::created) {
    // Never dispatched: tidy the scheduler here, then let the host thread
    // exit without running the body.
    finish();
  }
  kernel_->engine().kill(*sp_);
}

}  // namespace pisces::mmos
