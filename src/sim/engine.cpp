#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>

#if defined(__SANITIZE_THREAD__)
#define PISCES_SIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PISCES_SIM_TSAN 1
#endif
#endif
#if !defined(PISCES_SIM_TSAN)
#define PISCES_SIM_TSAN 0
#endif

namespace pisces::sim {

Backend default_backend() {
#if PISCES_SIM_TSAN
  return Backend::threads;
#else
  if (const char* env = std::getenv("PISCES_SIM_THREADS")) {
    return (env[0] != '\0' && env[0] != '0') ? Backend::threads
                                             : Backend::fibers;
  }
  return Backend::fibers;
#endif
}

namespace {

Backend coerce_backend(Backend requested) {
#if PISCES_SIM_TSAN
  // TSan cannot see fiber context switches and would report false races on
  // fiber stacks; force the thread backend regardless of the request.
  (void)requested;
  return Backend::threads;
#else
  return requested;
#endif
}

}  // namespace

Engine::Engine(Backend backend) : backend_(coerce_backend(backend)) {
  if (backend_ == Backend::fibers) fiber::capture_host(host_ctx_);
}

Engine::~Engine() { shutdown_processes(); }

void Engine::shutdown_processes() {
  shutting_down_ = true;
  // Unwind every live process. Each run_slice hands the body one turn: a
  // never-started body goes straight to finished; a blocked/runnable body
  // throws ProcessKilled from its wait. Index loop: a destructor running
  // inside an unwinding body may spawn (which appends to processes_).
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    while (p.state_ != Process::State::finished) {
      p.kill_requested_ = true;
      p.run_slice();
    }
  }
}

void Engine::schedule(Tick at, EventQueue::Action action) {
  if (shutting_down_) return;
  queue_.push(std::max(at, now_), std::move(action));
}

EventSlot Engine::reserve_order(Tick at) {
  const EventSlot slot{std::max(at, now_), queue_.reserve_seq()};
  (void)pass_reservation(now_);  // drops reached ticks; never moves the clock
  if (slot.at > now_) {
    reserved_.push_back(slot.at);
    std::push_heap(reserved_.begin(), reserved_.end(), std::greater<>{});
  }
  return slot;
}

void Engine::schedule_reserved(EventSlot slot, EventQueue::Action action) {
  if (shutting_down_) return;
  assert(slot.at >= now_ && "a reserved place cannot be in the past");
  if (slot.at > now_) {
    // The place holds an event now: drop one reservation at its tick.
    const auto it = std::find(reserved_.begin(), reserved_.end(), slot.at);
    assert(it != reserved_.end() && "a reserved place filled twice");
    *it = reserved_.back();
    reserved_.pop_back();
    std::make_heap(reserved_.begin(), reserved_.end(), std::greater<>{});
  }
  queue_.push_keyed(slot.at, slot.seq, std::move(action));
}

bool Engine::pass_reservation(Tick limit) {
  while (!reserved_.empty() && reserved_.front() <= limit) {
    const Tick at = reserved_.front();
    std::pop_heap(reserved_.begin(), reserved_.end(), std::greater<>{});
    reserved_.pop_back();
    if (at > now_) {
      now_ = at;
      return true;
    }
  }
  return false;
}

void Engine::schedule_resume(Tick at, Process& p, std::uint64_t word) {
  if (shutting_down_) return;
  queue_.push_resume(std::max(at, now_), p, word);
  ++p.queued_resumes_;
}

bool Engine::run_ahead(Tick at) {
  at = std::max(at, now_);
  // An event already queued at `at` has a lower sequence number than the
  // resume would get, so it must fire first: run ahead only past strictly
  // later events.
  if (shutting_down_ || at > horizon_ ||
      (!queue_.empty() && queue_.next_tick() <= at)) {
    return false;
  }
  now_ = at;
  return true;
}

Process& Engine::spawn(std::string name, Process::Body body) {
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, next_process_id_++, std::move(name), std::move(body))));
  ++live_count_;
  return *processes_.back();
}

void Engine::wake(Process& p) {
  if (p.state_ == Process::State::blocked || p.state_ == Process::State::created) {
    p.state_ = Process::State::runnable;
    p.schedule_resume(now_, /*timeout=*/false, p.wait_epoch_);
  }
}

void Engine::kill(Process& p) {
  if (p.state_ == Process::State::finished) return;
  p.kill_requested_ = true;
  if (p.state_ == Process::State::blocked || p.state_ == Process::State::created) {
    // Wake it so the kill takes effect now rather than at an arbitrary
    // future wake.
    p.state_ = Process::State::runnable;
    p.schedule_resume(now_, /*timeout=*/false, p.wait_epoch_);
  }
  // A runnable or running process unwinds at its next blocking call.
}

void Engine::on_process_finished() {
  --live_count_;
  ++unreaped_finished_;
}

void Engine::release(Process& p) {
  p.released_ = true;
  collect(p);
}

void Engine::collect(Process& p) {
  if (!p.released_ || p.queued_resumes_ != 0 ||
      p.tombstone_ == Process::kNoTombstone) {
    return;
  }
  // Swap the last tombstone into p's place; the move destroys p.
  const std::size_t i = p.tombstone_;
  tombstones_[i] = std::move(tombstones_.back());
  tombstones_[i]->tombstone_ = i;
  tombstones_.pop_back();
}

bool Engine::step() {
  // A place reserved and never filled is a no-op event at its tick.
  if (queue_.empty()) return pass_reservation(kForever);
  const EventQueue::Event event = queue_.pop_event();
  now_ = std::max(now_, event.at);
  ++events_fired_;
  if (event.process != nullptr) {
    Process& p = *event.process;
    --p.queued_resumes_;
    p.fire_resume(event.arg);
    // A stale resume may have been the last thing naming a tombstone.
    if (p.tombstone_ != Process::kNoTombstone) collect(p);
  } else {
    queue_.take_action(event)();
  }
  if (unreaped_finished_ >= kReapBatch) reap_finished();
  if (failure_) {
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    std::rethrow_exception(e);
  }
  return true;
}

Tick Engine::run() {
  while (step()) {
  }
  return now_;
}

Tick Engine::run_until(Tick limit) {
  // The horizon is restored on every exit, including a body's exception
  // rethrown from step().
  struct RestoreHorizon {
    Tick& horizon;
    Tick saved;
    ~RestoreHorizon() { horizon = saved; }
  } restore{horizon_, horizon_};
  horizon_ = limit;
  while (!queue_.empty() && queue_.next_tick() <= limit) step();
  // Unfilled places up to the limit count as events too: the clock ends at
  // the last of them if that comes after the last event fired.
  while (pass_reservation(limit)) {
  }
  return now_;
}

void Engine::reap_finished() {
  if (unreaped_finished_ == 0) return;
  std::size_t dest = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    if (p.state() == Process::State::finished) {
      ++reaped_;
      if (p.released_ && p.queued_resumes_ == 0) {
        processes_[i].reset();
      } else {
        p.tombstone_ = tombstones_.size();
        tombstones_.push_back(std::move(processes_[i]));
      }
    } else {
      if (dest != i) processes_[dest] = std::move(processes_[i]);
      ++dest;
    }
  }
  processes_.resize(dest);
  unreaped_finished_ = 0;
}

std::vector<const Process*> Engine::blocked_processes() const {
  std::vector<const Process*> out;
  for (const auto& p : processes_) {
    if (p->state() == Process::State::blocked) out.push_back(p.get());
  }
  return out;
}

}  // namespace pisces::sim
