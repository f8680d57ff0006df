#include "sim/process.hpp"

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pisces::sim {

void detail::ProcessBackend::run_body(Process& p) { p.body_main(); }

namespace detail {
namespace {

/// User-level fiber backend: the body runs on its own guard-paged stack but
/// on the engine's host thread; resume/suspend are single context swaps.
class FiberBackend final : public ProcessBackend {
 public:
  FiberBackend(Process& proc, fiber::Context& host, fiber::Stack stack)
      : proc_(proc), host_(host), stack_(std::move(stack)) {
    fiber::make(ctx_, stack_, &FiberBackend::entry, this);
  }

  void resume() override { fiber::switch_to(host_, ctx_); }
  void suspend() override { fiber::switch_to(ctx_, host_); }
  fiber::Stack take_stack() override { return std::move(stack_); }

 private:
  static void entry(void* self_v) {
    auto* self = static_cast<FiberBackend*>(self_v);
    run_body(self->proc_);
    // The body has fully unwound; this fiber is never resumed again, so the
    // dying switch lets ASan retire its fake stack and run_slice hand the
    // real one to the next process.
    fiber::switch_to(self->ctx_, self->host_, /*from_dying=*/true);
    std::abort();  // unreachable: nothing switches back into a dead fiber
  }

  Process& proc_;
  fiber::Context& host_;
  fiber::Stack stack_;
  fiber::Context ctx_;  ///< must not move after make(); backend is heap-pinned
};

/// OS-thread backend: the original substrate. One dedicated thread per
/// process with a strict turn handshake — at any instant either the engine
/// or the body owns the turn, so semantics match the fiber backend exactly
/// (just slower: every handoff is two futex round-trips).
class ThreadBackend final : public ProcessBackend {
 public:
  explicit ThreadBackend(Process& proc) : proc_(proc) {
    thread_ = std::thread([this] { thread_main(); });
  }

  ~ThreadBackend() override {
    if (thread_.joinable()) thread_.join();
  }

  void resume() override {
    std::unique_lock lock(mutex_);
    turn_ = Turn::process;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::engine; });
  }

  void suspend() override {
    std::unique_lock lock(mutex_);
    turn_ = Turn::engine;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::process; });
  }

 private:
  void thread_main() {
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return turn_ == Turn::process; });
    }
    run_body(proc_);
    {
      std::lock_guard lock(mutex_);
      turn_ = Turn::engine;
    }
    cv_.notify_all();
  }

  Process& proc_;
  enum class Turn { engine, process };
  std::mutex mutex_;
  std::condition_variable cv_;
  Turn turn_ = Turn::engine;
  std::thread thread_;
};

}  // namespace
}  // namespace detail

// Defined here (not engine.cpp) so the concrete backend types stay local to
// this translation unit.
std::unique_ptr<detail::ProcessBackend> Engine::make_backend(Process& p) {
  if (backend_ == Backend::threads) {
    return std::make_unique<detail::ThreadBackend>(p);
  }
  fiber::Stack stack;
  if (spare_stacks_.empty()) {
    stack = fiber::Stack(fiber::default_stack_bytes());
    ++stacks_made_;
  } else {
    stack = std::move(spare_stacks_.back());
    spare_stacks_.pop_back();
  }
  return std::make_unique<detail::FiberBackend>(p, host_ctx_, std::move(stack));
}

void Engine::retire_backend(std::unique_ptr<detail::ProcessBackend> backend) {
  fiber::Stack stack = backend->take_stack();
  if (stack.allocated()) spare_stacks_.push_back(std::move(stack));
}

Process::Process(Engine& engine, std::string name, Body body, Owned owned)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      owned_(std::move(owned)) {}

Process::~Process() = default;

void Process::body_main() {
  if (!kill_requested_) {
    try {
      body_(*this);
    } catch (const ProcessKilled&) {
      // Normal kill unwind.
    } catch (...) {
      engine_.note_failure(std::current_exception());
    }
  }
  finish();
}

void Process::finish() {
  body_ = nullptr;  // release any captured state promptly
  state_ = State::finished;
  engine_.on_process_finished();
  if (released_) owned_.reset();  // released before it finished
}

void Process::run_slice() {
  if (state_ == State::finished) return;
  if (backend_ == nullptr) {
    if (kill_requested_) {
      // Killed before the body ever started: no stack or thread is needed,
      // the process goes straight to finished.
      finish();
      return;
    }
    backend_ = engine_.make_backend(*this);
  }
  state_ = State::running;
  ++engine_.body_switches_;
  backend_->resume();
  // Give the stack/thread up now rather than at reap time, so the next
  // process to start reuses the stack and churny workloads stay flat.
  if (state_ == State::finished) engine_.retire_backend(std::move(backend_));
}

void Process::switch_to_engine() { backend_->suspend(); }

void Process::arm_wait(Tick deadline) {
  if (kill_requested_) throw ProcessKilled{};
  const std::uint64_t epoch = ++wait_epoch_;
  timed_out_ = false;
  state_ = State::blocked;
  if (deadline != kForever) schedule_resume(deadline, /*timeout=*/true, epoch);
}

bool Process::arm_sleep(Tick at) {
  if (kill_requested_) throw ProcessKilled{};
  const std::uint64_t epoch = ++wait_epoch_;
  timed_out_ = false;
  // Decided here, before any switch, so both backends take the same path.
  if (engine_.run_ahead(at)) return false;
  state_ = State::blocked;
  schedule_resume(at, /*timeout=*/false, epoch);
  return true;
}

void Process::park(Step step, void* arg) {
  step_ = step;
  step_arg_ = arg;
  switch_to_engine();
  step_ = nullptr;
  if (kill_requested_) throw ProcessKilled{};
}

void Process::schedule_resume(Tick at, bool timeout, std::uint64_t epoch) {
  engine_.schedule_resume(at, *this, epoch << 1 | (timeout ? 1U : 0U));
}

void Process::fire_resume(std::uint64_t word) {
  if (word >> 1 != wait_epoch_) return;  // stale: the wait already ended
  if (state_ != State::blocked && state_ != State::runnable &&
      state_ != State::created) {
    return;
  }
  timed_out_ = (word & 1U) != 0;
  // A killed process is never stepped: the body unwinds from its park.
  if (step_ != nullptr && !kill_requested_ && !step_(step_arg_)) return;
  run_slice();
}

}  // namespace pisces::sim
