#include "core/force.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"

namespace pisces::rt {

// ---- SharedBlock ----

SharedBlock::SharedBlock(flex::SharedHeap& heap, std::string name,
                         std::size_t words)
    : heap_(&heap), name_(std::move(name)), data_(words, 0.0) {
  auto off = heap_->allocate(words * 8);
  if (!off.has_value()) {
    throw flex::OutOfMemory("SHARED COMMON area exhausted allocating /" + name_ +
                            "/ (" + std::to_string(words * 8) + " bytes)");
  }
  heap_offset_ = *off;
}

SharedBlock::~SharedBlock() { heap_->release(heap_offset_); }

double SharedBlock::read(mmos::Proc& p, std::size_t idx) {
  p.charge_shared(8);
  return data_.at(idx);
}

void SharedBlock::write(mmos::Proc& p, std::size_t idx, double v) {
  p.charge_shared(8);
  data_.at(idx) = v;
}

void SharedBlock::charge_bulk(mmos::Proc& p, std::size_t words) {
  p.charge_shared(words * 8);
}

// ---- LockVar ----

void LockVar::acquire(mmos::Proc& p, const TaskRecord& rec) {
  p.compute(p.kernel().costs().lock_op);
  p.charge_shared(8);
  if (locked_) {
    ++contended_;
    waiters_.push_back(&p);
    try {
      while (owner_ != &p) p.block();
    } catch (const sim::ProcessKilled&) {
      std::erase(waiters_, &p);  // its record may go once it has finished
      throw;
    }
  } else {
    locked_ = true;
    owner_ = &p;
  }
  rt_->trace_event(trace::EventKind::lock, rec.id, {}, p.pe(), 0, name_);
}

void LockVar::release(mmos::Proc& p, const TaskRecord& rec) {
  if (owner_ != &p) {
    throw std::logic_error("LOCK " + name_ + " released by a non-owner");
  }
  p.compute(p.kernel().costs().lock_op);
  p.charge_shared(8);
  hand_off();
  rt_->trace_event(trace::EventKind::unlock, rec.id, {}, p.pe(), 0, name_);
}

void LockVar::hand_off() {
  while (!waiters_.empty() && waiters_.front()->was_killed()) {
    waiters_.pop_front();
  }
  if (waiters_.empty()) {
    locked_ = false;
    owner_ = nullptr;
  } else {
    owner_ = waiters_.front();
    waiters_.pop_front();
    owner_->wake();
  }
}

// ---- ForceState ----

ForceState::~ForceState() {
  if (engine->shut_down()) return;
  for (std::size_t m = 1; m < procs.size(); ++m) {
    if (procs[m] != nullptr) procs[m]->kernel().release(*procs[m]);
  }
}

ForceState::SelfschedLoop& ForceState::loop(std::size_t occurrence,
                                            std::int64_t lo, std::int64_t hi,
                                            std::int64_t step,
                                            std::int64_t total) {
  while (loops.size() <= occurrence) loops.push_back(nullptr);
  auto& slot = loops[occurrence];
  if (!slot) {
    slot = std::make_unique<SelfschedLoop>();
    slot->lo = lo;
    slot->hi = hi;
    slot->step = step;
    slot->total = total;
  } else if (slot->total != total || slot->lo != lo || slot->hi != hi ||
             slot->step != step) {
    // Comparing totals alone would silently mispair two different source
    // loops that happen to cover the same iteration count when members take
    // divergent control paths; the bounds/step triple pins the call site.
    throw std::logic_error(
        "SELFSCHED loops diverged between force members (occurrence " +
        std::to_string(occurrence) + ")");
  }
  return *slot;
}

// ---- ForceContext ----

std::int64_t ForceContext::iteration_count(std::int64_t lo, std::int64_t hi,
                                           std::int64_t step) {
  if (step == 0) throw std::invalid_argument("DO loop step of zero");
  if (step > 0) return lo > hi ? 0 : (hi - lo) / step + 1;
  return lo < hi ? 0 : (lo - hi) / (-step) + 1;
}

namespace {
double combine(ForceContext::ReduceOp op, double a, double b) {
  switch (op) {
    case ForceContext::ReduceOp::sum: return a + b;
    case ForceContext::ReduceOp::min: return b < a ? b : a;
    case ForceContext::ReduceOp::max: return b > a ? b : a;
  }
  return a;
}

/// One collective-tree signal hop to `peer_pe`: the fixed signal cost, plus
/// a backbone transfer of the 8-byte flag word when the peer lives in
/// another hardware cluster (the locally-polled flag lives in the peer's
/// cluster).
void charge_signal(mmos::Proc& proc, int peer_pe) {
  mmos::Kernel& kernel = proc.kernel();
  proc.compute(kernel.costs().collective_signal);
  if (kernel.machine().interconnect().crosses_backbone(proc.pe(), peer_pe)) {
    proc.charge_transfer(8, proc.pe(), peer_pe);
  }
}
}  // namespace

double ForceContext::collective_sync(
    const std::function<void(ForceContext&)>& body, const double* contribute,
    ReduceOp op) {
  const auto n = static_cast<std::size_t>(st_->members);
  const auto k = static_cast<std::size_t>(st_->fanout < 2 ? 2 : st_->fanout);
  const auto p = static_cast<std::size_t>(member_ - 1);
  proc_->compute(proc_->kernel().costs().barrier_op);
  const std::uint64_t my_gen = st_->barrier_generation;
  if (contribute != nullptr) st_->partial[p] = *contribute;

  // Gather: wait for this node's children, folding their partials in.
  const std::size_t first_child = k * p + 1;
  const std::size_t end_child = std::min(first_child + k, n);
  const int nchildren = first_child < end_child
                            ? static_cast<int>(end_child - first_child) : 0;
  if (nchildren > 0) {
    auto& node = st_->nodes[p];
    node.gathering = true;
    while (node.arrived < nchildren) proc_->block();
    node.gathering = false;
    if (contribute != nullptr) {
      for (std::size_t c = first_child; c < end_child; ++c) {
        st_->partial[p] = combine(op, st_->partial[p], st_->partial[c]);
      }
    }
  }

  if (p == 0) {
    if (contribute != nullptr) st_->reduce_result = st_->partial[0];
    if (body) body(*this);
    if (n > 1) {
      rt_->trace_event(
          trace::EventKind::collective, rec_->id, {}, proc_->pe(), 0,
          std::string(contribute != nullptr ? "reduce" : "barrier") +
              " members=" + std::to_string(n) + " k=" + std::to_string(k) +
              " depth=" + std::to_string(tree_depth(n - 1, k)));
    }
    // Reset arrival counters BEFORE publishing the new generation: a member
    // released below may re-enter the next collective immediately, and its
    // first arrival signal must not be wiped by this episode's reset.
    for (auto& node : st_->nodes) node.arrived = 0;
    proc_->charge_shared(8);  // generation publish: the one global bus write
    ++st_->barrier_generation;
  } else {
    // Signal the parent's locally-polled arrival counter. Wake the parent
    // only when it is actually blocked gathering: an early arrival must not
    // wake a parent blocked elsewhere (e.g. inside the region body).
    const std::size_t parent = (p - 1) / k;
    mmos::Proc* pp = st_->procs[parent];
    charge_signal(*proc_, pp != nullptr ? pp->pe() : proc_->pe());
    ++st_->nodes[parent].arrived;
    if (st_->nodes[parent].gathering) st_->procs[parent]->wake();
    while (st_->barrier_generation == my_gen) proc_->block();
  }

  // Release wave: each node forwards the wake to its own children, so the
  // critical path of an episode is O(depth) signals up plus O(depth) down.
  // A relay whose process died mid-episode (PE halt after its partial was
  // already folded in) can never run its own wave, so adopt its orphans:
  // descend through dead nodes until a live member bounds the walk. The
  // whole-task abort is also killing those orphans, but the adoption keeps
  // the wave wedge-free in the window before the kills unwind — survivors
  // blocked on the generation flip must not depend on a dead relay.
  std::vector<std::size_t> wave;
  for (std::size_t c = first_child; c < end_child; ++c) wave.push_back(c);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const std::size_t c = wave[i];
    mmos::Proc* cp = st_->procs[c];
    if (cp == nullptr || cp->finished() || cp->was_killed()) {
      const std::size_t gfirst = k * c + 1;
      const std::size_t gend = std::min(gfirst + k, n);
      for (std::size_t g = gfirst; g < gend; ++g) wave.push_back(g);
      continue;
    }
    charge_signal(*proc_, cp->pe());
    cp->wake();
  }
  return contribute != nullptr ? st_->reduce_result : 0.0;
}

void ForceContext::barrier(const std::function<void(ForceContext&)>& body) {
  rt_->trace_event(trace::EventKind::barrier_enter, rec_->id, {}, proc_->pe(), 0,
                   "member=" + std::to_string(member_));
  collective_sync(body, nullptr, ReduceOp::sum);
}

double ForceContext::allreduce(ReduceOp op, double value) {
  return collective_sync(nullptr, &value, op);
}

double ForceContext::reduce(ReduceOp op, double value, SharedBlock& out,
                            std::size_t idx) {
  const double r = collective_sync(nullptr, &value, op);
  if (member_ == 1) out.write(*proc_, idx, r);
  return r;
}

void ForceContext::critical(LockVar& lock, const std::function<void()>& body) {
  lock.acquire(*proc_, *rec_);
  try {
    body();
  } catch (...) {
    lock.release(*proc_, *rec_);
    throw;
  }
  lock.release(*proc_, *rec_);
}

void ForceContext::presched(std::int64_t lo, std::int64_t hi, std::int64_t step,
                            const std::function<void(std::int64_t)>& body) {
  const std::int64_t m = iteration_count(lo, hi, step);
  for (std::int64_t k = member_ - 1; k < m; k += st_->members) {
    body(lo + k * step);
  }
}

void ForceContext::selfsched(std::int64_t lo, std::int64_t hi, std::int64_t step,
                             const std::function<void(std::int64_t)>& body) {
  const std::int64_t m = iteration_count(lo, hi, step);
  auto& loop = st_->loop(selfsched_seq_++, lo, hi, step, m);
  while (true) {
    // Fetch-and-increment of the shared "next iteration" counter.
    proc_->compute(proc_->kernel().costs().lock_op);
    proc_->charge_shared(8);
    const std::int64_t k = loop.next++;
    if (k >= m) break;
    body(lo + k * step);
  }
}

void ForceContext::parseg(const std::vector<std::function<void()>>& segments) {
  const auto n = static_cast<std::int64_t>(segments.size());
  for (std::int64_t k = member_ - 1; k < n; k += st_->members) {
    segments[static_cast<std::size_t>(k)]();
  }
}

SharedBlock& ForceContext::shared_common(const std::string& name,
                                         std::size_t words) {
  return rt_->shared_common(*rec_, name, words);
}

LockVar& ForceContext::lock_var(const std::string& name) {
  return rt_->lock_var(*rec_, name);
}

}  // namespace pisces::rt
