#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace pisces::sim {

class Process;

/// Time-ordered queue of simulation events: one binary heap
/// (std::push_heap/std::pop_heap on a std::vector) ordered by (tick, seq).
/// Every event takes a global sequence number when it is queued, so events
/// at the same tick fire in insertion order (a stable tiebreak is essential
/// for determinism). The heap stays small: since processes run ahead and
/// compute slices step on the engine side, it holds at most 2, 23 and 12
/// events at once over the seed-1 perfbench runs of pingpong, farm_reliable
/// and heat2d.
///
/// Every event is one 32-byte entry: its (tick, seq) key and a payload that
/// is either
///  - a typed process resume (`process` set, `arg` the Process's resume
///    word) — the dominant event, one per process handoff, which allocates
///    nothing; or
///  - a closure (`process` null, `arg` a slot in a side store of Actions) —
///    timers, kernel dispatch, relays. Slots are recycled through a free
///    list, so the store grows only to the most closures ever pending at
///    once, and the heap never moves a std::function.
///
/// A sequence number can be taken ahead of its event: reserve_seq() hands
/// out the number an event pushed now would get, and push_keyed() queues a
/// closure under it later. Such an event fires exactly where it would have
/// fired had it been pushed at reservation time.
class EventQueue {
 public:
  using Action = std::function<void()>;

  struct Event {
    Tick at;
    std::uint64_t seq;
    Process* process;   ///< resume target; null for a closure
    std::uint64_t arg;  ///< the resume word, or the closure's store slot
  };
  static_assert(sizeof(Event) == 32, "one queue entry is four words");

  EventQueue() {
    // Room for a boot's worth of events up front: one allocation per store
    // instead of a run of doublings while the simulation is set up.
    heap_.reserve(kInitialCapacity);
    closures_.reserve(kInitialCapacity);
  }

  /// Schedule a closure.
  void push(Tick at, Action action) { insert(at, nullptr, store(std::move(action))); }
  /// Schedule a typed resume of `p`; `arg` comes back in the popped Event.
  void push_resume(Tick at, Process& p, std::uint64_t arg) { insert(at, &p, arg); }

  /// Take the sequence number an event pushed now would get, queueing
  /// nothing.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// Schedule a closure under a number from reserve_seq(). It must not
  /// precede the last event popped.
  void push_keyed(Tick at, std::uint64_t seq, Action action) {
    heap_insert(Event{at, seq, nullptr, store(std::move(action))});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Tick of the earliest pending event. Queue must be non-empty.
  [[nodiscard]] Tick next_tick() const { return heap_.front().at; }

  /// Remove and return the earliest event. Queue must be non-empty. A
  /// closure's action stays in the store until take_action().
  Event pop_event() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event event = heap_.back();
    heap_.pop_back();
    return event;
  }

  /// Move a popped closure event's action out of the store and recycle its
  /// slot. `event` must be a closure (process == nullptr).
  Action take_action(const Event& event) {
    Slot& slot = closures_[event.arg];
    Action action = std::move(slot.action);
    slot.action = nullptr;
    slot.next_free = free_head_;
    free_head_ = event.arg;
    return action;
  }

  /// Remove the earliest event and return its action. Only for queues that
  /// hold closures alone.
  Action pop(Tick* at = nullptr) {
    const Event event = pop_event();
    if (at != nullptr) *at = event.at;
    return take_action(event);
  }

  /// Slots in the closure store, free or in use: the most closures that
  /// were ever pending at once.
  [[nodiscard]] std::size_t closure_slots() const { return closures_.size(); }

 private:
  static constexpr std::uint64_t kNoSlot = std::numeric_limits<std::uint64_t>::max();
  static constexpr std::size_t kInitialCapacity = 16;

  struct Slot {
    Action action;
    std::uint64_t next_free = kNoSlot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::uint64_t store(Action action) {
    if (free_head_ == kNoSlot) {
      closures_.push_back(Slot{std::move(action)});
      return closures_.size() - 1;
    }
    const std::uint64_t slot = free_head_;
    free_head_ = closures_[slot].next_free;
    closures_[slot].action = std::move(action);
    return slot;
  }

  void insert(Tick at, Process* process, std::uint64_t arg) {
    heap_insert(Event{at, next_seq_++, process, arg});
  }

  void heap_insert(const Event& event) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Event> heap_;
  std::vector<Slot> closures_;
  std::uint64_t free_head_ = kNoSlot;  ///< first free closure slot
  std::uint64_t next_seq_ = 0;
};

}  // namespace pisces::sim
