#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "sim/backoff.hpp"
#include "sim/engine.hpp"

namespace pisces::mmos {
class Proc;
}

namespace pisces::rt {

class Runtime;

/// Levels below the root of a k-ary relay tree that reaches `targets`
/// nodes, each level filled before the next: the least d with
/// k + k^2 + ... + k^d >= targets (0 for none). A force's collective tree
/// over n members is rooted at one of them: tree_depth(n - 1, k).
[[nodiscard]] int tree_depth(std::uint64_t targets, std::uint64_t k);

/// The message transport: everything between "a task sends" and "a message
/// sits in an in-queue" — storage in the shared message heap (senders wait
/// FIFO while it is full), bus billing, injected bus faults, the reliable
/// channels when `reliable on`, and the TO ALL relay tree. Task records are
/// read through Runtime::find_record and traced through its tracer; the
/// Runtime keeps controllers, task lifecycle and fault recovery.
class Transport {
 public:
  explicit Transport(Runtime& rt) : rt_(&rt) {}
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// See Runtime::declare_message.
  void declare_message(std::string type, int arity);

  /// Send a message (sender side already charged for the SEND statement).
  /// Returns false, with a dead letter recorded, if `to` is stale or no
  /// storage can be had. `sender_proc` may be null for environment-
  /// originated messages. `via_pe` overrides the PE the transfer is billed
  /// from (relay hops re-issue copies from the relay's PE); the traced
  /// sender PE is unaffected.
  bool post(TaskId from, mmos::Proc* sender_proc, TaskId to, std::string type,
            std::vector<Value> args, bool to_reply_queue = false,
            int via_pe = -1);
  /// TO ALL: distribute one message to the `targets` snapshot over a k-ary
  /// relay tree whose root, `origin`, posts the first level from `proc`.
  /// Returns the number of targets.
  int broadcast(TaskId origin, mmos::Proc& proc, std::string type,
                std::vector<Value> args, std::vector<TaskId> targets);
  /// Take an accepted message out of storage: charge `proc` the accept
  /// bookkeeping and the heap free, then release the block.
  void release_accepted(mmos::Proc& proc, const Message& msg);
  /// Release a heap block and wake blocked senders that now fit.
  void heap_release(std::size_t offset);
  /// Record a message that reached no task: the dead-letter counter and
  /// its trace record, always together.
  void dead_letter(TaskId task, TaskId other, int pe, std::uint64_t seq,
                   std::string info);

  /// Heap allocation during an injected outage: the n-th denial waits
  /// 25k · 2^(n-1) ticks (the cap is never reached), the 8th gives up.
  static constexpr int kHeapOutageAttempts = 8;
  static constexpr sim::Backoff kHeapOutageBackoff{25'000, 2.0, sim::kForever};

 private:
  /// Where a copy goes: the receiver and queue, the PE traced as the
  /// sender's, and the PEs the bus transfer is billed between.
  struct Route {
    TaskId to{};
    bool to_reply_queue = false;
    int sender_pe = 0;
    int bill_from = 0;
    int dest_pe = 0;
  };

  /// Allocate heap bytes, blocking `proc` until they fit: kNoSpace when
  /// there is no proc to block, kDeadline past a non-zero `deadline`.
  std::size_t heap_allocate_blocking(std::size_t bytes, mmos::Proc* proc,
                                     sim::Tick deadline);
  static constexpr std::size_t kNoSpace = static_cast<std::size_t>(-1);
  static constexpr std::size_t kDeadline = static_cast<std::size_t>(-2);
  /// Drop `proc`'s entry from the heap-waiter FIFO, if it has one.
  void leave_heap_queue(mmos::Proc* proc);

  /// Launch one physical copy, its heap block allocated: bill the bus (on
  /// `sender_proc`'s CPU when a task sends), stamp it, run the fault
  /// gauntlet and deliver. `attempt` 0 is a first send, entering its channel
  /// when `sequenced`; n > 0 re-sends a channel-stamped copy the n-th time.
  bool launch(Message msg, const Route& r, mmos::Proc* sender_proc,
              int attempt, bool sequenced);
  /// The bus fault gauntlet: the send's result when a fault consumed the
  /// copy, nullopt when it should be delivered normally.
  std::optional<bool> apply_bus_faults(Message& msg, const Route& r);
  /// Settle a sequenced copy (dropping duplicates), then enqueue it and
  /// wake the receiver, or dead-letter it if the receiver died.
  bool deliver(Message msg, TaskId to, bool to_reply_queue);
  /// Give up on a message: count it, post _SENDFAIL to the sender out of
  /// band, and call the session layer's hook.
  void send_fail(TaskId sender, TaskId dest, const std::string& type,
                 int attempts, const char* reason);

  /// One direction of reliable traffic between two PEs, sender and
  /// receiver state together (the simulator hosts both ends).
  ///
  /// Every buffered message owns a place in the engine's event order, `due`,
  /// reserved when its retransmit timer would have been scheduled. The
  /// channel queues a timer only for the earliest of them, so a message
  /// acked before its place comes up costs the engine no event. The queued
  /// timer fires in that place, handles the message due there, and re-arms
  /// at the next earliest: each retransmit happens in exactly the place a
  /// timer per message would have given it. (A place never filled still
  /// counts as an event at its tick wherever a run stops; see
  /// sim::Engine::reserve_order.)
  struct ReliableChannel {
    /// A message held until acked; retransmits rebuild copies from it.
    struct Pending {
      sim::EventSlot due;       ///< where its next retransmit check fires
      std::uint64_t seq = 0;    ///< channel sequence
      TaskId from{};
      TaskId to{};
      std::string type;
      std::vector<Value> args;  ///< shares its arrays with the sent copy
      bool to_reply_queue = false;
      int attempts = 0;         ///< retransmissions performed so far
      sim::Tick deadline = 0;   ///< absolute give-up tick; 0 = none
    };
    std::uint64_t next_seq = 0;     ///< sender: last sequence issued
    std::vector<Pending> unacked;   ///< sender: retransmit buffer, by seq
    /// Sender: places of the queued timers, earliest never later than any
    /// `due`. One, except when a send's place precedes a backed-off
    /// retransmit's queued timer; both then stay queued.
    std::vector<sim::EventSlot> timers;
    std::uint64_t settled_to = 0;           ///< receiver: contiguous watermark
    std::set<std::uint64_t> settled_above;  ///< receiver: out-of-order settles
    bool ack_pending = false;               ///< receiver: flush scheduled

    [[nodiscard]] bool settled(std::uint64_t seq) const {
      return seq <= settled_to || settled_above.count(seq) != 0;
    }
    void settle(std::uint64_t seq);
  };
  /// A channel's (sender PE, receiver PE). Trivially copyable, unlike
  /// std::pair, so an event closure capturing it with `this` fits
  /// std::function's inline buffer.
  struct ChannelKey {
    int from = 0;
    int to = 0;
    friend auto operator<=>(const ChannelKey&, const ChannelKey&) = default;
  };

  /// Stamp `msg` with its channel sequence, buffer it, and reserve the place
  /// of its first retransmit check.
  void register_reliable(Message& msg, const Route& r);
  /// Reserve the place of the retransmit check after `attempts` copies.
  [[nodiscard]] sim::EventSlot retransmit_slot(int attempts);
  /// Make sure a timer is queued no later than `slot` on the channel.
  void arm(ReliableChannel& ch, ChannelKey key, sim::EventSlot slot);
  /// The channel's earliest queued timer fires: retransmit or give up on
  /// the message due in its place, if it is still buffered, then re-arm at
  /// the earliest `due` left.
  void retransmit_fire(ChannelKey key);
  void flush_acks(ChannelKey key);

  /// An in-flight TO ALL tree: positions 1..targets.size() of a k-ary tree
  /// rooted at the sender (position 0); each interior position re-forwards
  /// from the PE its own copy reached, so sibling subtrees overlap.
  struct BroadcastPlan {
    TaskId origin{};
    std::string type;
    std::vector<Value> args;
    std::vector<TaskId> targets;  ///< position p >= 1 delivers to targets[p-1]
    int fanout = 4;
  };
  /// Post the copy for tree position `pos`, then schedule its children.
  /// Only the root's children have a `sender_proc` (and may block on it).
  void dispatch_broadcast_copy(const std::shared_ptr<BroadcastPlan>& plan,
                               std::size_t pos, mmos::Proc* sender_proc,
                               int via_pe = -1);

  /// A sender blocked on a full heap, with the block size it needs.
  struct HeapWaiter {
    mmos::Proc* proc = nullptr;
    std::size_t need = 0;
  };

  Runtime* rt_;
  std::map<std::string, int> message_arity_;
  std::uint64_t next_msg_seq_ = 0;
  /// Senders blocked in heap_allocate_blocking, at most one entry each and
  /// only while they are in there. heap_release wakes them first-fit in
  /// arrival order instead of all at once.
  std::deque<HeapWaiter> heap_waiters_;
  std::map<ChannelKey, ReliableChannel> reliable_channels_;
};

}  // namespace pisces::rt
