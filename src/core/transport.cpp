#include "core/transport.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>

#include "core/runtime.hpp"

namespace pisces::rt {

namespace {
/// Supervision control traffic (_CHILDTERM, _SUPFAIL) and the transport's
/// own _SENDFAIL ride a reliable out-of-band channel: never sequenced, and
/// untouched by bus faults and partitions.
bool reliable_exempt(const std::string& type) {
  return type == "_CHILDTERM" || type == "_SUPFAIL" || type == "_SENDFAIL";
}
}  // namespace

void Transport::declare_message(std::string type, int arity) {
  if (arity < 0) throw std::invalid_argument("negative message arity");
  message_arity_[std::move(type)] = arity;
}

void Transport::dead_letter(TaskId task, TaskId other, int pe,
                            std::uint64_t seq, std::string info) {
  ++rt_->stats_.dead_letters;
  rt_->trace_event(trace::EventKind::dead_letter, task, other, pe, seq,
                   std::move(info));
}

void Transport::release_accepted(mmos::Proc& proc, const Message& msg) {
  proc.compute(rt_->costs().msg_accept_overhead + rt_->costs().heap_free);
  heap_release(msg.heap_offset);
}

// ---- message storage ----

std::size_t Transport::heap_allocate_blocking(std::size_t bytes,
                                              mmos::Proc* proc,
                                              sim::Tick deadline) {
  flex::SharedHeap& heap = *rt_->msg_heap_;
  sim::Engine& eng = rt_->engine();
  bool retried = false;
  int outage_denials = 0;
  // On every way out, a kill's unwind included, leave the waiter FIFO: a
  // later heap_release must neither wake a sender that already moved on
  // nor meet one whose record is gone.
  struct LeaveOnExit {
    Transport* transport;
    mmos::Proc* proc;
    const bool& queued;
    ~LeaveOnExit() {
      if (queued) transport->leave_heap_queue(proc);
    }
  } leave_on_exit{this, proc, retried};
  while (true) {
    if (deadline > 0 && eng.now() >= deadline) return kDeadline;
    if (heap.outage()) {
      // Injected allocation-failure window: bounded retry with exponential
      // backoff, then a typed failure (the caller drops the message and
      // reports a failed send rather than blocking forever).
      if (rt_->faults_ != nullptr) ++rt_->faults_->stats().heap_denials;
      if (proc == nullptr || ++outage_denials >= kHeapOutageAttempts) {
        return kNoSpace;
      }
      sim::Tick until = eng.now() + kHeapOutageBackoff.delay(outage_denials);
      if (deadline > 0) until = std::min(until, deadline);
      (void)proc->block_with_timeout(until);
      continue;
    }
    auto off = heap.allocate(bytes);
    if (off.has_value()) return *off;
    if (proc == nullptr) return kNoSpace;
    ++rt_->stats_.heap_full_waits;
    const std::size_t need =
        flex::SharedHeap::round_up(std::max<std::size_t>(bytes, 1));
    // First wait joins the back of the FIFO; a sender whose retry lost to
    // fragmentation goes back to the front so it keeps its turn. Something
    // other than a release (a message arriving for its task) may have woken
    // it, so it may still hold its old entry.
    leave_heap_queue(proc);
    heap_waiters_.insert(retried ? heap_waiters_.begin() : heap_waiters_.end(),
                         HeapWaiter{proc, need});
    retried = true;
    if (proc->block_with_timeout(deadline > 0 ? deadline : sim::kForever)) {
      return kDeadline;
    }
  }
}

void Transport::leave_heap_queue(mmos::Proc* proc) {
  auto it = std::find_if(
      heap_waiters_.begin(), heap_waiters_.end(),
      [proc](const HeapWaiter& w) { return w.proc == proc; });
  if (it != heap_waiters_.end()) heap_waiters_.erase(it);
}

void Transport::heap_release(std::size_t offset) {
  flex::SharedHeap& heap = *rt_->msg_heap_;
  heap.release(offset);
  if (heap_waiters_.empty()) return;
  // Wake blocked senders first-fit in FIFO order: the oldest waiter whose
  // block fits is woken, then the next, while recovered space (bounded by
  // the total free bytes) plausibly remains. Everyone left keeps waiting for
  // the next release instead of stampeding awake only to re-block.
  const std::size_t largest = heap.largest_free_block();
  std::size_t budget = heap.capacity() - heap.in_use();
  for (auto it = heap_waiters_.begin(); it != heap_waiters_.end();) {
    if (it->need <= largest && it->need <= budget) {
      budget -= it->need;
      it->proc->wake();
      it = heap_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---- post and deliver ----

bool Transport::post(TaskId from, mmos::Proc* sender_proc, TaskId to,
                     std::string type, std::vector<Value> args,
                     bool to_reply_queue, int via_pe) {
  if (auto it = message_arity_.find(type); it != message_arity_.end() &&
                                           static_cast<int>(args.size()) != it->second) {
    throw std::logic_error("message '" + type + "' declared with " +
                           std::to_string(it->second) + " argument(s), sent with " +
                           std::to_string(args.size()));
  }
  if (rt_->find_record(to) == nullptr) {
    dead_letter(to, from, 0, 0, std::move(type));
    return false;
  }
  Message msg{.type = std::move(type), .sender = from, .args = std::move(args)};
  const std::size_t bytes = msg.encoded_size();
  // Sequencing is decided here, once per message. An optional send deadline
  // bounds the worst-case wait on a full heap: bounded blocking is part of
  // the reliable contract (_SENDFAIL instead of an indefinite stall).
  const config::ReliableConfig& rel = rt_->cfg_.reliable;
  const bool sequenced = rel.enabled && !reliable_exempt(msg.type);
  const sim::Tick send_deadline =
      sequenced && rel.send_deadline > 0 ? rt_->engine().now() + rel.send_deadline
                                         : 0;
  const std::size_t off = heap_allocate_blocking(bytes, sender_proc, send_deadline);
  if (off == kDeadline) {
    send_fail(from, to, msg.type, 0, "deadline");
    return false;
  }
  if (off == kNoSpace) {
    dead_letter(to, from, 0, 0, msg.type + " (no message storage)");
    return false;
  }
  msg.heap_offset = off;
  msg.heap_bytes = bytes;
  Route r{.to = to, .to_reply_queue = to_reply_queue};
  if (sender_proc != nullptr) {
    r.sender_pe = sender_proc->pe();
  } else if (TaskRecord* sender = rt_->find_record(from)) {
    r.sender_pe = sender->pe;  // proc-less sends (environment) still have a home PE
  }
  // The transfer is billed from the PE that physically re-issues it — the
  // relay's PE for broadcast tree hops — while the trace keeps the logical
  // sender. The receiver may have died while the sender blocked on the
  // heap, so re-resolve; the copy still travels to where the task lived.
  r.bill_from = via_pe >= 0 ? via_pe : r.sender_pe;
  r.dest_pe = r.bill_from;
  if (TaskRecord* dest = rt_->find_record(to)) r.dest_pe = dest->pe;
  return launch(std::move(msg), r, sender_proc, 0, sequenced);
}

bool Transport::launch(Message msg, const Route& r, mmos::Proc* sender_proc,
                       int attempt, bool sequenced) {
  sim::Engine& eng = rt_->engine();
  RuntimeStats& stats = rt_->stats_;
  const std::size_t bytes = msg.heap_bytes;
  // A sending task pays for the copy on its own CPU, and may be descheduled
  // doing so, before the copy is stamped with its send tick and sequence.
  if (sender_proc != nullptr) {
    sender_proc->compute(rt_->costs().heap_alloc);
    sender_proc->charge_transfer(bytes, r.bill_from, r.dest_pe);
  } else {
    rt_->machine().message_transfer(eng.now(), bytes, r.bill_from, r.dest_pe);
  }
  msg.sent_at = msg.arrived_at = eng.now();
  msg.seq = ++next_msg_seq_;
  stats.message_bytes_sent += bytes;
  if (attempt == 0) {
    ++stats.messages_sent;
    rt_->trace_event(trace::EventKind::msg_send, msg.sender, r.to, r.sender_pe,
                     msg.seq, msg.type);
    // Reliable transport: stamp the copy with its channel sequence and hold
    // it in the retransmit buffer before it faces the bus, so a first copy
    // lost to the fault gauntlet below is already covered by a timer.
    if (sequenced) register_reliable(msg, r);
  } else {
    ++stats.retransmits;
    ++stats.reliable_copies_sent;
    rt_->trace_event(trace::EventKind::retransmit, msg.sender, r.to,
                     r.bill_from, msg.seq,
                     msg.type + " #" + std::to_string(attempt));
  }
  if (auto consumed = apply_bus_faults(msg, r); consumed.has_value()) {
    return *consumed;
  }
  return deliver(std::move(msg), r.to, r.to_reply_queue);
}

std::optional<bool> Transport::apply_bus_faults(Message& msg, const Route& r) {
  // Fault injection. The out-of-band types (reliable_exempt) are never
  // touched: the recovery guarantee is that a parent always learns its
  // child died, and the supervisor's escalation always reaches a live
  // ancestor.
  flex::FaultInjector* faults = rt_->faults_.get();
  if (faults == nullptr || reliable_exempt(msg.type)) return std::nullopt;
  RuntimeStats& stats = rt_->stats_;
  const TaskId from = msg.sender;
  const sim::Tick now = rt_->engine().now();
  auto& ic = rt_->machine().interconnect();
  auto trace_fault = [&](const char* what) {
    rt_->trace_event(trace::EventKind::fault, from, r.to, r.sender_pe, msg.seq,
                     what + msg.type);
  };
  // A dropped copy was transferred (and charged) but vanishes: asynchronous
  // sends don't learn about the loss, and the send succeeds. (Under the
  // reliable layer the retransmit timer covers the copy.)
  auto drop = [&](const char* what) {
    if (msg.chan_seq != 0) ++stats.reliable_copies_lost;
    trace_fault(what);
    ic.note_faulted(r.bill_from, r.dest_pe);
    heap_release(msg.heap_offset);
    return true;
  };
  // A partition window refuses the transfer outright (checked before the
  // per-transfer fault draw: a partitioned bus never arbitrates the
  // message at all). The transfer was already charged — the copy is
  // dropped at the cluster boundary. Under the shared topology the window
  // severs traffic between the two *configured* clusters; under hier/numa
  // it severs the backbone link between their hardware clusters, so only
  // routes that actually cross that link are affected.
  const bool partition_hit =
      ic.kind() == flex::Topology::shared
          ? (from.cluster != r.to.cluster &&
             faults->partitioned(from.cluster, r.to.cluster, now))
          : (ic.crosses_backbone(r.bill_from, r.dest_pe) &&
             faults->backbone_partitioned(ic.cluster_of(r.bill_from),
                                          ic.cluster_of(r.dest_pe), now));
  if (partition_hit) {
    ++faults->stats().bus_partition_drops;
    return drop("bus-partition ");
  }
  switch (faults->next_bus_fault()) {
    case flex::BusFault::lose:
      return drop("bus-lose ");
    case flex::BusFault::duplicate:
      if (auto doff = rt_->msg_heap_->allocate(msg.heap_bytes); doff.has_value()) {
        trace_fault("bus-dup ");
        ic.note_faulted(r.bill_from, r.dest_pe);
        rt_->machine().message_transfer(now, msg.heap_bytes, r.bill_from, r.dest_pe);
        Message dup = msg;  // same chan_seq: the receiver suppresses one copy
        dup.heap_offset = *doff;
        dup.seq = ++next_msg_seq_;
        if (dup.chan_seq != 0) ++stats.reliable_copies_sent;
        const bool ok = deliver(std::move(msg), r.to, r.to_reply_queue);
        (void)deliver(std::move(dup), r.to, r.to_reply_queue);
        return ok;
      }
      break;  // no storage for the ghost copy: deliver just the original
    case flex::BusFault::delay: {
      const sim::Tick delay = rt_->cfg_.faults.bus_delay_ticks;
      trace_fault("bus-delay ");
      ic.stall(now, r.bill_from, r.dest_pe, delay);
      rt_->engine().schedule(
          now + delay, [this, m = std::move(msg), to = r.to,
                        to_reply_queue = r.to_reply_queue]() mutable {
            (void)deliver(std::move(m), to, to_reply_queue);
          });
      return true;
    }
    case flex::BusFault::none:
      break;
  }
  return std::nullopt;
}

bool Transport::deliver(Message msg, TaskId to, bool to_reply_queue) {
  RuntimeStats& stats = rt_->stats_;
  // Sequenced copies pass the channel's receive filter first: any arrival
  // triggers an (eventual) cumulative ack, and a sequence that already
  // settled — delivered or dead-lettered once — is suppressed as a
  // duplicate, whether it came from a bus duplication or a retransmission
  // racing the ack.
  if (msg.chan_seq != 0) {
    const ChannelKey key{msg.chan_from, msg.chan_to};
    auto& ch = reliable_channels_[key];
    ++stats.reliable_copies_arrived;
    if (!ch.ack_pending) {
      ch.ack_pending = true;
      static_assert(std::is_trivially_copyable_v<ChannelKey>);
      rt_->engine().schedule(
          rt_->engine().now() + rt_->cfg_.reliable.ack_flush_ticks,
          [this, key] { flush_acks(key); });
    }
    if (ch.settled(msg.chan_seq)) {
      ++stats.dup_drops;
      rt_->trace_event(trace::EventKind::dup_drop, to, msg.sender, msg.chan_to,
                       msg.seq, msg.type);
      heap_release(msg.heap_offset);
      return true;
    }
    ch.settle(msg.chan_seq);
  }
  // Re-check liveness at delivery time: the receiver may have terminated
  // while the sender waited for heap space or the bus, or while an injected
  // delay held the message in flight.
  TaskRecord* rec = rt_->find_record(to);
  if (rec == nullptr) {
    if (msg.chan_seq != 0) ++stats.reliable_dead_letters;
    dead_letter(to, msg.sender, 0, msg.seq, msg.type);
    heap_release(msg.heap_offset);
    return false;
  }
  if (msg.chan_seq != 0) ++stats.reliable_delivered;
  msg.arrived_at = rt_->engine().now();
  if (to_reply_queue) {
    rec->replies.push_back(std::move(msg));
  } else {
    rec->in_queue.push_back(std::move(msg));
  }
  if (rec->proc != nullptr) rec->proc->wake();
  return true;
}

void Transport::send_fail(TaskId sender, TaskId dest, const std::string& type,
                          int attempts, const char* reason) {
  ++rt_->stats_.send_failures;
  (void)post(dest, nullptr, sender, "_SENDFAIL",
             {Value(type), Value(dest), Value(static_cast<std::int64_t>(attempts)),
              Value(std::string(reason))});
  if (rt_->send_fail_hook_) rt_->send_fail_hook_({sender, dest, type, attempts, reason});
}

// ---- reliable transport ----

void Transport::ReliableChannel::settle(std::uint64_t seq) {
  if (seq == settled_to + 1) {
    settled_to = seq;
    // Absorb any out-of-order settles that now extend the watermark.
    auto it = settled_above.begin();
    while (it != settled_above.end() && *it == settled_to + 1) {
      settled_to = *it;
      it = settled_above.erase(it);
    }
  } else {
    settled_above.insert(seq);
  }
}

sim::EventSlot Transport::retransmit_slot(int attempts) {
  const sim::Tick delay = rt_->cfg_.reliable.backoff.delay(attempts);
  return rt_->engine().reserve_order(rt_->engine().now() + delay);
}

void Transport::arm(ReliableChannel& ch, ChannelKey key, sim::EventSlot slot) {
  // Compare with the queued timers only: the earliest of them is never
  // later than any buffered message's place.
  if (!ch.timers.empty() &&
      *std::min_element(ch.timers.begin(), ch.timers.end()) <= slot) {
    return;
  }
  ch.timers.push_back(slot);
  // The closure names the channel only: with its slot it would outgrow
  // std::function's 16-byte inline buffer and cost an allocation per arm.
  auto fire = [this, key] { retransmit_fire(key); };
  static_assert(sizeof(fire) <= 16 &&
                std::is_trivially_copyable_v<decltype(fire)>);
  rt_->engine().schedule_reserved(slot, fire);
}

void Transport::register_reliable(Message& msg, const Route& r) {
  const ChannelKey key{r.bill_from, r.dest_pe};
  auto& ch = reliable_channels_[key];
  msg.chan_seq = ++ch.next_seq;
  msg.chan_from = r.bill_from;
  msg.chan_to = r.dest_pe;
  ++rt_->stats_.reliable_sends;
  ++rt_->stats_.reliable_copies_sent;
  const sim::Tick send_deadline = rt_->cfg_.reliable.send_deadline;
  // Retransmissions rebuild the copy from this prototype.
  ch.unacked.push_back(ReliableChannel::Pending{
      .due = retransmit_slot(1),
      .seq = msg.chan_seq,
      .from = msg.sender,
      .to = r.to,
      .type = msg.type,
      .args = msg.args,
      .to_reply_queue = r.to_reply_queue,
      .deadline = send_deadline > 0 ? rt_->engine().now() + send_deadline : 0});
  arm(ch, key, ch.unacked.back().due);
}

void Transport::retransmit_fire(ChannelKey key) {
  auto& ch = reliable_channels_[key];
  // The channel's timers are exactly its queued closures, and the engine
  // fires them in slot order: the one firing is the earliest.
  const auto firing = std::min_element(ch.timers.begin(), ch.timers.end());
  assert(firing != ch.timers.end());
  const sim::EventSlot slot = *firing;
  ch.timers.erase(firing);
  // At most one buffered message is due in this place; it may have been
  // acked meanwhile, and then there is nothing to resend.
  const auto it = std::find_if(ch.unacked.begin(), ch.unacked.end(),
                               [slot](const auto& p) { return p.due == slot; });
  if (it != ch.unacked.end()) {
    const char* give_up = nullptr;
    if (it->deadline > 0 && rt_->engine().now() >= it->deadline) {
      give_up = "deadline";
    } else if (it->attempts >= rt_->cfg_.reliable.max_retries) {
      give_up = "retries";
    }
    if (give_up != nullptr) {
      const ReliableChannel::Pending failed = std::move(*it);
      ch.unacked.erase(it);
      send_fail(failed.from, failed.to, failed.type, failed.attempts, give_up);
    } else {
      const std::size_t index = static_cast<std::size_t>(it - ch.unacked.begin());
      const int attempt = ++it->attempts;
      Message m{.type = it->type, .sender = it->from, .args = it->args,
                .chan_seq = it->seq, .chan_from = key.from, .chan_to = key.to};
      const Route r{it->to, it->to_reply_queue, key.from, key.from, key.to};
      // Timers run proc-less, so allocation cannot block; a full heap costs
      // the attempt (the budget still bounds total work under a persistent
      // outage) and the next check tries again.
      const std::size_t bytes = m.encoded_size();
      if (auto off = rt_->msg_heap_->allocate(bytes); off.has_value()) {
        m.heap_offset = *off;
        m.heap_bytes = bytes;
        (void)launch(std::move(m), r, nullptr, attempt, true);
      }
      // Acks flush as later events, so the message is still buffered, at
      // the same index: reserve its next check after this copy's events.
      ch.unacked[index].due = retransmit_slot(attempt + 1);
    }
  }
  if (!ch.unacked.empty()) {
    arm(ch, key,
        std::min_element(ch.unacked.begin(), ch.unacked.end(),
                         [](const auto& a, const auto& b) { return a.due < b.due; })
            ->due);
  }
}

void Transport::flush_acks(ChannelKey key) {
  auto& ch = reliable_channels_[key];
  ch.ack_pending = false;
  // One cumulative ack summarises every settled sequence, billed as an
  // 8-byte control word on the reverse path. Acks are fault-exempt (like
  // _CHILDTERM): losing one would only cause benign retransmissions, and
  // the exemption keeps the per-transfer fault-draw count a pure function
  // of application traffic on both engine backends.
  rt_->machine().message_transfer(rt_->engine().now(), 8, key.to, key.from);
  ++rt_->stats_.acks_sent;
  rt_->trace_event(trace::EventKind::ack, {}, {}, key.to, ch.settled_to,
                   "chan " + std::to_string(key.from) + "->" +
                       std::to_string(key.to));
  // Acked messages leave the buffer; a timer queued for one of them fires
  // with nothing to resend and re-arms for the rest.
  std::erase_if(ch.unacked,
                [&ch](const auto& p) { return ch.settled(p.seq); });
}

// ---- TO ALL relay tree ----

int tree_depth(std::uint64_t targets, std::uint64_t k) {
  int depth = 0;
  for (std::uint64_t covered = 0, width = k; covered < targets; width *= k) {
    covered += width;
    ++depth;
  }
  return depth;
}

int Transport::broadcast(TaskId origin, mmos::Proc& proc, std::string type,
                         std::vector<Value> args, std::vector<TaskId> targets) {
  // Distribute over a k-ary tree: the sender posts only to positions
  // 1..min(k, n); each of those re-forwards to its own children as engine
  // events from the PE the copy reached, so the root pays O(k) sends and
  // completion takes O(log_k n) relay hops instead of n serialized sends.
  const auto n = static_cast<int>(targets.size());
  const int k = rt_->cfg_.collective_fanout;  // >= 2, checked at boot
  const int depth = tree_depth(targets.size(), static_cast<std::uint64_t>(k));
  proc.compute(rt_->costs().msg_send_overhead);
  rt_->trace_event(trace::EventKind::collective, origin, {}, proc.pe(), 0,
                   "bcast targets=" + std::to_string(n) + " k=" +
                       std::to_string(k) + " depth=" + std::to_string(depth));

  auto plan = std::make_shared<BroadcastPlan>(BroadcastPlan{
      origin, std::move(type), std::move(args), std::move(targets), k});
  const auto root_children = std::min<std::size_t>(
      static_cast<std::size_t>(k), plan->targets.size());
  for (std::size_t pos = 1; pos <= root_children; ++pos) {
    dispatch_broadcast_copy(plan, pos, &proc);
  }
  return n;
}

void Transport::dispatch_broadcast_copy(
    const std::shared_ptr<BroadcastPlan>& plan, std::size_t pos,
    mmos::Proc* sender_proc, int via_pe) {
  if (post(plan->origin, sender_proc, plan->targets[pos - 1], plan->type,
           plan->args, /*to_reply_queue=*/false, via_pe)) {
    ++rt_->stats_.broadcast_copies;
  }
  // Forward regardless of this copy's own fate (dead letter, lost on the
  // bus): the subtree below `pos` was committed at snapshot time and each
  // target must get exactly one dispatch.
  const std::size_t n = plan->targets.size();
  const std::size_t k = static_cast<std::size_t>(plan->fanout);
  const sim::Tick now = rt_->engine().now();
  // Relayed copies are re-issued from the PE the copy for `pos` landed on,
  // so the hop is billed from the relay's cluster (the origin stays the
  // traced sender).
  int relay_pe = -1;
  if (TaskRecord* relay = rt_->find_record(plan->targets[pos - 1])) {
    relay_pe = relay->pe;
  }
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t child = k * pos + 1 + j;
    if (child > n) break;
    // The relay PE re-issues its children's copies one after another, each
    // costing one forward overhead; sibling relays elsewhere run in parallel
    // and only their bus transfers serialize (inside post's billing).
    const sim::Tick at =
        now + static_cast<sim::Tick>(j + 1) * rt_->costs().msg_forward_overhead;
    rt_->engine().schedule(at, [this, plan, child, relay_pe] {
      dispatch_broadcast_copy(plan, child, nullptr, relay_pe);
    });
  }
}

}  // namespace pisces::rt
