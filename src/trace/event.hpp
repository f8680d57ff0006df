#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/ids.hpp"
#include "sim/time.hpp"

namespace pisces::trace {

/// The eight traceable event types of Section 12, extended with the fault
/// and recovery events introduced by the fault-injection subsystem.
enum class EventKind : int {
  task_init = 0,
  task_term = 1,
  msg_send = 2,
  msg_accept = 3,
  lock = 4,
  unlock = 5,
  barrier_enter = 6,
  force_split = 7,
  dead_letter = 8,  ///< message dropped: destination dead or storage denied
  fault = 9,        ///< injected fault fired (pe-halt, bus-*, heap, disk)
  child_term = 10,  ///< abnormal termination reported to the parent
  collective = 11,  ///< collective tree built (broadcast, barrier, reduce)
  supervision = 12, ///< supervision policy acted (restart, escalate, migrate)
  retransmit = 13,  ///< reliable channel resent an unacked message copy
  ack = 14,         ///< reliable channel acknowledged received sequences
  dup_drop = 15,    ///< reliable channel suppressed a duplicate copy
};

inline constexpr int kEventKindCount = 16;

[[nodiscard]] constexpr std::string_view kind_name(EventKind k) {
  switch (k) {
    case EventKind::task_init: return "TASK-INIT";
    case EventKind::task_term: return "TASK-TERM";
    case EventKind::msg_send: return "MSG-SEND";
    case EventKind::msg_accept: return "MSG-ACCEPT";
    case EventKind::lock: return "LOCK";
    case EventKind::unlock: return "UNLOCK";
    case EventKind::barrier_enter: return "BARRIER";
    case EventKind::force_split: return "FORCE-SPLIT";
    case EventKind::dead_letter: return "DEAD-LETTER";
    case EventKind::fault: return "FAULT";
    case EventKind::child_term: return "CHILD-TERM";
    case EventKind::collective: return "COLLECTIVE";
    case EventKind::supervision: return "SUPERVISION";
    case EventKind::retransmit: return "RETRANSMIT";
    case EventKind::ack: return "ACK";
    case EventKind::dup_drop: return "DUP-DROP";
  }
  return "?";
}

/// The kind whose kind_name is `name`; nullopt when there is none.
[[nodiscard]] constexpr std::optional<EventKind> kind_from_name(std::string_view name) {
  for (int k = 0; k < kEventKindCount; ++k) {
    if (kind_name(static_cast<EventKind>(k)) == name) return static_cast<EventKind>(k);
  }
  return std::nullopt;
}

/// A taskid written as Record::format writes it, cluster:slot:unique, with
/// every part a number in full; nullopt otherwise.
[[nodiscard]] std::optional<rt::TaskId> parse_taskid(std::string_view text);

/// One trace line: "Type of event. Taskid of relevant task (or tasks).
/// Clock reading (PE number and 'ticks' count). Other relevant information."
struct Record {
  EventKind kind{};
  sim::Tick at = 0;
  int pe = 0;
  rt::TaskId task{};   ///< the task the event happened to
  rt::TaskId other{};  ///< second task when relevant (e.g. message peer)
  std::uint64_t seq = 0;  ///< correlates MSG-SEND with MSG-ACCEPT
  std::string info;

  [[nodiscard]] std::string format() const;
};

}  // namespace pisces::trace
