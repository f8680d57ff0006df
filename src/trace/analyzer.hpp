#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace pisces::trace {

/// Off-line analysis of a trace ("Sending trace output to a file allows the
/// user to study trace information and make timing analyses off-line",
/// Section 12). Operates on a record vector (from a MemorySink or a parsed
/// trace file).
class Analyzer {
 public:
  explicit Analyzer(std::vector<Record> records);

  struct TaskTiming {
    rt::TaskId task{};
    std::optional<sim::Tick> initiated;
    std::optional<sim::Tick> terminated;
    [[nodiscard]] std::optional<sim::Tick> lifetime() const {
      if (initiated && terminated) return *terminated - *initiated;
      return std::nullopt;
    }
  };

  struct MessageTiming {
    std::uint64_t seq = 0;
    rt::TaskId from{};
    rt::TaskId to{};
    sim::Tick sent = 0;
    sim::Tick accepted = 0;
    [[nodiscard]] sim::Tick latency() const { return accepted - sent; }
  };

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t count(EventKind k) const;

  /// Init/term pairing per task.
  [[nodiscard]] std::vector<TaskTiming> task_timings() const;

  /// Send/accept pairs matched by sequence number.
  [[nodiscard]] std::vector<MessageTiming> message_timings() const;
  [[nodiscard]] double mean_message_latency() const;

  /// Per-task barrier entries (skew diagnostics for forces).
  [[nodiscard]] std::map<rt::TaskId, std::uint64_t> barrier_entries() const;

  /// Sent-message counts by message type (the type travels in `info`).
  [[nodiscard]] std::map<std::string, std::uint64_t> message_type_counts() const;

  /// Abnormally terminated tasks (from CHILD-TERM records): task -> reason.
  /// This is how the chaos harness proves every killed child was reported.
  [[nodiscard]] std::map<rt::TaskId, std::string> abnormal_terminations() const;

  /// Events observed per PE — a cheap activity profile across the machine.
  [[nodiscard]] std::map<int, std::uint64_t> pe_activity() const;

  /// Text report of everything above.
  [[nodiscard]] std::string report() const;

  /// Parse trace lines produced by Record::format (round-trips a FileSink).
  /// Lines that do not start with TRACE are skipped. Every field must parse
  /// in full and `info` takes the rest of its line; a malformed TRACE line
  /// or an unknown kind throws std::runtime_error naming the line number
  /// and the token.
  static std::vector<Record> parse(std::istream& is);

 private:
  std::vector<Record> records_;
};

}  // namespace pisces::trace
