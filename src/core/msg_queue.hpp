#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/message.hpp"

namespace pisces::rt {

/// A task's in-queue (the paper's task record keeps "pointers to the task's
/// in-queue" in the shared system tables): messages in arrival order.
///
/// Queues are short and ACCEPT almost always takes the message at the
/// front, so a type lookup scans from the front. No memory is allocated
/// before the first message arrives.
class MessageQueue {
 public:
  using iterator = std::vector<Message>::iterator;
  using const_iterator = std::vector<Message>::const_iterator;

  [[nodiscard]] bool empty() const { return messages_.empty(); }
  [[nodiscard]] std::size_t size() const { return messages_.size(); }
  [[nodiscard]] const_iterator begin() const { return messages_.begin(); }
  [[nodiscard]] const_iterator end() const { return messages_.end(); }
  [[nodiscard]] iterator begin() { return messages_.begin(); }
  [[nodiscard]] iterator end() { return messages_.end(); }
  [[nodiscard]] const Message& front() const { return messages_.front(); }

  void push_back(Message m) { messages_.push_back(std::move(m)); }

  /// Messages of `type` currently queued.
  [[nodiscard]] std::size_t count(const std::string& type) const {
    return static_cast<std::size_t>(std::count_if(
        begin(), end(), [&type](const Message& m) { return m.type == type; }));
  }

  /// Earliest-arrived message of `type`, or end() if none is queued.
  [[nodiscard]] iterator first_of(const std::string& type) {
    return std::find_if(begin(), end(),
                        [&type](const Message& m) { return m.type == type; });
  }

  /// Remove and return the earliest message (queue must be non-empty).
  Message pop_front() { return take(begin()); }

  /// Remove and return the message at `it` (must be valid).
  Message take(iterator it) {
    Message m = std::move(*it);
    messages_.erase(it);
    return m;
  }

  /// Remove the message at `it`; returns the next position (for erase
  /// loops, e.g. DELETE MESSAGES).
  iterator erase(iterator it) { return messages_.erase(it); }

  void clear() { messages_.clear(); }

 private:
  std::vector<Message> messages_;  ///< arrival order
};

}  // namespace pisces::rt
