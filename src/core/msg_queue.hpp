#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <list>
#include <map>
#include <string>

#include "core/message.hpp"

namespace pisces::rt {

/// A task's in-queue with a per-type index (the paper's task record keeps
/// "pointers to the task's in-queue" in the shared system tables; this is
/// the same idea extended with one arrival-ordered bucket per message type).
///
/// Messages live in an arrival-ordered std::list so iterators stay valid
/// across unrelated erases; the index maps each message type to the
/// arrival-ordered list positions of its messages. ACCEPT can therefore
/// find the next message of a wanted type in O(log types) instead of
/// rescanning the whole queue on every wake.
class MessageQueue {
 public:
  using List = std::list<Message>;
  using iterator = List::iterator;
  using const_iterator = List::const_iterator;

  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] const_iterator begin() const { return list_.begin(); }
  [[nodiscard]] const_iterator end() const { return list_.end(); }
  [[nodiscard]] iterator begin() { return list_.begin(); }
  [[nodiscard]] iterator end() { return list_.end(); }
  [[nodiscard]] const Message& front() const { return list_.front(); }

  void push_back(Message m) {
    list_.push_back(std::move(m));
    by_type_[list_.back().type].push_back(std::prev(list_.end()));
  }

  /// Messages of `type` currently queued.
  [[nodiscard]] std::size_t count(const std::string& type) const {
    auto it = by_type_.find(type);
    return it == by_type_.end() ? 0 : it->second.size();
  }

  /// Earliest-arrived message of `type`, or end() if none is queued.
  [[nodiscard]] iterator first_of(const std::string& type) {
    auto it = by_type_.find(type);
    return it == by_type_.end() || it->second.empty() ? list_.end()
                                                      : it->second.front();
  }

  /// Remove and return the earliest message (queue must be non-empty).
  Message pop_front() { return take(list_.begin()); }

  /// Remove and return the message at `it` (must be valid).
  Message take(iterator it) {
    Message m = std::move(*it);
    unlink(it, m.type);
    list_.erase(it);
    return m;
  }

  /// Remove the message at `it`; returns the next position (for erase
  /// loops, e.g. DELETE MESSAGES).
  iterator erase(iterator it) {
    unlink(it, it->type);
    return list_.erase(it);
  }

  void clear() {
    list_.clear();
    by_type_.clear();
  }

 private:
  void unlink(iterator it, const std::string& type) {
    auto bucket = by_type_.find(type);
    auto& positions = bucket->second;
    // Almost always the bucket front (ACCEPT and pop_front take the
    // earliest of a type); the fallback handles mid-bucket deletes.
    if (positions.front() == it) {
      positions.pop_front();
    } else {
      positions.erase(std::find(positions.begin(), positions.end(), it));
    }
    // An emptied bucket stays: the next message of its type reuses the map
    // node and the deque instead of allocating both again.
  }

  List list_;  ///< arrival order
  /// One bucket per message type ever queued, so bounded by the task's
  /// distinct types; an empty bucket means none of that type is queued.
  std::map<std::string, std::deque<iterator>> by_type_;
};

}  // namespace pisces::rt
