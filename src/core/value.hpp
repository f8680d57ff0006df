#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/ids.hpp"
#include "core/window.hpp"

namespace pisces::rt {

class Value;

/// A boxed list of values (used by system messages that forward argument
/// lists, e.g. the initiate request a task controller receives).
using ValueList = std::vector<Value>;

/// A message argument value. Pisces Fortran messages carry INTEGER, REAL,
/// LOGICAL, CHARACTER, TASKID and WINDOW values plus arrays; a Value is the
/// C++ embedding of that set. Values serialize to a defined byte layout so
/// the run-time system can charge real shared-memory storage for messages.
///
/// Arrays and lists are immutable once built and shared between copies, so
/// copying a Value costs O(1) whatever it holds: a retransmit buffer, a
/// duplicated bus copy or a TO ALL plan holds the sender's array, not a
/// copy of it. Equality still compares contents.
class Value {
 public:
  using Storage = std::variant<std::int64_t, double, bool, std::string, TaskId,
                               Window, std::shared_ptr<const std::vector<double>>,
                               std::shared_ptr<const std::vector<std::int64_t>>,
                               std::shared_ptr<const ValueList>>;

  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t x) : v_(x) {}                       // NOLINT(google-explicit-constructor)
  Value(int x) : v_(static_cast<std::int64_t>(x)) {}     // NOLINT
  Value(double x) : v_(x) {}                             // NOLINT
  Value(bool x) : v_(x) {}                               // NOLINT
  Value(std::string x) : v_(std::move(x)) {}             // NOLINT
  Value(const char* x) : v_(std::string(x)) {}           // NOLINT
  Value(TaskId x) : v_(x) {}                             // NOLINT
  Value(Window x) : v_(x) {}                             // NOLINT
  Value(std::vector<double> x)                           // NOLINT
      : v_(std::make_shared<const std::vector<double>>(std::move(x))) {}
  Value(std::vector<std::int64_t> x)                     // NOLINT
      : v_(std::make_shared<const std::vector<std::int64_t>>(std::move(x))) {}
  static Value list(ValueList items) {
    Value v;
    v.v_ = std::make_shared<const ValueList>(std::move(items));
    return v;
  }

  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;  ///< accepts int too (Fortran widening)
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_str() const;
  [[nodiscard]] TaskId as_taskid() const;
  [[nodiscard]] Window as_window() const;
  [[nodiscard]] const std::vector<double>& as_real_array() const;
  [[nodiscard]] const std::vector<std::int64_t>& as_int_array() const;
  [[nodiscard]] const ValueList& as_list() const;

  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_real() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_taskid() const { return std::holds_alternative<TaskId>(v_); }
  [[nodiscard]] bool is_window() const { return std::holds_alternative<Window>(v_); }
  [[nodiscard]] bool is_list() const {
    return std::holds_alternative<std::shared_ptr<const ValueList>>(v_);
  }

  /// Bytes this value occupies when packed into a message packet
  /// (tag byte + payload; arrays/strings add a 4-byte length prefix).
  [[nodiscard]] std::size_t encoded_size() const;

  /// Append the packed representation to `out`: the byte layout
  /// encoded_size() counts.
  void encode(std::vector<std::byte>& out) const;

  /// Human-readable rendering (traces, user-controller terminal output).
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  Storage v_;
};

/// Pack an argument list (a whole message's arguments): a 4-byte count,
/// then each value.
std::vector<std::byte> encode_args(const std::vector<Value>& args);
/// Bytes encode_args(args) produces; what the run-time system bills.
std::size_t encoded_args_size(const std::vector<Value>& args);

}  // namespace pisces::rt
