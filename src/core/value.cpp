#include "core/value.hpp"

#include <cstring>
#include <stdexcept>

namespace pisces::rt {
namespace {

enum class Tag : std::uint8_t {
  int64 = 1,
  real = 2,
  boolean = 3,
  string = 4,
  taskid = 5,
  window = 6,
  real_array = 7,
  int_array = 8,
  list = 9,
};

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("Value: not a ") + wanted);
}

template <typename T>
void put_raw(std::vector<std::byte>& out, const T& x) {
  const auto* p = reinterpret_cast<const std::byte*>(&x);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get_raw(const std::vector<std::byte>& in, std::size_t& pos) {
  if (pos + sizeof(T) > in.size()) throw std::runtime_error("Value: truncated input");
  T x;
  std::memcpy(&x, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return x;
}

void put_u32(std::vector<std::byte>& out, std::size_t n) {
  put_raw(out, static_cast<std::uint32_t>(n));
}

void put_taskid(std::vector<std::byte>& out, const TaskId& id) {
  put_raw(out, static_cast<std::int32_t>(id.cluster));
  put_raw(out, static_cast<std::int32_t>(id.slot));
  put_raw(out, id.unique);
}

TaskId get_taskid(const std::vector<std::byte>& in, std::size_t& pos) {
  TaskId id;
  id.cluster = get_raw<std::int32_t>(in, pos);
  id.slot = get_raw<std::int32_t>(in, pos);
  id.unique = get_raw<std::uint64_t>(in, pos);
  return id;
}

constexpr std::size_t kTaskIdBytes = 4 + 4 + 8;
constexpr std::size_t kWindowBytes = kTaskIdBytes + 4 + 4 * 4 + 2 * 4;
/// The smallest packed value, a LOGICAL: tag byte + one payload byte.
constexpr std::size_t kMinValueBytes = 2;

using RealArray = std::shared_ptr<const std::vector<double>>;
using IntArray = std::shared_ptr<const std::vector<std::int64_t>>;
using List = std::shared_ptr<const ValueList>;

/// Read a length prefix and check that `n` elements of at least
/// `min_bytes` each fit in what is left of `in`, before anything is sized
/// from it.
std::uint32_t get_count(const std::vector<std::byte>& in, std::size_t& pos,
                        std::size_t min_bytes, const char* what) {
  const auto n = get_raw<std::uint32_t>(in, pos);
  if (n > (in.size() - pos) / min_bytes) {
    throw std::runtime_error(std::string("Value: ") + what +
                             " length exceeds the packet");
  }
  return n;
}

}  // namespace

std::int64_t Value::as_int() const {
  if (const auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  type_error("INTEGER");
}

double Value::as_real() const {
  if (const auto* p = std::get_if<double>(&v_)) return *p;
  if (const auto* p = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*p);
  type_error("REAL");
}

bool Value::as_bool() const {
  if (const auto* p = std::get_if<bool>(&v_)) return *p;
  type_error("LOGICAL");
}

const std::string& Value::as_str() const {
  if (const auto* p = std::get_if<std::string>(&v_)) return *p;
  type_error("CHARACTER");
}

TaskId Value::as_taskid() const {
  if (const auto* p = std::get_if<TaskId>(&v_)) return *p;
  type_error("TASKID");
}

Window Value::as_window() const {
  if (const auto* p = std::get_if<Window>(&v_)) return *p;
  type_error("WINDOW");
}

const std::vector<double>& Value::as_real_array() const {
  if (const auto* p = std::get_if<RealArray>(&v_)) return **p;
  type_error("REAL array");
}

const std::vector<std::int64_t>& Value::as_int_array() const {
  if (const auto* p = std::get_if<IntArray>(&v_)) return **p;
  type_error("INTEGER array");
}

const ValueList& Value::as_list() const {
  if (const auto* p = std::get_if<List>(&v_)) return **p;
  type_error("argument list");
}

std::size_t Value::encoded_size() const {
  return 1 + std::visit(
                 [](const auto& x) -> std::size_t {
                   using T = std::decay_t<decltype(x)>;
                   if constexpr (std::is_same_v<T, std::int64_t>) return 8;
                   if constexpr (std::is_same_v<T, double>) return 8;
                   if constexpr (std::is_same_v<T, bool>) return 1;
                   if constexpr (std::is_same_v<T, std::string>) return 4 + x.size();
                   if constexpr (std::is_same_v<T, TaskId>) return kTaskIdBytes;
                   if constexpr (std::is_same_v<T, Window>) return kWindowBytes;
                   if constexpr (std::is_same_v<T, RealArray>) return 4 + 8 * x->size();
                   if constexpr (std::is_same_v<T, IntArray>) return 4 + 8 * x->size();
                   if constexpr (std::is_same_v<T, List>) {
                     std::size_t n = 4;
                     for (const auto& v : *x) n += v.encoded_size();
                     return n;
                   }
                 },
                 v_);
}

void Value::encode(std::vector<std::byte>& out) const {
  std::visit(
      [&out](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::int64)});
          put_raw(out, x);
        } else if constexpr (std::is_same_v<T, double>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::real)});
          put_raw(out, x);
        } else if constexpr (std::is_same_v<T, bool>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::boolean)});
          out.push_back(std::byte{static_cast<std::uint8_t>(x ? 1 : 0)});
        } else if constexpr (std::is_same_v<T, std::string>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::string)});
          put_u32(out, x.size());
          const auto* p = reinterpret_cast<const std::byte*>(x.data());
          out.insert(out.end(), p, p + x.size());
        } else if constexpr (std::is_same_v<T, TaskId>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::taskid)});
          put_taskid(out, x);
        } else if constexpr (std::is_same_v<T, Window>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::window)});
          put_taskid(out, x.owner);
          put_raw(out, x.array);
          put_raw(out, static_cast<std::int32_t>(x.rect.row0));
          put_raw(out, static_cast<std::int32_t>(x.rect.col0));
          put_raw(out, static_cast<std::int32_t>(x.rect.rows));
          put_raw(out, static_cast<std::int32_t>(x.rect.cols));
          put_raw(out, static_cast<std::int32_t>(x.array_rows));
          put_raw(out, static_cast<std::int32_t>(x.array_cols));
        } else if constexpr (std::is_same_v<T, RealArray>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::real_array)});
          put_u32(out, x->size());
          for (double d : *x) put_raw(out, d);
        } else if constexpr (std::is_same_v<T, IntArray>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::int_array)});
          put_u32(out, x->size());
          for (std::int64_t d : *x) put_raw(out, d);
        } else if constexpr (std::is_same_v<T, List>) {
          out.push_back(std::byte{static_cast<std::uint8_t>(Tag::list)});
          put_u32(out, x->size());
          for (const Value& v : *x) v.encode(out);
        }
      },
      v_);
}

Value Value::decode(const std::vector<std::byte>& in, std::size_t& pos) {
  const auto tag = static_cast<Tag>(get_raw<std::uint8_t>(in, pos));
  switch (tag) {
    case Tag::int64:
      return Value(get_raw<std::int64_t>(in, pos));
    case Tag::real:
      return Value(get_raw<double>(in, pos));
    case Tag::boolean:
      return Value(get_raw<std::uint8_t>(in, pos) != 0);
    case Tag::string: {
      const auto n = get_raw<std::uint32_t>(in, pos);
      if (pos + n > in.size()) throw std::runtime_error("Value: truncated string");
      std::string s(reinterpret_cast<const char*>(in.data() + pos), n);
      pos += n;
      return Value(std::move(s));
    }
    case Tag::taskid:
      return Value(get_taskid(in, pos));
    case Tag::window: {
      Window w;
      w.owner = get_taskid(in, pos);
      w.array = get_raw<std::uint32_t>(in, pos);
      w.rect.row0 = get_raw<std::int32_t>(in, pos);
      w.rect.col0 = get_raw<std::int32_t>(in, pos);
      w.rect.rows = get_raw<std::int32_t>(in, pos);
      w.rect.cols = get_raw<std::int32_t>(in, pos);
      w.array_rows = get_raw<std::int32_t>(in, pos);
      w.array_cols = get_raw<std::int32_t>(in, pos);
      return Value(w);
    }
    case Tag::real_array: {
      const auto n = get_count(in, pos, sizeof(double), "REAL array");
      std::vector<double> xs(n);
      for (auto& x : xs) x = get_raw<double>(in, pos);
      return Value(std::move(xs));
    }
    case Tag::int_array: {
      const auto n = get_count(in, pos, sizeof(std::int64_t), "INTEGER array");
      std::vector<std::int64_t> xs(n);
      for (auto& x : xs) x = get_raw<std::int64_t>(in, pos);
      return Value(std::move(xs));
    }
    case Tag::list: {
      const auto n = get_count(in, pos, kMinValueBytes, "argument list");
      ValueList items;
      items.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) items.push_back(decode(in, pos));
      return Value::list(std::move(items));
    }
  }
  throw std::runtime_error("Value: unknown tag in packet");
}

std::string Value::str() const {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) return std::to_string(x);
        if constexpr (std::is_same_v<T, double>) return std::to_string(x);
        if constexpr (std::is_same_v<T, bool>) return x ? ".TRUE." : ".FALSE.";
        if constexpr (std::is_same_v<T, std::string>) return "'" + x + "'";
        if constexpr (std::is_same_v<T, TaskId>) return x.str();
        if constexpr (std::is_same_v<T, Window>) return x.str();
        if constexpr (std::is_same_v<T, RealArray>)
          return "real[" + std::to_string(x->size()) + "]";
        if constexpr (std::is_same_v<T, IntArray>)
          return "int[" + std::to_string(x->size()) + "]";
        if constexpr (std::is_same_v<T, List>)
          return "list[" + std::to_string(x->size()) + "]";
      },
      v_);
}

bool operator==(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b.v_);
        // Shared arrays and lists compare by contents, not by pointer.
        if constexpr (std::is_same_v<T, RealArray> || std::is_same_v<T, IntArray> ||
                      std::is_same_v<T, List>) {
          return *x == *y;
        } else {
          return x == y;
        }
      },
      a.v_);
}

std::vector<std::byte> encode_args(const std::vector<Value>& args) {
  std::vector<std::byte> out;
  out.reserve(encoded_args_size(args));
  std::uint32_t n = static_cast<std::uint32_t>(args.size());
  const auto* p = reinterpret_cast<const std::byte*>(&n);
  out.insert(out.end(), p, p + 4);
  for (const Value& v : args) v.encode(out);
  return out;
}

std::vector<Value> decode_args(const std::vector<std::byte>& bytes) {
  std::size_t pos = 0;
  if (bytes.size() < 4) throw std::runtime_error("decode_args: truncated header");
  const std::uint32_t n = get_count(bytes, pos, kMinValueBytes, "argument list");
  std::vector<Value> args;
  args.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) args.push_back(Value::decode(bytes, pos));
  if (pos != bytes.size()) throw std::runtime_error("decode_args: trailing bytes");
  return args;
}

std::size_t encoded_args_size(const std::vector<Value>& args) {
  std::size_t n = 4;
  for (const Value& v : args) n += v.encoded_size();
  return n;
}

}  // namespace pisces::rt
