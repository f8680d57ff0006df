#pragma once

// Strict token reader shared by Configuration::load and the ConfigMenu.
// Private to src/config.

#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pisces::config {

/// One line of configuration text, read token by token. Every value must be
/// present and well formed, and the line must be consumed in full; each
/// violation throws std::runtime_error naming `where` and the token.
class LineReader {
 public:
  LineReader(const std::string& line, std::string where)
      : in_(line), where_(std::move(where)) {}

  /// The next token, or nullopt at the end of the line.
  std::optional<std::string> next() {
    std::string tok;
    if (!(in_ >> tok)) return std::nullopt;
    last_ = tok;
    return tok;
  }
  /// One value per argument for the token just read (a key such as
  /// "reliable", or a cluster field such as "primary"). Strings take any
  /// token; everything else must parse as a number in full.
  template <typename... T>
  void values(T&... out) {
    const std::string key = last_;
    const auto of = std::to_string(sizeof...(T));
    int n = 0;
    (value(key, std::to_string(++n) + " of " + of, out), ...);
  }
  /// values(), then the end of the line: exactly these values remain.
  template <typename... T>
  void exactly(T&... out) {
    values(out...);
    done();
  }
  template <typename T>
  T number(const std::string& tok, const std::string& what) const {
    T v{};
    const char* end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc{} || stop != end) {
      fail(what + " is not a number: '" + tok + "'");
    }
    return v;
  }
  /// The rest of the line after the single space that follows the key.
  std::string rest() {
    std::string text;
    std::getline(in_, text);
    if (!text.empty() && text.front() == ' ') text.erase(0, 1);
    return text;
  }
  void done() {
    if (auto tok = next()) fail("unexpected trailing token '" + *tok + "'");
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(where_ + what);
  }

 private:
  template <typename T>
  void value(const std::string& key, const std::string& which, T& out) {
    auto tok = next();
    if (!tok) fail("'" + key + "' is missing value " + which);
    if constexpr (std::is_same_v<T, std::string>) {
      out = *tok;
    } else {
      out = number<T>(*tok, "'" + key + "' value " + which);
    }
  }

  std::istringstream in_;
  std::string where_;
  std::string last_;
};

}  // namespace pisces::config
