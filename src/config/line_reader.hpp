#pragma once

// Strict token reader and the per-key readers shared by Configuration::load
// and the ConfigMenu. Private to src/config.

#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "config/configuration.hpp"

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
    return tok;
  }
  /// One value per argument for `key` (a key such as "reliable", or a
  /// cluster field such as "primary"). Strings take any token, flags only 0
  /// or 1; everything else must parse as a number in full.
  template <typename... T>
  void values(const std::string& key, T&... out) {
    const auto of = std::to_string(sizeof...(T));
    int n = 0;
    (value(key, std::to_string(++n) + " of " + of, out), ...);
  }
  template <typename T>
  T parse(const std::string& tok, const std::string& what) const {
    if constexpr (std::is_same_v<T, bool>) {
      if (tok != "0" && tok != "1") fail(what + " is not 0 or 1: '" + tok + "'");
      return tok == "1";
    } else {
      T v{};
      const char* end = tok.data() + tok.size();
      const auto [stop, ec] = std::from_chars(tok.data(), end, v);
      if (ec != std::errc{} || stop != end) {
        fail(what + " is not a number: '" + tok + "'");
      }
      return v;
    }
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
      out = parse<T>(*tok, "'" + key + "' value " + which);
    }
  }

  std::istringstream in_;
  std::string where_;
};

/// Reads the values of a saved line whose key is `key` into `cfg`: sets a
/// knob, or appends a cluster or a fault-plan entry. Throws through `r` for
/// an unknown key or a bad value; the caller checks the end of the line.
void read_line(LineReader& r, Configuration& cfg, const std::string& key);

/// Reads the value of one field of a saved `cluster` line (`primary`,
/// `slots`, `terminal`, `place` or `secondaries`) into `c`.
void read_cluster_field(LineReader& r, ClusterConfig& c, const std::string& field);

}  // namespace pisces::config
