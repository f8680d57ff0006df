#pragma once

// Seeded mutations of line-oriented text files (saved configurations, trace
// files) for the strict-reader sweeps in config_test and trace_test.

#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace pisces::mutation {

inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) parts.push_back(part);
  return parts;
}

inline std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) out += (i ? sep : "") + parts[i];
  return out;
}

/// `text` (lines ending in '\n') with one mutation drawn from `rng`: delete
/// a line, duplicate a line, truncate at a byte, replace a byte, or swap two
/// adjacent tokens of a line.
inline std::string mutate(const std::string& text, std::mt19937_64& rng) {
  auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<std::string> lines = split(text, '\n');
  const std::size_t at = below(lines.size());
  switch (below(5)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      break;
    case 2:
      return text.substr(0, below(text.size()));
    case 3: {
      static constexpr char kBytes[] = " \n-.0159aex=:";
      std::string out = text;
      out[below(out.size())] = kBytes[below(sizeof kBytes - 1)];
      return out;
    }
    default: {
      std::vector<std::string> tokens = split(lines[at], ' ');
      if (tokens.size() < 2) return mutate(text, rng);
      const std::size_t i = below(tokens.size() - 1);
      std::swap(tokens[i], tokens[i + 1]);
      lines[at] = join(tokens, " ");
    }
  }
  return lines.empty() ? std::string() : join(lines, "\n") + "\n";
}

/// The line number a located error names ("...: line N: ..."), or 0.
inline int named_line(const std::string& what) {
  const auto at = what.find("line ");
  return at == std::string::npos ? 0 : std::atoi(what.c_str() + at + 5);
}

}  // namespace pisces::mutation
