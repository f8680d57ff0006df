#pragma once

// Shared scaffolding for the reproduction benches. Every bench prints its
// paper-style tables (deterministic, simulated-tick results), records the
// same numbers in a Report, and writes the report as JSON. ctest regenerates
// each checked-in BENCH_*.json and compares it byte for byte, so a moved
// tick in any table fails the suite.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/runtime.hpp"

namespace pisces::bench {

/// One fully-assembled simulated FLEX/32 + MMOS + PISCES runtime.
struct Sim {
  sim::Engine engine;
  flex::Machine machine;
  mmos::System system;
  std::unique_ptr<rt::Runtime> runtime;

  explicit Sim(config::Configuration cfg,
               sim::Backend backend = sim::default_backend(),
               flex::CostModel costs = {})
      : engine(backend), machine(engine, flex::MachineSpec{}, costs),
        system(machine) {
    cfg.time_limit = 50'000'000'000;
    runtime = std::make_unique<rt::Runtime>(system, std::move(cfg));
  }

  rt::Runtime& rt() { return *runtime; }
};

/// Register `body` as tasktype "main", boot, initiate it on cluster 1, and
/// run to completion. Returns the final virtual tick.
inline sim::Tick run_main(Sim& sim, rt::TaskBody body,
                          std::vector<rt::Value> args = {}) {
  sim.rt().register_tasktype("main", std::move(body));
  sim.rt().boot();
  sim.rt().user_initiate(1, "main", std::move(args));
  return sim.rt().run();
}

/// a / b rounded to hundredths, the precision every speedup table prints.
inline double ratio2(sim::Tick a, sim::Tick b) {
  return std::round(100.0 * static_cast<double>(a) / static_cast<double>(b)) /
         100.0;
}

/// `x` with two decimals, as a table cell.
inline std::string fixed2(double x) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << x;
  return os.str();
}

/// Simple table printer; each column is sized to its header (min 14) and
/// the first column gets extra room for long row labels.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int first_width = 28) {
    for (std::size_t i = 0; i < headers.size(); ++i) {
      widths_.push_back(std::max<int>(i == 0 ? first_width : 14,
                                      static_cast<int>(headers[i].size()) + 2));
    }
    for (std::size_t i = 0; i < headers.size(); ++i) {
      std::cout << std::left << std::setw(widths_[i]) << headers[i];
    }
    std::cout << "\n";
    for (std::size_t i = 0; i < headers.size(); ++i) {
      std::cout << std::left << std::setw(widths_[i])
                << std::string(headers[i].size(), '-');
    }
    std::cout << "\n";
  }

  template <typename... Ts>
  void row(Ts&&... cells) {
    std::size_t i = 0;
    ((std::cout << std::left << std::setw(widths_[std::min(i++, widths_.size() - 1)])
                << cells),
     ...);
    std::cout << "\n";
  }

 private:
  std::vector<int> widths_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// What a bench found: named sections of flat rows, written as one JSON
/// file, plus the claims it checked. Every value is rendered here, so no
/// bench formats JSON by hand:
///
///   report.section("one_way_latency");
///   report.row().field("payload_bytes", 32).field("ticks", lat);
class Report {
 public:
  Report(std::string schema, std::string units)
      : schema_(std::move(schema)), units_(std::move(units)) {}

  /// Start a section; the rows that follow belong to it.
  void section(std::string name) { sections_.push_back({std::move(name), {}}); }

  /// Start a row (one JSON object) in the current section.
  Report& row() {
    sections_.back().rows.emplace_back();
    return *this;
  }

  /// Add a field to the current row: a string, a bool or a number (doubles
  /// print as std::ostream does by default).
  template <typename T>
  Report& field(std::string_view key, const T& value) {
    std::ostringstream os;
    os << '"' << key << "\": ";
    if constexpr (std::is_same_v<T, bool>) {
      os << (value ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      os << value;
    } else {
      os << '"' << std::string_view(value) << '"';
    }
    sections_.back().rows.back().push_back(os.str());
    return *this;
  }

  /// Check a claim the bench prints; a failed one makes write() return 1.
  void claim(bool holds, const std::string& what) {
    if (holds) return;
    std::cerr << "CLAIM FAILED: " << what << "\n";
    ++failed_claims_;
  }

  /// Write the JSON file; returns the process exit status (0 when every
  /// claim held).
  int write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\n"
       << "  \"schema\": \"" << schema_ << "\",\n"
       << "  \"units\": \"" << units_ << "\",\n"
       << "  \"sections\": {\n";
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      os << (s == 0 ? "" : ",\n") << "    \"" << sections_[s].name << "\": [";
      const auto& rows = sections_[s].rows;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        os << (r == 0 ? "{" : ", {");
        for (std::size_t f = 0; f < rows[r].size(); ++f) {
          os << (f == 0 ? "" : ", ") << rows[r][f];
        }
        os << "}";
      }
      os << "]";
    }
    os << "\n  }\n}\n";
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << path << "\n";
    return failed_claims_ == 0 ? 0 : 1;
  }

 private:
  struct Section {
    std::string name;
    std::vector<std::vector<std::string>> rows;  // rendered "key": value
  };

  std::string schema_;
  std::string units_;
  std::vector<Section> sections_;
  int failed_claims_ = 0;
};

/// The one flag a bench takes: --json=PATH (default `path`). Anything else
/// is rejected.
inline std::string json_path(int argc, char** argv, std::string path) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--json=")) {
      std::cerr << "usage: " << argv[0] << " [--json=PATH]\n";
      std::exit(2);
    }
    path = arg.substr(7);
  }
  return path;
}

}  // namespace pisces::bench
