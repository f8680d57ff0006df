#pragma once

// The benchmark's three whole programs on the simulated FLEX/32. Each one
// is generated from a seed, run once per call on a fresh engine (always the
// fiber backend), and checked against its expected output.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// One run of one workload.
struct RunResult {
  double setup_s = 0;  ///< Engine construction .. boot() and first user_initiate
  double run_s = 0;    ///< the simulated run: Runtime::run(), or the step loop
  std::int64_t sim_ticks = 0;    ///< tick at which the program's master finished
  std::vector<double> step_us;   ///< host time of each workload step
  std::uint64_t app_sends = 0;   ///< ops attempted: the application's sends
  std::uint64_t failures = 0;    ///< dead letters + _SENDFAILs + ACCEPT timeouts
  std::string problem;           ///< first failed check; empty if none
  /// Every deterministic quantity of the run, in a fixed order.
  std::vector<std::pair<std::string, std::uint64_t>> digest;
  /// Per-layer counters read after the run (named as in BENCHMARK.json).
  std::vector<std::pair<std::string, double>> counters;
  SpanTotals spans;  ///< traced runs only
  std::size_t open_span_owners = 0;

  [[nodiscard]] bool ok() const { return problem.empty(); }
  [[nodiscard]] std::uint64_t digest_hash() const;
};

enum class Mode {
  setup_only,  ///< stop after set-up; only setup_s is filled in
  untraced,    ///< Runtime::run(), no spans
  traced,      ///< step-driven run under Spans
};

/// Runs the workload once, on a fresh engine.
using Workload = std::function<RunResult(Mode)>;

[[nodiscard]] const std::vector<std::string>& workload_names();
/// The named workload with its inputs generated from `seed`; nullopt for an
/// unknown name.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed);

}  // namespace perfbench
