// perfbench — whole-program host-time benchmark of the PISCES 2 simulator.
//
//   perfbench --workload <pingpong|farm_reliable|heat2d> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Repeats the workload on fresh engines for about --seconds seconds and
// reports the fastest repetition (see time_of). --trace 0 prints the
// end-to-end metrics of untraced runs;
// --trace 1 alternates untraced and traced (step-driven) runs and prints the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kMinRuns = 3;          // per mode, whatever --seconds says
// Extra set-ups after every untraced run, spread over the whole measuring
// window so that setup_s sees the same host conditions as run_s.
constexpr int kSetupsPerRun = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cerr << (i ? "|" : "") << workload_names()[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// The `p` quantile of `v`, interpolating linearly between order
/// statistics (p = 0.5 is the median).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// How the run's repetitions are summarised. Interference from other
/// tenants of a shared host only ever adds time, and it comes in phases
/// from seconds to minutes that can cover most of a measuring window, so
/// everything above a run's fastest repetition says more about the host
/// than about the program: times are the minimum over the repetitions and
/// rates the maximum.
double time_of(const std::vector<double>& v) { return quantile(v, 0); }
double rate_of(const std::vector<double>& v) { return quantile(v, 1); }

/// The 99th percentile (nearest rank), and how many samples lie above it;
/// the benchmark sizes every workload so that at least ten do.
std::pair<double, std::size_t> p99(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
  return {v[rank - 1], v.size() - rank};
}

/// The process's resident-set high-water mark (VmHWM). Not getrusage's
/// ru_maxrss, which Linux carries across execve from the parent process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Runs one mode once, turning an exception from the simulation into a
/// failed run.
RunResult run_once(const Workload& wl, Mode mode) {
  try {
    return wl(mode);
  } catch (const std::exception& e) {
    RunResult r;
    r.problem = std::string("exception: ") + e.what();
    return r;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::optional<Workload> made = make_workload(args.workload, args.seed);
  if (!made) usage("unknown workload " + args.workload);
  const Workload& wl = *made;

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "build: type=" << build_type << " compiler=" << compiler()
            << " host_cores=" << std::thread::hardware_concurrency()
            << " backend=fibers\n"
            << "model: unvalidated - no reference FLEX/32 measurements exist, so no "
               "accuracy figure is reported\n";
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    const char* warning =
        "WARNING: perfbench is not an optimised build (Release or "
        "RelWithDebInfo); its host times mean nothing\n";
    std::cout << warning;
    std::cerr << warning;
  }

  const std::int64_t start = now_ns();
  const auto elapsed_s = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };

  std::vector<RunResult> untraced;
  std::vector<RunResult> traced;
  std::vector<double> setup_s;
  double rss_mb = 0;
  std::string problem;
  while (problem.empty()) {
    const bool enough = static_cast<int>(untraced.size()) >= kMinRuns &&
                        (!args.trace || static_cast<int>(traced.size()) >= kMinRuns);
    if (enough && elapsed_s() >= args.seconds) break;
    untraced.push_back(run_once(wl, Mode::untraced));
    // Later runs reuse the first one's memory; only the stored results grow.
    if (untraced.size() == 1) rss_mb = peak_rss_mb();
    setup_s.push_back(untraced.back().setup_s);
    for (int i = 0; !args.trace && i < kSetupsPerRun; ++i) {
      setup_s.push_back(run_once(wl, Mode::setup_only).setup_s);
    }
    if (!untraced.back().ok()) problem = untraced.back().problem;
    if (args.trace && problem.empty()) {
        traced.push_back(run_once(wl, Mode::traced));
      if (!traced.back().ok()) problem = traced.back().problem;
    }
  }

  // ---- self-tests: determinism, spans change nothing, attribution adds up
  const RunResult& first = untraced.front();
  const std::uint64_t digest = first.digest_hash();
  std::size_t digest_mismatches = 0;
  for (const auto* runs : {&untraced, &traced}) {
    for (const RunResult& r : *runs) digest_mismatches += r.digest_hash() != digest ? 1 : 0;
  }
  if (problem.empty() && digest_mismatches != 0) {
    problem = std::to_string(digest_mismatches) +
              " runs produced a different simulation digest";
  }
  std::size_t attribution_failures = 0;
  for (const RunResult& r : traced) {
    const SpanTotals& t = r.spans;
    if (t.faults != 0 || r.open_span_owners != 0 || t.attributed_ns() != t.step_ns) {
      ++attribution_failures;
      std::cout << "attribution: FAILED faults=" << t.faults
                << " open_owners=" << r.open_span_owners
                << " attributed_ns=" << t.attributed_ns() << " step_ns=" << t.step_ns
                << "\n";
    }
  }
  if (problem.empty() && attribution_failures != 0) {
    problem = "per-layer host time does not add up to the summed step time";
  }

  // ---- ops and failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* runs : {&untraced, &traced}) {
    for (const RunResult& r : *runs) {
      attempted += r.app_sends;
      failed += r.ok() ? r.failures : r.app_sends;
    }
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const bool correct = problem.empty();

  std::cout << "runs: untraced=" << untraced.size() << " traced=" << traced.size()
            << " setup_samples=" << setup_s.size() << " elapsed_s=" << elapsed_s()
            << "\n";
  std::cout << "digest: " << hex(digest) << " over " << first.digest.size()
            << " quantities; identical across " << untraced.size() << " untraced"
            << (args.trace ? " and " + std::to_string(traced.size()) + " traced" : "")
            << " runs: " << (digest_mismatches == 0 ? "yes" : "NO") << "\n";
  for (const auto& [name, value] : first.digest) {
    std::cout << "  " << name << " = " << value << "\n";
  }
  if (args.trace) {
    std::cout << "attribution self-test (sum of layer self_ns + sim.other_ns == "
                 "summed Engine::step() time): "
              << (attribution_failures == 0 ? "pass" : "FAIL") << " on "
              << traced.size() << " traced runs\n";
  }
  std::cout << "failed_ratio = " << static_cast<double>(failed) / static_cast<double>(attempted)
            << " ratio (" << failed << " failed of " << attempted << " application sends)\n";
  if (!correct) std::cout << "CHECK FAILED: " << problem << "\n";

  std::vector<double> untraced_s;
  std::vector<double> msgs_per_s;
  std::vector<double> steps_us;       // every workload step, pooled
  std::vector<double> step_medians;   // each run's median step
  for (const RunResult& r : untraced) {
    untraced_s.push_back(r.run_s);
    for (const auto& [name, value] : r.digest) {
      if (name == "rt.messages_accepted") {
        msgs_per_s.push_back(static_cast<double>(value) / r.run_s);
      }
    }
    steps_us.insert(steps_us.end(), r.step_us.begin(), r.step_us.end());
    step_medians.push_back(quantile(r.step_us, 0.5));
  }

  std::cout << "run_s over " << untraced_s.size() << " untraced runs: min " << quantile(untraced_s, 0)
            << " p10 " << quantile(untraced_s, 0.1) << " median " << quantile(untraced_s, 0.5)
            << " max " << quantile(untraced_s, 1) << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"run_s", time_of(untraced_s), "s"},
        {"sim_msgs_per_s", rate_of(msgs_per_s), "1/s"},
        {"step_us_p50", time_of(step_medians), "us"},
        {"setup_s", time_of(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_ticks", static_cast<double>(first.sim_ticks), "ticks"},
    };
    std::cout << "step_us_p50: the median of each run's " << untraced.front().step_us.size()
              << " workload steps, " << steps_us.size() << " steps in all\n";
  } else {
    const auto n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    SpanTotals sum;
    std::vector<double> traced_s;
    for (const RunResult& r : traced) {
      traced_s.push_back(r.run_s);
      for (std::size_t i = 0; i < kSpanCount; ++i) {
        sum.self_ns[i] += r.spans.self_ns[i];
        sum.calls[i] += r.spans.calls[i];
        sum.ticks[i] += r.spans.ticks[i];
      }
      sum.other_ns += r.spans.other_ns;
      sum.step_ns += r.spans.step_ns;
      sum.steps += r.spans.steps;
    }
    const RunResult& counters = traced.empty() ? first : traced.front();
    std::map<std::string, double> by_name(counters.counters.begin(), counters.counters.end());
    auto counter = [&by_name](const std::string& name) { return by_name.at(name); };
    auto per_run = [n](double total) { return total / n; };
    auto span = [&](Span s) { return static_cast<std::size_t>(s); };
    auto calls = [&](Span s) { return per_run(static_cast<double>(sum.calls[span(s)])); };
    auto self = [&](Span s) { return per_run(static_cast<double>(sum.self_ns[span(s)])); };
    auto ticks = [&](Span s) { return per_run(static_cast<double>(sum.ticks[span(s)])); };
    const auto [step_p99, above_p99] = p99(steps_us);
    const double steps = static_cast<double>(std::max<std::uint64_t>(sum.steps, 1));

    metrics = {
        {"sim.events", counter("sim.events"), "count"},
        {"sim.events_per_msg", counter("sim.events_per_msg"), "ratio"},
        {"sim.processes", counter("sim.processes"), "count"},
        {"sim.step_ns", static_cast<double>(sum.step_ns) / steps, "ns"},
        {"sim.other_ns", per_run(static_cast<double>(sum.other_ns)), "ns"},
        {"mmos.dispatches", counter("mmos.dispatches"), "count"},
        {"mmos.busy_ticks", counter("mmos.busy_ticks"), "ticks"},
        {"mmos.util_max", counter("mmos.util_max"), "ratio"},
        {"mmos.compute.calls", calls(Span::compute), "count"},
        {"mmos.compute.self_ns", self(Span::compute), "ns"},
        {"core.send.calls", calls(Span::send), "count"},
        {"core.send.self_ns", self(Span::send), "ns"},
        {"core.send.ticks", ticks(Span::send), "ticks"},
        {"core.accept.calls", calls(Span::accept), "count"},
        {"core.accept.self_ns", self(Span::accept), "ns"},
        {"core.accept.wait_ticks", ticks(Span::accept), "ticks"},
        {"core.initiate.calls", calls(Span::initiate), "count"},
        {"core.initiate.self_ns", self(Span::initiate), "ns"},
        {"core.msgs_sent", counter("core.msgs_sent"), "count"},
        {"core.msg_bytes", counter("core.msg_bytes"), "bytes"},
        {"core.heap_full_waits", counter("core.heap_full_waits"), "count"},
        {"core.dead_letters", counter("core.dead_letters"), "count"},
        {"core.reliable.sends", counter("core.reliable.sends"), "count"},
        {"core.reliable.copies_sent", counter("core.reliable.copies_sent"), "count"},
        {"core.reliable.delivered", counter("core.reliable.delivered"), "count"},
        {"core.reliable.retransmits", counter("core.reliable.retransmits"), "count"},
        {"core.reliable.acks", counter("core.reliable.acks"), "count"},
        {"core.reliable.dup_drops", counter("core.reliable.dup_drops"), "count"},
        {"core.reliable.send_failures", counter("core.reliable.send_failures"), "count"},
        {"core.reliable.useful_ratio", counter("core.reliable.useful_ratio"), "ratio"},
        {"core.forcesplit.calls", calls(Span::forcesplit), "count"},
        {"core.forcesplit.self_ns", self(Span::forcesplit), "ns"},
        {"core.presched.calls", calls(Span::presched), "count"},
        {"core.presched.self_ns", self(Span::presched), "ns"},
        {"core.force.barriers", counter("core.force.barriers"), "count"},
        {"core.window_read.calls", calls(Span::window_read), "count"},
        {"core.window_read.self_ns", self(Span::window_read), "ns"},
        {"core.window_read.ticks", ticks(Span::window_read), "ticks"},
        {"core.window_write.calls", calls(Span::window_write), "count"},
        {"core.window_write.self_ns", self(Span::window_write), "ns"},
        {"core.window_write.ticks", ticks(Span::window_write), "ticks"},
        {"flex.bus.transfers", counter("flex.bus.transfers"), "count"},
        {"flex.bus.busy_ticks", counter("flex.bus.busy_ticks"), "ticks"},
        {"flex.bus.wait_ticks", counter("flex.bus.wait_ticks"), "ticks"},
        {"flex.bus.faulted", counter("flex.bus.faulted"), "count"},
        {"flex.bus.util", counter("flex.bus.util"), "ratio"},
        {"flex.heap.allocs", counter("flex.heap.allocs"), "count"},
        {"flex.heap.failed", counter("flex.heap.failed"), "count"},
        {"flex.heap.peak_bytes", counter("flex.heap.peak_bytes"), "bytes"},
        {"flex.heap.frag_end", counter("flex.heap.frag_end"), "ratio"},
        {"trace.records", counter("trace.records"), "count"},
        {"trace.emitted", counter("trace.emitted"), "count"},
        {"trace.bytes", counter("trace.bytes"), "bytes"},
        {"trace.format.self_ns", self(Span::trace_format), "ns"},
        {"app.self_ns", self(Span::app), "ns"},
        {"bench.step_us_p99", step_p99, "us"},
        {"bench.span_overhead", time_of(traced_s) / time_of(untraced_s) - 1.0, "ratio"},
    };
    std::cout << "bench.step_us_p99 over " << steps_us.size() << " untraced workload steps, "
              << above_p99 << " of them above it\n"
              << "run_s traced " << time_of(traced_s) << " s, untraced "
              << time_of(untraced_s) << " s\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
