#include "flex/fault.hpp"

#include <algorithm>
#include <sstream>

namespace pisces::flex {

namespace {

bool probability(double p, const char* what, std::vector<std::string>& out) {
  if (p < 0.0 || p > 1.0) {
    out.push_back(std::string(what) + " probability must be in [0, 1]");
    return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> FaultPlan::validate(const MachineSpec& spec) const {
  std::vector<std::string> problems;
  for (const auto& h : pe_halts) {
    if (h.pe <= spec.unix_pe_count || h.pe > spec.pe_count) {
      problems.push_back("fault-halt PE " + std::to_string(h.pe) +
                         " is not an MMOS PE");
    }
    if (h.at < 0) {
      problems.push_back("fault-halt tick must be >= 0");
    }
  }
  probability(bus_loss, "bus loss", problems);
  probability(bus_duplication, "bus duplication", problems);
  probability(bus_delay_probability, "bus delay", problems);
  probability(disk_error, "disk error", problems);
  const double bus_sum = bus_loss + bus_duplication + bus_delay_probability;
  if (bus_sum > 1.0) {
    // One uniform draw per physical transfer picks at most one of
    // loss/dup/delay, so the three probabilities share one unit budget.
    // (Loss and duplication still compose on a logical transfer under the
    // reliable layer, where each retransmit attempt gets its own draw.)
    std::ostringstream msg;
    msg << "bus fault probabilities must sum to <= 1 because one draw per "
           "transfer picks at most one fault: loss "
        << bus_loss << " + dup " << bus_duplication << " + delay-prob "
        << bus_delay_probability << " = " << bus_sum;
    problems.push_back(msg.str());
  }
  if (bus_delay_ticks < 0) {
    problems.emplace_back("bus delay ticks must be >= 0");
  }
  auto windows = heap_outages;
  std::sort(windows.begin(), windows.end(),
            [](const HeapOutage& a, const HeapOutage& b) { return a.from < b.from; });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].from >= windows[i].until) {
      problems.emplace_back("fault-heap window must have from < until");
    }
    if (i > 0 && windows[i].from < windows[i - 1].until) {
      problems.emplace_back("fault-heap windows must not overlap");
    }
  }
  for (const auto& s : pe_slowdowns) {
    if (s.pe <= spec.unix_pe_count || s.pe > spec.pe_count) {
      problems.push_back("fault-slow PE " + std::to_string(s.pe) +
                         " is not an MMOS PE");
    }
    if (s.factor <= 0.0) {
      problems.emplace_back("fault-slow factor must be > 0");
    }
    if (s.from < 0 || s.from >= s.until) {
      problems.emplace_back("fault-slow window must have 0 <= from < until");
    }
  }
  for (const auto& p : bus_partitions) {
    if (p.cluster_a == p.cluster_b) {
      problems.emplace_back(
          "fault-partition must name two distinct clusters");
    }
    if (p.cluster_a <= 0 || p.cluster_b <= 0) {
      problems.emplace_back("fault-partition cluster numbers must be >= 1");
    }
    if (p.from < 0 || p.from >= p.until) {
      problems.emplace_back(
          "fault-partition window must have 0 <= from < until");
    }
  }
  for (const auto& r : pe_recoveries) {
    if (r.pe <= spec.unix_pe_count || r.pe > spec.pe_count) {
      problems.push_back("fault-recover PE " + std::to_string(r.pe) +
                         " is not an MMOS PE");
    }
    if (r.at < 0) {
      problems.emplace_back("fault-recover tick must be >= 0");
    }
    // A recovery only makes sense for a PE that was halted strictly earlier.
    const bool halted_before =
        std::any_of(pe_halts.begin(), pe_halts.end(), [&](const PeHalt& h) {
          return h.pe == r.pe && h.at < r.at;
        });
    if (!halted_before) {
      problems.push_back("fault-recover PE " + std::to_string(r.pe) +
                         " is never halted before tick " +
                         std::to_string(r.at));
    }
  }
  return problems;
}

BusFault FaultInjector::next_bus_fault() {
  // One uniform draw per transfer keeps the stream position a pure function
  // of how many transfers have happened, which is what makes trajectories
  // reproducible across backends.
  const double u = bus_rng_.unit();
  if (u < plan_.bus_loss) {
    ++stats_.bus_lost;
    return BusFault::lose;
  }
  if (u < plan_.bus_loss + plan_.bus_duplication) {
    ++stats_.bus_duplicated;
    return BusFault::duplicate;
  }
  if (u < plan_.bus_loss + plan_.bus_duplication + plan_.bus_delay_probability) {
    ++stats_.bus_delayed;
    return BusFault::delay;
  }
  return BusFault::none;
}

bool FaultInjector::next_disk_error() {
  if (plan_.disk_error <= 0.0) return false;
  const bool fail = disk_rng_.unit() < plan_.disk_error;
  if (fail) ++stats_.disk_errors;
  return fail;
}

}  // namespace pisces::flex
