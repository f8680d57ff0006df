#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "flex/machine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pisces::flex {

/// Declarative description of the faults to inject into one run. Owned by
/// the Configuration (new `fault-*` config tokens, see configuration.cpp)
/// and interpreted by a FaultInjector at boot. Everything here is
/// deterministic: scheduled faults fire at fixed ticks, and probabilistic
/// faults draw from dedicated sim::Rng streams seeded from `seed`, so the
/// same plan replays the same fault trajectory on both engine backends.
struct FaultPlan {
  std::uint64_t seed = 1;

  /// Halt an MMOS PE at a given tick: every process hosted on it is killed
  /// and the PE accepts no further work.
  struct PeHalt {
    int pe = 0;
    sim::Tick at = 0;
  };
  std::vector<PeHalt> pe_halts;

  // Per-message bus fault probabilities (one uniform draw per transfer).
  double bus_loss = 0.0;           ///< message vanishes after the transfer
  double bus_duplication = 0.0;    ///< message is delivered twice
  double bus_delay_probability = 0.0;  ///< delivery deferred by bus_delay_ticks
  sim::Tick bus_delay_ticks = 50'000;

  /// While [from, until) is active the message heap denies all allocations.
  struct HeapOutage {
    sim::Tick from = 0;
    sim::Tick until = 0;
  };
  std::vector<HeapOutage> heap_outages;

  /// Per-request probability that a disk transfer fails and must be retried.
  double disk_error = 0.0;

  /// Degrade an MMOS PE's clock during [from, until): every COMPUTE issued
  /// on it is stretched by `factor` (2.0 = half speed). The PE keeps
  /// working — only slower — so placement should route new work elsewhere.
  struct PeSlowdown {
    int pe = 0;
    sim::Tick from = 0;
    sim::Tick until = 0;
    double factor = 2.0;
  };
  std::vector<PeSlowdown> pe_slowdowns;

  /// While [from, until) is active the bus refuses transfers between the
  /// two clusters (both directions); affected messages are dropped exactly
  /// like a bus loss. Intra-cluster traffic is untouched.
  struct BusPartition {
    int cluster_a = 0;
    int cluster_b = 0;
    sim::Tick from = 0;
    sim::Tick until = 0;
  };
  std::vector<BusPartition> bus_partitions;

  /// Bring a previously halted PE back at a given tick. The PE rejoins
  /// *cold*: its old processes stay dead, controllers are restarted fresh,
  /// and stale task ids addressed to the old incarnation dead-letter.
  struct PeRecover {
    int pe = 0;
    sim::Tick at = 0;
  };
  std::vector<PeRecover> pe_recoveries;

  [[nodiscard]] bool any() const {
    return !pe_halts.empty() || !heap_outages.empty() ||
           !pe_slowdowns.empty() || !bus_partitions.empty() ||
           !pe_recoveries.empty() || bus_loss > 0.0 ||
           bus_duplication > 0.0 || bus_delay_probability > 0.0 ||
           disk_error > 0.0;
  }

  /// Sanity-check the plan against a machine description; returns a list of
  /// human-readable problems (empty when the plan is well formed).
  [[nodiscard]] std::vector<std::string> validate(const MachineSpec& spec) const;
};

/// Verdict for one bus transfer.
enum class BusFault { none, lose, duplicate, delay };

/// [from, until) windows keyed by an unordered pair, queried on every
/// transfer. A plan carries a handful of windows, so a query scans them.
class PartitionIndex {
 public:
  struct Window {
    int a = 0;
    int b = 0;
    sim::Tick from = 0;
    sim::Tick until = 0;
  };

  PartitionIndex() = default;
  explicit PartitionIndex(std::vector<Window> windows) : windows_(std::move(windows)) {}

  /// True when a window over the unordered pair {a, b} covers `now`.
  [[nodiscard]] bool active(int a, int b, sim::Tick now) const {
    return std::any_of(windows_.begin(), windows_.end(), [&](const Window& w) {
      return ((w.a == a && w.b == b) || (w.a == b && w.b == a)) &&
             now >= w.from && now < w.until;
    });
  }

 private:
  std::vector<Window> windows_;
};

/// Counters for faults actually injected (as opposed to planned); the chaos
/// harness checks these against the runtime's recovery counters.
struct FaultStats {
  std::uint64_t pe_halts = 0;
  std::uint64_t bus_lost = 0;
  std::uint64_t bus_duplicated = 0;
  std::uint64_t bus_delayed = 0;
  std::uint64_t heap_denials = 0;
  std::uint64_t disk_errors = 0;
  std::uint64_t bus_partition_drops = 0;
  std::uint64_t pe_recoveries = 0;
};

/// Runtime interpreter for a FaultPlan. Owns the dedicated random streams
/// (one per fault family, so e.g. adding disk traffic never perturbs the bus
/// fault sequence) and remembers which PEs have been halted.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan),
        bus_rng_(mix(plan.seed, 0xb5u)),
        disk_rng_(mix(plan.seed, 0xd15cu)) {
    std::vector<PartitionIndex::Window> windows;
    windows.reserve(plan_.bus_partitions.size());
    for (const auto& p : plan_.bus_partitions) {
      windows.push_back({p.cluster_a, p.cluster_b, p.from, p.until});
    }
    partition_index_ = PartitionIndex(std::move(windows));
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Draw the verdict for one bus transfer (exactly one draw per call).
  [[nodiscard]] BusFault next_bus_fault();

  /// Draw whether one disk transfer fails.
  [[nodiscard]] bool next_disk_error();

  void mark_halted(int pe) {
    if (halted_.insert(pe).second) ++stats_.pe_halts;
  }
  /// Clear the halted flag for a PE rejoining cold (fail-recovery family).
  void mark_recovered(int pe) {
    if (halted_.erase(pe) != 0) ++stats_.pe_recoveries;
  }
  [[nodiscard]] bool pe_halted(int pe) const { return halted_.count(pe) != 0; }

  /// Clock-stretch factor for COMPUTE on `pe` at tick `now` (1.0 = healthy).
  /// Sampled once at the start of each compute burst; overlapping windows
  /// multiply.
  [[nodiscard]] double slowdown_factor(int pe, sim::Tick now) const {
    double f = 1.0;
    for (const auto& s : plan_.pe_slowdowns) {
      if (s.pe == pe && now >= s.from && now < s.until) f *= s.factor;
    }
    return f;
  }

  /// True when a partition window currently separates the two *configured*
  /// clusters (the FaultPlan's cluster numbers).
  [[nodiscard]] bool partitioned(int cluster_a, int cluster_b,
                                 sim::Tick now) const {
    return partition_index_.active(cluster_a, cluster_b, now);
  }

  /// Bind the plan's partitions to backbone links of a non-shared topology:
  /// each window names a pair of *hardware* clusters whose backbone route is
  /// severed while active. The runtime derives these from the configured
  /// clusters' primary PEs at boot.
  void set_backbone_links(std::vector<PartitionIndex::Window> links) {
    backbone_index_ = PartitionIndex(std::move(links));
  }

  /// True when a partition window severs the backbone between the two
  /// hardware clusters at `now` (always false when no links are bound).
  [[nodiscard]] bool backbone_partitioned(int hw_a, int hw_b,
                                          sim::Tick now) const {
    return backbone_index_.active(hw_a, hw_b, now);
  }

  [[nodiscard]] FaultStats& stats() { return stats_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    // SplitMix64 finalizer over (seed, stream) so streams are decorrelated
    // even for adjacent seeds.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  FaultPlan plan_;
  sim::Rng bus_rng_;
  sim::Rng disk_rng_;
  PartitionIndex partition_index_;
  PartitionIndex backbone_index_;
  std::set<int> halted_;
  FaultStats stats_;
};

}  // namespace pisces::flex
