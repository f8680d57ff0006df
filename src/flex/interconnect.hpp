#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flex/bus.hpp"
#include "flex/cost_model.hpp"
#include "sim/time.hpp"

namespace pisces::flex {

/// Hard machine-model ceilings. The paper's FLEX/32 stops at 20 PEs on one
/// shared bus; the hierarchical interconnect raises the model to 1024 PEs in
/// up to 64 hardware clusters (per-cluster buses bridged by a backbone).
inline constexpr int kMaxPes = 1024;
inline constexpr int kMaxHwClusters = 64;

/// Which interconnect joins the PEs to shared memory and to each other.
enum class Topology {
  shared,  ///< one FIFO bus, the paper's FLEX/32 (default)
  hier,    ///< one bus per hardware cluster, bridged by a backbone bus
  numa,    ///< hier, plus per-hop word costs growing with cluster distance
};

[[nodiscard]] const char* topology_name(Topology t);
[[nodiscard]] std::optional<Topology> topology_from_name(const std::string& name);

/// Static description of the interconnect, saved with configurations
/// (`topology` token) and validated against the machine size. All costs are
/// ticks; the per-word charges stack on top of the CostModel's shared-memory
/// costs only for the buses a transfer actually crosses.
struct TopologySpec {
  Topology kind = Topology::shared;
  /// hier/numa: PEs per hardware cluster bus (cluster of PE p = (p-1)/this).
  int pes_per_cluster = 16;
  /// hier/numa: fixed latency of one backbone crossing.
  sim::Tick backbone_access = 6;
  /// hier/numa: backbone occupancy per 32-bit word moved.
  sim::Tick backbone_per_word = 2;
  /// numa: extra per-word cost for each hop of hardware-cluster distance
  /// (|cluster(from) - cluster(to)| hops, so far-apart clusters pay more).
  sim::Tick numa_hop_per_word = 1;

  bool operator==(const TopologySpec&) const = default;

  /// Human-readable problems for a machine of `pe_count` PEs; empty when OK.
  [[nodiscard]] std::vector<std::string> validate(int pe_count) const;
  /// Hardware clusters this spec carves `pe_count` PEs into (1 for shared).
  [[nodiscard]] int hw_cluster_count(int pe_count) const;
};

/// The interconnect joining the PEs to shared memory and to each other.
/// Every transfer-billing path of the simulated machine (message sends,
/// window copies, broadcast relay hops, force collective signals, fault
/// stalls) bills its buses. The PEs fall into hardware clusters, each on one
/// bus: `hier` and `numa` join the cluster buses with a backbone bus, and
/// `shared`, the paper's FLEX/32, is the one-cluster case with no backbone.
///
/// Every bus keeps the Bus FIFO-resource semantics: a transfer occupies each
/// bus on its route in sequence (store-and-forward), and transfers issued
/// while a bus is busy queue behind it.
class Interconnect {
 public:
  Interconnect(TopologySpec spec, int pe_count, const CostModel& costs);
  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] Topology kind() const { return spec_.kind; }

  /// Hardware cluster of a PE (0-based; 0 for every PE under `shared`).
  /// Out-of-range PEs (0 = "environment", no home PE) clamp into range.
  [[nodiscard]] int cluster_of(int pe) const {
    if (pe < 1 || clusters_ == 1) return 0;
    return std::min((pe - 1) / spec_.pes_per_cluster, clusters_ - 1);
  }
  [[nodiscard]] int cluster_count() const { return clusters_; }

  /// True when a from->to transfer must cross the backbone (never for
  /// `shared`; the partition fault family windows exactly these routes).
  [[nodiscard]] bool crosses_backbone(int from_pe, int to_pe) const {
    return cluster_of(from_pe) != cluster_of(to_pe);
  }

  /// One-endpoint shared-memory access by `pe` (heap writes, force flag
  /// publishes, window pulls): bills `pe`'s own cluster bus only. Returns
  /// the completion tick.
  sim::Tick access(sim::Tick now, int pe, sim::Tick words) {
    return cluster_bus(pe).transfer(now, local_duration(words));
  }

  /// PE-to-PE transfer of `words`: bills every bus on the route (source
  /// cluster bus, then backbone, then destination cluster bus when the
  /// endpoints live in different hardware clusters). Returns the completion
  /// tick of the last hop.
  sim::Tick transfer(sim::Tick now, int from_pe, int to_pe, sim::Tick words);

  /// Occupy the contended link of the from->to route for `duration` ticks
  /// without counting a transfer (fault injection: a stalled/retried
  /// transfer holding the link).
  void stall(sim::Tick now, int from_pe, int to_pe, sim::Tick duration) {
    link(from_pe, to_pe).stall(now, duration);
  }

  /// Record a transfer corrupted by fault injection on the from->to link.
  void note_faulted(int from_pe, int to_pe) { link(from_pe, to_pe).note_faulted(); }

  // ---- per-bus statistics (organization display, benches, tests) ----
  [[nodiscard]] std::size_t bus_count() const { return buses_.size(); }
  [[nodiscard]] const Bus& bus_at(std::size_t i) const { return buses_[i]; }
  [[nodiscard]] const std::string& bus_label(std::size_t i) const {
    return labels_[i];
  }

  /// Aggregate counters over every bus (the pre-topology "the bus" view).
  struct Totals {
    sim::Tick busy_ticks = 0;
    sim::Tick wait_ticks = 0;
    std::uint64_t transfers = 0;
    std::uint64_t faulted_transfers = 0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  [[nodiscard]] Bus& cluster_bus(int pe) {
    return buses_[static_cast<std::size_t>(cluster_of(pe))];
  }
  /// The bus a fault on the from->to route is charged to: the backbone (the
  /// last bus) for a cross-cluster route, the source cluster's bus otherwise.
  [[nodiscard]] Bus& link(int from_pe, int to_pe) {
    return crosses_backbone(from_pe, to_pe) ? buses_.back() : cluster_bus(from_pe);
  }
  /// Duration of one local (cluster-bus) transfer leg.
  [[nodiscard]] sim::Tick local_duration(sim::Tick words) const {
    return costs_->shared_access + words * costs_->bus_per_word;
  }

  TopologySpec spec_;
  const CostModel* costs_;
  int clusters_;
  std::vector<Bus> buses_;
  std::vector<std::string> labels_;
};

/// Build the interconnect described by `spec` for a machine of `pe_count`
/// PEs. Throws std::invalid_argument when the spec does not validate.
/// `costs` must outlive the returned interconnect.
[[nodiscard]] std::unique_ptr<Interconnect> make_interconnect(
    const TopologySpec& spec, int pe_count, const CostModel& costs);

}  // namespace pisces::flex
