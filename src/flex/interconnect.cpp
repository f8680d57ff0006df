#include "flex/interconnect.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace pisces::flex {

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::shared: return "shared";
    case Topology::hier: return "hier";
    case Topology::numa: return "numa";
  }
  return "?";
}

std::optional<Topology> topology_from_name(const std::string& name) {
  if (name == "shared") return Topology::shared;
  if (name == "hier") return Topology::hier;
  if (name == "numa") return Topology::numa;
  return std::nullopt;
}

int TopologySpec::hw_cluster_count(int pe_count) const {
  if (kind == Topology::shared || pes_per_cluster < 1) return 1;
  return (pe_count + pes_per_cluster - 1) / pes_per_cluster;
}

std::vector<std::string> TopologySpec::validate(int pe_count) const {
  std::vector<std::string> problems;
  if (pe_count < 1 || pe_count > kMaxPes) {
    problems.push_back("pe count " + std::to_string(pe_count) +
                       " outside 1.." + std::to_string(kMaxPes));
  }
  if (kind == Topology::shared) return problems;
  if (pes_per_cluster < 1) {
    problems.push_back("pes-per-cluster must be >= 1 (got " +
                       std::to_string(pes_per_cluster) + ")");
  } else if (hw_cluster_count(pe_count) > kMaxHwClusters) {
    problems.push_back(std::to_string(pe_count) + " PEs at " +
                       std::to_string(pes_per_cluster) +
                       " per cluster gives " +
                       std::to_string(hw_cluster_count(pe_count)) +
                       " hardware clusters (max " +
                       std::to_string(kMaxHwClusters) + ")");
  }
  if (backbone_access < 0) problems.push_back("backbone-access must be >= 0");
  if (backbone_per_word < 0) problems.push_back("backbone-per-word must be >= 0");
  if (kind == Topology::numa && numa_hop_per_word < 0) {
    problems.push_back("hop-per-word must be >= 0");
  }
  return problems;
}

Interconnect::Interconnect(TopologySpec spec, int pe_count, const CostModel& costs)
    : spec_(spec), costs_(&costs), clusters_(spec.hw_cluster_count(pe_count)) {
  if (spec_.kind == Topology::shared) {
    labels_.push_back("shared bus");
  } else {
    for (int c = 0; c < clusters_; ++c) {
      const int lo = c * spec_.pes_per_cluster + 1;
      const int hi = std::min((c + 1) * spec_.pes_per_cluster, pe_count);
      labels_.push_back("cluster " + std::to_string(c) + " bus (PEs " +
                        std::to_string(lo) + "-" + std::to_string(hi) + ")");
    }
    labels_.push_back("backbone bus");
  }
  buses_.resize(labels_.size());
}

sim::Tick Interconnect::transfer(sim::Tick now, int from_pe, int to_pe,
                                 sim::Tick words) {
  const int cf = cluster_of(from_pe);
  const int ct = cluster_of(to_pe);
  const sim::Tick local = local_duration(words);
  const sim::Tick t1 = buses_[static_cast<std::size_t>(cf)].transfer(now, local);
  if (cf == ct) return t1;
  // numa scales the backbone's per-word cost with the cluster distance,
  // modelling tiered NUMA links.
  sim::Tick per_word = spec_.backbone_per_word;
  if (spec_.kind == Topology::numa) {
    per_word += static_cast<sim::Tick>(std::abs(cf - ct)) * spec_.numa_hop_per_word;
  }
  const sim::Tick t2 =
      buses_.back().transfer(t1, spec_.backbone_access + words * per_word);
  return buses_[static_cast<std::size_t>(ct)].transfer(t2, local);
}

Interconnect::Totals Interconnect::totals() const {
  Totals t;
  for (const auto& b : buses_) {
    t.busy_ticks += b.busy_ticks();
    t.wait_ticks += b.wait_ticks();
    t.transfers += b.transfers();
    t.faulted_transfers += b.faulted_transfers();
  }
  return t;
}

std::unique_ptr<Interconnect> make_interconnect(const TopologySpec& spec,
                                                int pe_count,
                                                const CostModel& costs) {
  auto problems = spec.validate(pe_count);
  if (!problems.empty()) {
    std::string msg = "invalid topology:";
    for (const auto& p : problems) msg += " " + p + ";";
    throw std::invalid_argument(msg);
  }
  return std::make_unique<Interconnect>(spec, pe_count, costs);
}

}  // namespace pisces::flex
