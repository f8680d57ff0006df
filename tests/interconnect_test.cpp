// Tests for the interconnect layer: shared-bus math identity,
// hierarchical/NUMA routing, the partition-window index, the raised machine
// limits, and the scaling properties the topology exists for — a spread
// workload on per-cluster buses beating the single shared bus, with
// tick-identical trajectories across the fiber and thread backends.
#include "flex/interconnect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "flex/fault.hpp"
#include "flex/machine.hpp"
#include "sim/random.hpp"

namespace pisces::flex {
namespace {

TopologySpec hier_spec(int pes_per_cluster = 16) {
  TopologySpec t;
  t.kind = Topology::hier;
  t.pes_per_cluster = pes_per_cluster;
  return t;
}

TopologySpec numa_spec(int pes_per_cluster = 16) {
  TopologySpec t = hier_spec(pes_per_cluster);
  t.kind = Topology::numa;
  return t;
}

TEST(TopologySpec, NamesRoundTrip) {
  for (Topology t : {Topology::shared, Topology::hier, Topology::numa}) {
    auto back = topology_from_name(topology_name(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(topology_from_name("mesh").has_value());
}

TEST(TopologySpec, ValidatesLimits) {
  EXPECT_TRUE(TopologySpec{}.validate(20).empty());
  EXPECT_TRUE(hier_spec().validate(kMaxPes).empty());  // 1024/16 = 64 clusters
  EXPECT_FALSE(hier_spec().validate(kMaxPes + 1).empty());
  EXPECT_FALSE(hier_spec(15).validate(kMaxPes).empty());  // 69 clusters > 64
  EXPECT_FALSE(hier_spec(0).validate(20).empty());
  TopologySpec bad = hier_spec();
  bad.backbone_access = -1;
  EXPECT_FALSE(bad.validate(20).empty());
}

TEST(TopologySpec, HwClusterCounts) {
  EXPECT_EQ(TopologySpec{}.hw_cluster_count(1024), 1);
  EXPECT_EQ(hier_spec(16).hw_cluster_count(128), 8);
  EXPECT_EQ(hier_spec(16).hw_cluster_count(20), 2);  // ragged tail cluster
}

// The default interconnect must reproduce the legacy single-bus arithmetic
// exactly — this is what keeps pre-topology configurations bit-identical.
TEST(Interconnect, SharedMatchesLegacyBusMath) {
  CostModel costs;
  auto ic = make_interconnect(TopologySpec{}, 20, costs);
  Bus legacy;
  auto duration = [&](sim::Tick words) {
    return costs.shared_access + words * costs.bus_per_word;
  };
  EXPECT_EQ(ic->access(0, 3, 25), legacy.transfer(0, duration(25)));
  EXPECT_EQ(ic->transfer(0, 3, 19, 1), legacy.transfer(0, duration(1)));
  EXPECT_EQ(ic->access(10, 19, 7), legacy.transfer(10, duration(7)));
  EXPECT_EQ(ic->bus_count(), 1u);
  EXPECT_EQ(ic->bus_at(0).busy_ticks(), legacy.busy_ticks());
  EXPECT_EQ(ic->bus_at(0).wait_ticks(), legacy.wait_ticks());
  EXPECT_EQ(ic->bus_at(0).transfers(), legacy.transfers());
  EXPECT_FALSE(ic->crosses_backbone(3, 19));
}

TEST(Interconnect, HierIntraClusterNeverTouchesBackbone) {
  CostModel costs;
  auto ic = make_interconnect(hier_spec(16), 128, costs);
  ASSERT_EQ(ic->cluster_count(), 8);
  ASSERT_EQ(ic->bus_count(), 9u);  // 8 cluster buses + backbone
  EXPECT_EQ(ic->cluster_of(1), 0);
  EXPECT_EQ(ic->cluster_of(16), 0);
  EXPECT_EQ(ic->cluster_of(17), 1);
  EXPECT_EQ(ic->cluster_of(128), 7);
  // A burst of intra-cluster transfers in every cluster: the backbone
  // stays idle, and each cluster bus only serializes its own traffic.
  for (int c = 0; c < 8; ++c) {
    const int lo = 16 * c + 1;
    (void)ic->transfer(0, lo, lo + 5, 10);
    (void)ic->transfer(0, lo + 1, lo + 2, 10);
  }
  const Bus& backbone = ic->bus_at(8);
  EXPECT_EQ(backbone.transfers(), 0u);
  EXPECT_EQ(backbone.busy_ticks(), 0);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(ic->bus_at(static_cast<std::size_t>(c)).transfers(), 2u);
    // Second transfer queued only behind its own cluster's first.
    EXPECT_EQ(ic->bus_at(static_cast<std::size_t>(c)).wait_ticks(),
              costs.shared_access + 10 * costs.bus_per_word);
  }
}

TEST(Interconnect, HierCrossClusterStoreAndForwards) {
  CostModel costs;
  TopologySpec t = hier_spec(16);
  auto ic = make_interconnect(t, 128, costs);
  const sim::Tick words = 10;
  const sim::Tick local = costs.shared_access + words * costs.bus_per_word;
  const sim::Tick backbone = t.backbone_access + words * t.backbone_per_word;
  // PE 3 (cluster 0) -> PE 20 (cluster 1): source bus, backbone, dest bus.
  EXPECT_EQ(ic->transfer(0, 3, 20, words), local + backbone + local);
  EXPECT_EQ(ic->bus_at(0).transfers(), 1u);
  EXPECT_EQ(ic->bus_at(1).transfers(), 1u);
  EXPECT_EQ(ic->bus_at(8).transfers(), 1u);
  EXPECT_TRUE(ic->crosses_backbone(3, 20));
  EXPECT_FALSE(ic->crosses_backbone(3, 16));
}

TEST(Interconnect, NumaChargesPerHopWordCosts) {
  CostModel costs;
  TopologySpec t = numa_spec(16);
  t.numa_hop_per_word = 3;
  auto ic = make_interconnect(t, 128, costs);
  const sim::Tick words = 10;
  const sim::Tick local = costs.shared_access + words * costs.bus_per_word;
  // One hop (cluster 0 -> 1) vs seven hops (cluster 0 -> 7): the backbone
  // leg grows with cluster distance, the cluster-bus legs do not.
  const sim::Tick one_hop = ic->transfer(0, 3, 20, words);
  EXPECT_EQ(one_hop, local + (t.backbone_access +
                              words * (t.backbone_per_word + 3)) +
                         local);
  auto far = make_interconnect(t, 128, costs);
  const sim::Tick seven_hops = far->transfer(0, 3, 128, words);
  EXPECT_EQ(seven_hops, local + (t.backbone_access +
                                 words * (t.backbone_per_word + 7 * 3)) +
                            local);
  EXPECT_GT(seven_hops, one_hop);
}

TEST(Interconnect, StallAndFaultRouteToTheLink) {
  CostModel costs;
  auto ic = make_interconnect(hier_spec(16), 64, costs);
  // Intra-cluster stall holds the cluster bus; cross-cluster holds the
  // backbone; faulted transfers are attributed the same way.
  ic->stall(0, 3, 10, 100);
  EXPECT_EQ(ic->bus_at(0).busy_ticks(), 100);
  EXPECT_EQ(ic->bus_at(4).busy_ticks(), 0);  // backbone untouched
  ic->stall(0, 3, 40, 100);
  EXPECT_EQ(ic->bus_at(4).busy_ticks(), 100);
  ic->note_faulted(3, 10);
  ic->note_faulted(3, 40);
  EXPECT_EQ(ic->bus_at(0).faulted_transfers(), 2u);  // stall also counts one
  EXPECT_EQ(ic->bus_at(4).faulted_transfers(), 2u);
}

// `shared` is the one-cluster case of the bus hierarchy: a hier machine
// whose single hardware cluster holds every PE bills a seeded mix of
// accesses, transfers, stalls and faults exactly as the shared bus does,
// and its backbone never carries anything.
TEST(Interconnect, OneHardwareClusterBillsLikeShared) {
  CostModel costs;
  auto shared = make_interconnect(TopologySpec{}, 16, costs);
  auto one = make_interconnect(hier_spec(16), 16, costs);
  ASSERT_EQ(one->cluster_count(), 1);
  ASSERT_EQ(one->bus_count(), 2u);  // the cluster bus + an idle backbone
  sim::Rng rng(2027);
  sim::Tick now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<sim::Tick>(rng.below(40));
    const int from = static_cast<int>(rng.below(17));  // 0 = environment
    const int to = static_cast<int>(rng.below(17));
    const auto words = static_cast<sim::Tick>(rng.below(64));
    switch (rng.below(4)) {
      case 0:
        ASSERT_EQ(shared->access(now, from, words), one->access(now, from, words));
        break;
      case 1:
        ASSERT_EQ(shared->transfer(now, from, to, words),
                  one->transfer(now, from, to, words));
        break;
      case 2:
        shared->stall(now, from, to, words);
        one->stall(now, from, to, words);
        break;
      default:
        shared->note_faulted(from, to);
        one->note_faulted(from, to);
        break;
    }
    ASSERT_FALSE(one->crosses_backbone(from, to));
  }
  EXPECT_EQ(shared->bus_at(0).busy_until(), one->bus_at(0).busy_until());
  EXPECT_EQ(shared->bus_at(0).busy_ticks(), one->bus_at(0).busy_ticks());
  EXPECT_EQ(shared->bus_at(0).wait_ticks(), one->bus_at(0).wait_ticks());
  EXPECT_EQ(shared->bus_at(0).transfers(), one->bus_at(0).transfers());
  EXPECT_EQ(shared->bus_at(0).faulted_transfers(),
            one->bus_at(0).faulted_transfers());
  EXPECT_GT(one->bus_at(0).wait_ticks(), 0);  // the mix really contended
  const Bus& backbone = one->bus_at(1);
  EXPECT_EQ(backbone.busy_ticks(), 0);
  EXPECT_EQ(backbone.wait_ticks(), 0);
  EXPECT_EQ(backbone.transfers(), 0u);
  EXPECT_EQ(backbone.faulted_transfers(), 0u);
}

TEST(Machine, AcceptsUpToMaxPesAndRejectsBeyond) {
  sim::Engine eng;
  MachineSpec spec;
  spec.pe_count = kMaxPes;
  spec.topology = hier_spec(16);
  Machine big(eng, spec);
  EXPECT_EQ(big.pe_count(), kMaxPes);
  EXPECT_EQ(big.interconnect().cluster_count(), kMaxHwClusters);
  spec.pe_count = kMaxPes + 1;
  EXPECT_THROW(Machine(eng, spec), std::invalid_argument);
}

TEST(Machine, ConfigureTopologyRebuildsInterconnect) {
  sim::Engine eng;
  MachineSpec spec;
  spec.pe_count = 64;
  Machine m(eng, spec);
  EXPECT_EQ(m.interconnect().kind(), Topology::shared);
  m.configure_topology(hier_spec(16));
  EXPECT_EQ(m.interconnect().kind(), Topology::hier);
  EXPECT_EQ(m.interconnect().cluster_count(), 4);
  EXPECT_EQ(m.spec().topology.kind, Topology::hier);
  // message_transfer now routes across the backbone.
  (void)m.message_transfer(0, 40, 3, 60);
  EXPECT_EQ(m.interconnect().bus_at(4).transfers(), 1u);
  EXPECT_THROW(m.configure_topology(hier_spec(0)), std::invalid_argument);
}

// ---- partition-window index ------------------------------------------

TEST(PartitionIndex, MatchesBruteForceUnderRandomQueries) {
  sim::Rng rng(2026);
  std::vector<PartitionIndex::Window> windows;
  for (int i = 0; i < 200; ++i) {
    const int a = 1 + static_cast<int>(rng.below(6));
    const int b = 1 + static_cast<int>(rng.below(6));
    const sim::Tick from = static_cast<sim::Tick>(rng.below(100'000));
    windows.push_back({a, b, from,
                       from + 1 + static_cast<sim::Tick>(rng.below(20'000))});
  }
  PartitionIndex index(windows);
  auto brute = [&windows](int a, int b, sim::Tick now) {
    return std::any_of(windows.begin(), windows.end(), [&](const auto& w) {
      const bool pair = (w.a == a && w.b == b) || (w.a == b && w.b == a);
      return pair && now >= w.from && now < w.until;
    });
  };
  // Mostly-monotonic queries with occasional jumps back in time, like
  // tests replaying earlier ticks.
  sim::Tick now = 0;
  for (int q = 0; q < 3000; ++q) {
    if (rng.below(10) == 0) {
      now = static_cast<sim::Tick>(rng.below(140'000));  // rewind or jump
    } else {
      now += static_cast<sim::Tick>(rng.below(200));
    }
    const int a = 1 + static_cast<int>(rng.below(6));
    const int b = 1 + static_cast<int>(rng.below(6));
    ASSERT_EQ(index.active(a, b, now), brute(a, b, now))
        << "a=" << a << " b=" << b << " now=" << now;
  }
}

TEST(PartitionIndex, QuietAfterAllWindowsExpire) {
  std::vector<PartitionIndex::Window> windows;
  for (int i = 0; i < 1000; ++i) {
    windows.push_back({1, 2, static_cast<sim::Tick>(i),
                       static_cast<sim::Tick>(i + 10)});
  }
  PartitionIndex index(windows);
  EXPECT_TRUE(index.active(1, 2, 500));
  // Past every window, no pair is cut off.
  EXPECT_FALSE(index.active(1, 2, 2'000));
  EXPECT_FALSE(index.active(2, 1, 2'001));
  // Earlier ticks still answer as before, whatever was asked in between.
  EXPECT_TRUE(index.active(2, 1, 500));
  EXPECT_FALSE(index.active(1, 3, 500));
}

TEST(FaultInjector, BackboneLinksAnswerIndependentlyOfConfigClusters) {
  FaultPlan plan;
  plan.bus_partitions.push_back({1, 2, 100, 200});
  FaultInjector fi(plan);
  // Config-cluster view (shared topology).
  EXPECT_TRUE(fi.partitioned(1, 2, 150));
  EXPECT_TRUE(fi.partitioned(2, 1, 150));
  EXPECT_FALSE(fi.partitioned(1, 2, 200));
  // No backbone links bound: hardware-cluster queries say no.
  EXPECT_FALSE(fi.backbone_partitioned(0, 1, 150));
  fi.set_backbone_links({{0, 3, 100, 200}});
  EXPECT_TRUE(fi.backbone_partitioned(0, 3, 150));
  EXPECT_TRUE(fi.backbone_partitioned(3, 0, 199));
  EXPECT_FALSE(fi.backbone_partitioned(0, 1, 150));
  EXPECT_FALSE(fi.backbone_partitioned(0, 3, 99));
}

// ---- scaling: the reason the layer exists ----------------------------

/// Spread ping-pong workload: `n_clusters` configured clusters, primaries
/// spread across the whole PE range so hardware clusters are all used. Each
/// cluster's driver ping-pongs a ~2 KB payload with an echo task placed in
/// the same cluster, so all traffic is intra-cluster: per-cluster buses
/// carry it in parallel while the single shared bus serializes everything.
struct ScalingResult {
  sim::Tick end_tick = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t messages_sent = 0;
  bool timed_out = false;
  int pongs = 0;
  sim::Tick total_wait = 0;
  sim::Tick backbone_transfers = 0;
  std::vector<std::tuple<sim::Tick, sim::Tick, std::uint64_t, std::uint64_t>>
      per_bus;  // busy, wait, transfers, faulted

  [[nodiscard]] auto key() const {
    return std::tuple(end_tick, events_fired, messages_sent, pongs, total_wait,
                      per_bus);
  }
};

ScalingResult scaling_run(int pe_count, Topology kind, sim::Backend backend,
                          int n_clusters, int rounds) {
  sim::Engine eng(backend);
  MachineSpec spec;
  spec.pe_count = pe_count;
  if (kind != Topology::shared) spec.topology = hier_spec(16);
  spec.topology.kind = kind;
  Machine machine(eng, spec);
  mmos::System sys{machine};
  config::Configuration cfg;
  cfg.name = "scaling";
  for (int i = 0; i < n_clusters; ++i) {
    config::ClusterConfig c;
    c.number = i + 1;
    // Spread primaries over the full MMOS range so every hardware cluster
    // hosts some of them (consecutive PEs would pile into hw cluster 0).
    c.primary_pe = 3 + (i * (pe_count - 3)) / n_clusters;
    c.slots = 4;
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(std::move(c));
  }
  cfg.time_limit = 2'000'000'000;
  rt::Runtime rt(sys, std::move(cfg));

  ScalingResult out;
  const std::vector<double> payload(256, 1.5);  // ~2 KB per message
  rt.register_tasktype("echo", [rounds](rt::TaskContext& ctx) {
    ctx.on_message("ping", [](rt::TaskContext& c, const rt::Message& m) {
      c.send(rt::Dest::Sender(), "pong", {m.args.at(0)});
    });
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    ctx.accept(rt::AcceptSpec{}.of("ping", rounds).delay_for(1'500'000'000));
  });
  rt.register_tasktype("driver", [&out, rounds, &payload](rt::TaskContext& ctx) {
    rt::TaskId kid{};
    ctx.on_message("hello", [&kid](rt::TaskContext&, const rt::Message& m) {
      kid = m.args.at(0).as_taskid();
    });
    ctx.on_message("pong",
                   [&out](rt::TaskContext&, const rt::Message&) { ++out.pongs; });
    ctx.initiate(rt::Where::Same(), "echo");
    ctx.accept(rt::AcceptSpec{}.of("hello").delay_for(1'500'000'000));
    for (int r = 0; r < rounds; ++r) {
      ctx.send(rt::Dest::To(kid), "ping", {rt::Value(payload)});
      ctx.accept(rt::AcceptSpec{}.of("pong").delay_for(1'500'000'000));
    }
  });
  rt.boot();
  for (int i = 0; i < n_clusters; ++i) rt.user_initiate(i + 1, "driver");
  out.end_tick = rt.run();
  out.events_fired = eng.events_fired();
  out.messages_sent = rt.stats().messages_sent;
  out.timed_out = rt.timed_out();
  const Interconnect& ic = machine.interconnect();
  for (std::size_t i = 0; i < ic.bus_count(); ++i) {
    const Bus& b = ic.bus_at(i);
    out.per_bus.emplace_back(b.busy_ticks(), b.wait_ticks(), b.transfers(),
                             b.faulted_transfers());
    out.total_wait += b.wait_ticks();
  }
  if (ic.kind() != Topology::shared) {
    out.backbone_transfers = static_cast<sim::Tick>(
        ic.bus_at(ic.bus_count() - 1).transfers());
  }
  return out;
}

// The tentpole's headline: at 128 PEs a spread workload on the hierarchical
// interconnect completes in fewer ticks than on the single shared bus, and
// the difference is contention (wait ticks), not workload.
TEST(InterconnectScaling, HierBeatsSharedAt128Pes) {
  const ScalingResult shared =
      scaling_run(128, Topology::shared, sim::Backend::fibers, 16, 6);
  const ScalingResult hier =
      scaling_run(128, Topology::hier, sim::Backend::fibers, 16, 6);
  ASSERT_FALSE(shared.timed_out);
  ASSERT_FALSE(hier.timed_out);
  ASSERT_EQ(shared.pongs, 16 * 6);
  ASSERT_EQ(hier.pongs, 16 * 6);
  EXPECT_LT(hier.end_tick, shared.end_tick);
  EXPECT_LT(hier.total_wait, shared.total_wait);
  // Every cluster bus saw traffic (primaries are spread over the machine),
  // and the backbone carried only the per-cluster _INITIATE setup messages
  // — a small fraction of the payload traffic the shared bus serialized.
  std::uint64_t cluster_transfers = 0;
  for (std::size_t i = 0; i + 1 < hier.per_bus.size(); ++i) {
    EXPECT_GT(std::get<2>(hier.per_bus[i]), 0u) << "cluster bus " << i;
    cluster_transfers += std::get<2>(hier.per_bus[i]);
  }
  EXPECT_LT(static_cast<std::uint64_t>(hier.backbone_transfers),
            cluster_transfers / 4);
}

// Cross-backend tick-identity at 256 PEs hierarchical: the determinism gate
// that already covers fibers vs threads at 20 PEs must hold at scale.
TEST(InterconnectScaling, CrossBackendTickIdentityAt256PesHier) {
  const ScalingResult fibers =
      scaling_run(256, Topology::hier, sim::Backend::fibers, 32, 3);
  const ScalingResult threads =
      scaling_run(256, Topology::hier, sim::Backend::threads, 32, 3);
  ASSERT_FALSE(fibers.timed_out);
  ASSERT_EQ(fibers.pongs, 32 * 3);
  EXPECT_EQ(fibers.key(), threads.key());
}

TEST(InterconnectScaling, NumaRunsAndChargesMoreForFarTraffic) {
  // Same workload, numa topology: the intra-cluster ping-pong pays no hop
  // costs, but the cross-backbone _INITIATE setup does, so the run completes
  // all work no earlier than hier and never times out.
  const ScalingResult hier =
      scaling_run(64, Topology::hier, sim::Backend::fibers, 8, 3);
  const ScalingResult numa =
      scaling_run(64, Topology::numa, sim::Backend::fibers, 8, 3);
  ASSERT_FALSE(numa.timed_out);
  EXPECT_GE(numa.end_tick, hier.end_tick);
  EXPECT_EQ(numa.pongs, hier.pongs);
}

}  // namespace
}  // namespace pisces::flex
