// E10 (extension) — the simulation substrate itself. Every other bench and
// every tier-1 test runs on sim::Engine, which multiplexes simulated
// processes either as fibers or as host threads. This bench proves the two
// backends produce tick-identical simulations (a 20-PE many-task run) and
// measures interconnect scaling: a spread ping-pong at 32-1024 PEs on the
// shared bus and on per-cluster buses.
// Every number is a simulated tick or count, written to BENCH_engine.json
// (override with --json=PATH). Host-time measurements live in perfbench/.

#include "common.hpp"
#include "flex/interconnect.hpp"

using namespace pisces;
using namespace pisces::bench;

namespace {

const char* backend_name(sim::Backend b) {
  return b == sim::Backend::fibers ? "fibers" : "threads";
}

struct EndToEnd {
  sim::Tick final_tick = 0;
  std::uint64_t events = 0;
};

/// 20-PE end-to-end: the Section 9 machine (clusters 1-4 on PEs 3-6, force
/// PEs 7-20) churning through waves of short-lived worker tasks — the
/// dynamic-task pattern that stresses spawn, handoff, and reaping at once.
EndToEnd end_to_end_20pe(sim::Backend backend, int waves = 8,
                         int workers_per_wave = 12) {
  Sim sim(config::Configuration::section9_example(), backend);
  sim.rt().register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.compute(10'000 * (1 + ctx.self().slot % 5));
    ctx.send(rt::Dest::Parent(), "done");
  });
  run_main(sim, [&](rt::TaskContext& ctx) {
    for (int w = 0; w < waves; ++w) {
      for (int i = 0; i < workers_per_wave; ++i) {
        ctx.initiate(rt::Where::Cluster(1 + i % 4), "worker");
      }
      int done = 0;
      while (done < workers_per_wave) {
        auto res = ctx.accept(rt::AcceptSpec{}.of("done", 4).forever());
        done += res.count("done");
      }
    }
  });
  return {sim.engine.now(), sim.engine.events_fired()};
}

void end_to_end_table(Report& report) {
  banner("E10b: 20-PE end-to-end task churn (Section 9 machine, 96 tasks)");
  Table t({"backend", "final tick", "events"});
  report.section("end_to_end_20pe");
  EndToEnd results[2];
  for (auto backend : {sim::Backend::fibers, sim::Backend::threads}) {
    EndToEnd& r = results[backend == sim::Backend::fibers ? 0 : 1];
    r = end_to_end_20pe(backend);
    t.row(backend_name(backend), r.final_tick, r.events);
    report.row()
        .field("backend", backend_name(backend))
        .field("final_tick", r.final_tick)
        .field("events_fired", r.events);
  }
  const bool identical = results[0].final_tick == results[1].final_tick &&
                         results[0].events == results[1].events;
  report.section("cross_backend_tick_identity");
  report.row().field("scenario", "end_to_end_20pe").field("identical", identical);
  report.claim(identical, "E10b: both backends run the same tick trajectory");
  note(identical
           ? "tick trajectories identical across backends (determinism holds)"
           : "WARNING: backends disagree on tick trajectory!");
}

// ---------------------------------------------------------------------------
// E10c — interconnect scaling: the reason the topology layer exists. A
// spread ping-pong workload (one driver/echo pair per configured cluster,
// primaries spread over the whole PE range, ~2 KB payloads) keeps all
// payload traffic intra-cluster: per-cluster buses carry it in parallel
// under `hier`, while the single shared bus serializes everything.
// ---------------------------------------------------------------------------

struct ScalePoint {
  sim::Tick done_tick = 0;  // tick of the last pong (stale accept timers
                            // park the engine clock at the delay horizon,
                            // so rt.run()'s return value is not the metric)
  sim::Tick sum_wait = 0;
  sim::Tick max_bus_wait = 0;
  std::size_t buses = 0;
  bool ok = false;
};

ScalePoint interconnect_scale_run(int pe_count, flex::Topology kind,
                                  sim::Backend backend) {
  sim::Engine eng(backend);
  flex::MachineSpec mspec;
  mspec.pe_count = pe_count;
  if (kind != flex::Topology::shared) {
    mspec.topology.kind = kind;
    mspec.topology.pes_per_cluster = 16;
  }
  flex::Machine machine(eng, mspec);
  mmos::System sys{machine};
  config::Configuration cfg;
  cfg.name = "interconnect-scaling";
  const int n_clusters = pe_count / 8;
  for (int i = 0; i < n_clusters; ++i) {
    config::ClusterConfig c;
    c.number = i + 1;
    c.primary_pe = 3 + (i * (pe_count - 3)) / n_clusters;
    c.slots = 4;
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(std::move(c));
  }
  cfg.time_limit = 20'000'000'000;
  rt::Runtime rt(sys, std::move(cfg));

  constexpr int kRounds = 4;
  int pongs = 0;
  sim::Tick last_pong = 0;
  const std::vector<double> payload(256, 1.5);  // ~2 KB per message
  rt.register_tasktype("echo", [](rt::TaskContext& ctx) {
    ctx.on_message("ping", [](rt::TaskContext& c, const rt::Message& m) {
      c.send(rt::Dest::Sender(), "pong", {m.args.at(0)});
    });
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    ctx.accept(rt::AcceptSpec{}.of("ping", kRounds).delay_for(15'000'000'000));
  });
  rt.register_tasktype("driver", [&pongs, &payload, &last_pong,
                                  &eng](rt::TaskContext& ctx) {
    rt::TaskId kid{};
    ctx.on_message("hello", [&kid](rt::TaskContext&, const rt::Message& m) {
      kid = m.args.at(0).as_taskid();
    });
    ctx.on_message("pong", [&pongs, &last_pong, &eng](rt::TaskContext&,
                                                      const rt::Message&) {
      ++pongs;
      last_pong = std::max(last_pong, eng.now());
    });
    ctx.initiate(rt::Where::Same(), "echo");
    ctx.accept(rt::AcceptSpec{}.of("hello").delay_for(15'000'000'000));
    for (int r = 0; r < kRounds; ++r) {
      ctx.send(rt::Dest::To(kid), "ping", {rt::Value(payload)});
      ctx.accept(rt::AcceptSpec{}.of("pong").delay_for(15'000'000'000));
    }
  });
  rt.boot();
  for (int i = 0; i < n_clusters; ++i) rt.user_initiate(i + 1, "driver");
  ScalePoint out;
  rt.run();
  out.done_tick = last_pong;
  const flex::Interconnect& ic = machine.interconnect();
  out.buses = ic.bus_count();
  for (std::size_t i = 0; i < ic.bus_count(); ++i) {
    const sim::Tick w = ic.bus_at(i).wait_ticks();
    out.sum_wait += w;
    out.max_bus_wait = std::max(out.max_bus_wait, w);
  }
  out.ok = !rt.timed_out() && pongs == n_clusters * kRounds;
  return out;
}

void interconnect_scaling_table(Report& report) {
  banner("E10c: interconnect scaling — spread ping-pong, shared vs "
         "hierarchical (PEs on the x-axis)");
  Table t({"PEs", "topology", "done tick", "sum wait", "max bus wait",
           "buses"});
  report.section("interconnect_scaling");
  sim::Tick shared_tick_128 = 0;
  sim::Tick hier_tick_128 = 0;
  for (int pes : {32, 64, 128, 256, 512, 1024}) {
    for (auto kind : {flex::Topology::shared, flex::Topology::hier}) {
      const ScalePoint r =
          interconnect_scale_run(pes, kind, sim::default_backend());
      const char* name = flex::topology_name(kind);
      if (pes == 128 && kind == flex::Topology::shared) shared_tick_128 = r.done_tick;
      if (pes == 128 && kind == flex::Topology::hier) hier_tick_128 = r.done_tick;
      t.row(pes, name, r.done_tick, r.sum_wait, r.max_bus_wait, r.buses);
      report.row()
          .field("pes", pes)
          .field("topology", name)
          .field("done_tick", r.done_tick)
          .field("sum_wait_ticks", r.sum_wait)
          .field("max_bus_wait_ticks", r.max_bus_wait)
          .field("buses", r.buses)
          .field("completed", r.ok);
      report.claim(r.ok, "E10c: every ping-pong completes");
    }
  }
  // Truncated to hundredths, as the file has always recorded it.
  const double speedup =
      hier_tick_128 > 0
          ? static_cast<long>(100.0 * static_cast<double>(shared_tick_128) /
                              static_cast<double>(hier_tick_128)) /
                100.0
          : 0.0;
  report.row().field("hier_speedup_at_128_pes_x", speedup);
  report.claim(speedup > 1.0,
               "E10c: the hierarchical machine finishes sooner at 128 PEs");
  std::ostringstream msg;
  msg << "hierarchical completion-tick speedup at 128 PEs: " << speedup
      << "x (acceptance floor: >1x — per-cluster buses drain in parallel)";
  note(msg.str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = json_path(argc, argv, "BENCH_engine.json");
  std::cout << "PISCES 2 reproduction — E10: simulation-engine substrate "
               "(fiber vs thread scheduling, interconnect scaling)\n";
  Report report("pisces-bench-engine-v2",
                "simulated ticks and engine events (deterministic)");
  end_to_end_table(report);
  interconnect_scaling_table(report);
  return report.write(path);
}
