// E4 (extension) — message-passing performance on the simulated FLEX/32.
// The paper defines the mechanism (Sections 6, 11) but reports no timings
// ("No detailed timing measurements have yet been taken"); this bench takes
// them: one-way latency vs payload, throughput vs pipeline depth, and
// broadcast vs point-to-point cost. Every number is written to
// BENCH_messages.json (override with --json=PATH).
#include "common.hpp"
#include "session/supervisor.hpp"

using namespace pisces;
using namespace pisces::bench;

namespace {

/// One-way latency: ping-pong between two tasks on different clusters,
/// measured over 32 rounds (send -> accept at the peer), with `plan` armed.
sim::Tick one_way_latency(int payload_doubles, const flex::FaultPlan& plan = {}) {
  constexpr int kRounds = 32;
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.faults = plan;
  Sim sim(cfg);
  sim::Tick total = 0;
  sim.rt().register_tasktype("echo", [&](rt::TaskContext& ctx) {
    ctx.send(rt::Dest::Parent(), "ready");
    for (int i = 0; i < kRounds; ++i) {
      ctx.accept(rt::AcceptSpec{}.of("ping").forever());
      ctx.send(rt::Dest::Sender(), "pong",
               {rt::Value(std::vector<double>(
                   static_cast<std::size_t>(payload_doubles), 1.0))});
    }
  });
  run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Other(), "echo");
    ctx.accept(rt::AcceptSpec{}.of("ready").forever());
    const rt::TaskId peer = ctx.sender();
    const sim::Tick start = sim.engine.now();
    for (int i = 0; i < kRounds; ++i) {
      ctx.send(rt::Dest::To(peer), "ping",
               {rt::Value(std::vector<double>(
                   static_cast<std::size_t>(payload_doubles), 1.0))});
      ctx.accept(rt::AcceptSpec{}.of("pong").forever());
    }
    total = (sim.engine.now() - start) / (2 * kRounds);
  });
  return total;
}

/// Throughput: a producer streams `count` messages; the sink accepts them
/// in batches. Messages per mega-tick.
double throughput(int payload_doubles, int count = 256) {
  Sim sim(config::Configuration::simple(2));
  sim::Tick elapsed = 1;
  sim.rt().register_tasktype("sink", [&](rt::TaskContext& ctx) {
    int got = 0;
    while (got < count) {
      auto res = ctx.accept(rt::AcceptSpec{}.of("data", 16).forever());
      got += res.count("data");
    }
    ctx.send(rt::Dest::Parent(), "done");
  });
  run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Other(), "sink");
    ctx.compute(1'000'000);
    const rt::TaskId sink = sim.rt().cluster(2).slot(rt::kFirstUserSlot).id;
    const sim::Tick start = sim.engine.now();
    for (int i = 0; i < count; ++i) {
      ctx.send(rt::Dest::To(sink), "data",
               {rt::Value(std::vector<double>(
                   static_cast<std::size_t>(payload_doubles), 0.0))});
    }
    ctx.accept(rt::AcceptSpec{}.of("done").forever());
    elapsed = sim.engine.now() - start;
  });
  return 1e6 * count / static_cast<double>(elapsed);
}

void latency_table(Report& report) {
  banner("E4a: one-way message latency vs payload size");
  Table t({"payload bytes", "latency (ticks)", "ticks/KB"});
  report.section("one_way_latency");
  for (int doubles : {0, 8, 64, 256, 1024, 4096}) {
    const sim::Tick lat = one_way_latency(doubles);
    const double bytes = 8.0 * doubles + rt::Message::kHeaderBytes;
    t.row(static_cast<std::int64_t>(bytes), lat,
          static_cast<std::int64_t>(1024.0 * static_cast<double>(lat) / bytes));
    report.row()
        .field("payload_bytes", static_cast<std::int64_t>(bytes))
        .field("ticks", lat);
  }
  note("fixed software overhead dominates small messages; the bus term\n"
       "(2 ticks/word) dominates past ~1 KB — the standard latency curve.");
}

void throughput_table(Report& report) {
  banner("E4b: streaming throughput vs payload size");
  Table t({"payload bytes", "msgs/Mtick", "KB/Mtick"});
  report.section("streaming_throughput");
  for (int doubles : {8, 64, 256, 1024}) {
    const double mt = throughput(doubles);
    t.row(8 * doubles, static_cast<std::int64_t>(mt),
          static_cast<std::int64_t>(mt * 8.0 * doubles / 1024.0));
    report.row()
        .field("payload_bytes", 8 * doubles)
        .field("msgs_per_mtick", static_cast<std::int64_t>(mt));
  }
}

void broadcast_table(Report& report) {
  banner("E4c: TO ALL broadcast tree vs explicit point-to-point sends");
  // TO ALL distributes over a k-ary relay tree (fan-out from the
  // configuration, default 4): the sender posts only the first level and
  // interior positions re-forward. The metric is completion — the tick the
  // last copy is *delivered* — which for the tree grows with depth
  // (log_k receivers) while the explicit send loop stays linear.
  Table t({"receivers", "broadcast ticks", "p2p ticks"});
  report.section("broadcast_vs_p2p");
  for (int receivers : {2, 4, 8, 16}) {
    sim::Tick bc_ticks = 0;
    for (int mode = 0; mode < 2; ++mode) {
      config::Configuration cfg = config::Configuration::simple(1);
      cfg.clusters[0].slots = receivers + 2;
      Sim sim(cfg);
      sim::Tick start = 0;
      sim::Tick last_delivery = 0;
      sim.rt().register_tasktype("listener", [&](rt::TaskContext& ctx) {
        ctx.on_message("go", [&](rt::TaskContext&, const rt::Message& m) {
          last_delivery = std::max(last_delivery, m.arrived_at);
        });
        ctx.send(rt::Dest::Parent(), "ready", {rt::Value(ctx.self())});
        ctx.accept(rt::AcceptSpec{}.of("go").forever());
      });
      run_main(sim, [&, mode](rt::TaskContext& ctx) {
        std::vector<rt::TaskId> ids;
        ctx.on_message("ready", [&ids](rt::TaskContext&, const rt::Message& m) {
          ids.push_back(m.args.at(0).as_taskid());
        });
        for (int i = 0; i < receivers; ++i) ctx.initiate(rt::Where::Same(), "listener");
        ctx.accept(rt::AcceptSpec{}.of("ready", receivers).forever());
        start = sim.engine.now();
        if (mode == 0) {
          ctx.broadcast("go");
        } else {
          for (const auto& id : ids) ctx.send(rt::Dest::To(id), "go");
        }
      });
      const sim::Tick elapsed = last_delivery - start;
      if (mode == 0) {
        bc_ticks = elapsed;
      } else {
        t.row(receivers, bc_ticks, elapsed);
        report.row()
            .field("receivers", receivers)
            .field("broadcast_ticks", bc_ticks)
            .field("p2p_ticks", elapsed);
      }
    }
  }
  note("the tree's completion grows with depth (log_k receivers); the\n"
       "explicit send loop stays linear in the receiver count.");
}

/// Average per-episode cost of one tree barrier and one allreduce for a
/// force of `members`, measured over repeated aligned rounds.
struct CollectiveCost {
  sim::Tick barrier = 0;
  sim::Tick allreduce = 0;
};

CollectiveCost force_collective_cost(int members) {
  config::Configuration cfg = config::Configuration::simple(1);
  for (int i = 0; i < members - 1; ++i) {
    cfg.clusters[0].secondary_pes.push_back(4 + i);
  }
  Sim sim(cfg);
  constexpr int kRounds = 8;
  CollectiveCost out;
  run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.forcesplit([&](rt::ForceContext& fc) {
      fc.barrier();  // align members before timing
      sim::Tick t0 = sim.engine.now();
      for (int r = 0; r < kRounds; ++r) fc.barrier();
      if (fc.is_primary()) out.barrier = (sim.engine.now() - t0) / kRounds;
      fc.barrier();
      t0 = sim.engine.now();
      for (int r = 0; r < kRounds; ++r) {
        (void)fc.allreduce(rt::ForceContext::ReduceOp::sum,
                           static_cast<double>(fc.member()));
      }
      if (fc.is_primary()) out.allreduce = (sim.engine.now() - t0) / kRounds;
    });
  });
  return out;
}

void collectives_table(Report& report) {
  banner("E4f: force barrier / allreduce cost vs member count");
  // Arrival signals ride the combining tree's locally-polled flags; only
  // the root's generation publish crosses the global bus, so the charged
  // cost per episode grows with tree depth, not the member count.
  Table t({"members", "barrier ticks", "allreduce ticks"});
  report.section("force_collectives");
  for (int members : {2, 4, 8, 16}) {
    const CollectiveCost c = force_collective_cost(members);
    t.row(members, c.barrier, c.allreduce);
    report.row()
        .field("members", members)
        .field("barrier_ticks", c.barrier)
        .field("allreduce_ticks", c.allreduce);
  }
  note("sub-linear in members: one extra tree level per k-fold growth.");
}

/// Makespan of eight CPU-bound tasks on one cluster with three secondary
/// PEs, under a given placement policy. Every metric is simulated ticks.
sim::Tick cluster_makespan(config::PlacePolicy place) {
  config::Configuration cfg = config::Configuration::simple(1, /*slots=*/12);
  cfg.clusters[0].secondary_pes = {4, 5, 6};
  cfg.clusters[0].place = place;
  Sim sim(cfg);
  sim.rt().register_tasktype("crunch", [](rt::TaskContext& ctx) {
    ctx.compute(2'000'000);
    ctx.send(rt::Dest::Parent(), "done");
  });
  sim::Tick elapsed = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    const sim::Tick start = sim.engine.now();
    for (int i = 0; i < 8; ++i) ctx.initiate(rt::Where::Same(), "crunch");
    ctx.accept(rt::AcceptSpec{}.of("done", 8).forever());
    elapsed = sim.engine.now() - start;
  });
  return elapsed;
}

void placement_table(Report& report) {
  banner("E4d: task placement — primary vs least-loaded (3 secondaries)");
  // Under `primary` (the paper's behaviour) all eight tasks time-share the
  // primary PE; `least-loaded` spreads them over the cluster's four PEs.
  const sim::Tick on_primary = cluster_makespan(config::PlacePolicy::primary);
  const sim::Tick spread = cluster_makespan(config::PlacePolicy::least_loaded);
  const std::int64_t speedup_pct = 100 * on_primary / spread;
  Table t({"policy", "makespan (ticks)", "speedup %"});
  t.row("primary", on_primary, 100);
  t.row("least-loaded", spread, speedup_pct);
  report.section("placement_cluster_spread");
  report.row().field("policy", "primary").field("makespan_ticks", on_primary);
  report.row()
      .field("policy", "least-loaded")
      .field("makespan_ticks", spread)
      .field("speedup_pct", speedup_pct);
  note("8 tasks x 2M ticks: the primary policy serializes them on one PE;\n"
       "least-loaded uses all four PEs of the cluster.");
}

void fault_overhead_table(Report& report) {
  banner("E4e: fault-injection overhead on message latency");
  // A dormant plan (one PE halt scheduled far past the run) arms the whole
  // injection machinery — per-transfer draws included — without firing a
  // single fault; its latency must equal the clean baseline in simulated
  // ticks. Delay faults then show the expected degradation. Delay-only
  // faults keep delivery guaranteed (loss would wedge the forever-accepts).
  const sim::Tick clean = one_way_latency(64);
  flex::FaultPlan dormant;
  dormant.pe_halts.push_back({10, 90'000'000'000});
  const sim::Tick armed = one_way_latency(64, dormant);
  flex::FaultPlan delayed = dormant;
  delayed.bus_delay_probability = 0.25;
  delayed.bus_delay_ticks = 50'000;
  const sim::Tick degraded = one_way_latency(64, delayed);
  Table t({"mode", "latency (ticks)", "vs clean %"});
  t.row("clean", clean, 100);
  t.row("armed, dormant", armed, 100 * armed / clean);
  t.row("delay p=0.25", degraded, 100 * degraded / clean);
  report.section("fault_overhead");
  report.row().field("mode", "clean").field("ticks", clean);
  report.row().field("mode", "armed_dormant").field("ticks", armed);
  report.row().field("mode", "bus_delay_p25").field("ticks", degraded);
  report.claim(armed == clean, "E4e: a dormant fault plan costs zero ticks");
  note("arming injection costs zero simulated ticks (draws are host-side);\n"
       "only injected faults change the trajectory.");
}

/// E4f: supervision recovery latency. A worker is killed by a PE halt at a
/// known tick; the session-layer supervisor restarts it on the surviving
/// cluster after its backoff. Latency = halt tick -> the tick the
/// replacement actually resumes work, swept over backoff bases.
void recovery_latency_table(Report& report) {
  banner("E4f: supervision recovery latency vs backoff");
  const sim::Tick halt_at = 2'000'000;
  auto measure = [halt_at](sim::Tick backoff_base) {
    config::Configuration cfg = config::Configuration::simple(2);
    cfg.faults.pe_halts.push_back({4, halt_at});
    cfg.supervision.enabled = true;
    cfg.supervision.backoff.base = backoff_base;
    const config::SupervisionConfig scfg = cfg.supervision;
    Sim sim(std::move(cfg));
    session::Supervisor sup(sim.rt(), scfg);
    sim.rt().register_tasktype("victim", [](rt::TaskContext& ctx) {
      ctx.compute(5'000'000);
    });
    sim.rt().boot();
    sim.rt().user_initiate(2, "victim");
    const sim::Tick end = sim.rt().run();
    const sim::Tick latency =
        sup.recoveries().empty() ? 0 : sup.recoveries().front().latency();
    return std::pair(latency, end - halt_at);
  };
  Table t({"backoff base (ticks)", "restart latency", "halt -> all done"});
  report.section("recovery_latency");
  for (const sim::Tick base :
       {sim::Tick(100'000), sim::Tick(250'000), sim::Tick(500'000),
        sim::Tick(1'000'000), sim::Tick(4'000'000)}) {
    const auto [latency, to_done] = measure(base);
    t.row(base, latency, to_done);
    report.row()
        .field("backoff_base", base)
        .field("restart_latency_ticks", latency)
        .field("halt_to_done_ticks", to_done);
  }
  note("restart latency tracks the backoff base plus constant re-initiate\n"
       "cost; the tail is the replacement re-running its lost work.");
}

/// E4g: the reliable transport (acks + retransmission + dedup). One
/// master/worker exchange swept over bus-loss rates, run once raw and once
/// with `reliable on`. Raw runs lose application messages (the delivered
/// fraction drops and delay-bounded ACCEPTs burn their full windows);
/// reliable runs repair every loss by retransmission and finish with all
/// results. The loss=0 pair is the acceptance metric: the reliable path's
/// end-to-end overhead on a fault-free plan must stay within 5%.
struct ReliableRun {
  sim::Tick end = 0;
  int results = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_drops = 0;
};

constexpr int kRelWorkers = 4;
constexpr int kRelRounds = 4;

ReliableRun reliable_run(double loss, double dup, bool reliable) {
  config::Configuration cfg = config::Configuration::simple(3);
  for (auto& cl : cfg.clusters) cl.slots = 6;
  if (loss > 0.0 || dup > 0.0) {
    cfg.faults.seed = 42;
    cfg.faults.bus_loss = loss;
    cfg.faults.bus_duplication = dup;
  }
  cfg.reliable.enabled = reliable;
  Sim sim(std::move(cfg));
  ReliableRun out;
  sim.rt().register_tasktype("relworker", [](rt::TaskContext& ctx) {
    ctx.on_message("work", [](rt::TaskContext& c, const rt::Message& m) {
      c.compute(500'000);
      c.send(rt::Dest::Sender(), "result", {m.args.at(0)});
    });
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    ctx.accept(rt::AcceptSpec{}.of("work", kRelRounds).delay_for(20'000'000));
  });
  run_main(sim, [&](rt::TaskContext& ctx) {
    std::vector<rt::TaskId> kids;
    ctx.on_message("hello", [&kids](rt::TaskContext&, const rt::Message& m) {
      kids.push_back(m.args.at(0).as_taskid());
    });
    ctx.on_message("result", [&out](rt::TaskContext&, const rt::Message&) {
      ++out.results;
    });
    for (int i = 0; i < kRelWorkers; ++i) {
      ctx.initiate(rt::Where::Any(), "relworker");
    }
    ctx.accept(rt::AcceptSpec{}.of("hello", kRelWorkers).delay_for(10'000'000));
    for (int round = 0; round < kRelRounds; ++round) {
      int sent = 0;
      for (const auto& k : kids) {
        if (ctx.send(rt::Dest::To(k), "work", {rt::Value(round)})) ++sent;
      }
      if (sent > 0) {
        ctx.accept(rt::AcceptSpec{}.of("result", sent).delay_for(15'000'000));
      }
    }
    out.end = sim.engine.now();
  });
  const rt::RuntimeStats& st = sim.rt().stats();
  out.retransmits = st.retransmits;
  out.dup_drops = st.dup_drops;
  return out;
}

void reliable_table(Report& report) {
  banner("E4g: reliable transport — loss sweep and fault-free overhead");
  // Duplication rides at half the loss rate, mirroring the acceptance mix
  // (10% loss + 5% duplication at the sweep's top end).
  const int expected = kRelWorkers * kRelRounds;
  Table t({"loss", "mode", "delivered %", "end ticks", "retransmits",
           "dup drops"});
  report.section("reliable_transport");
  sim::Tick raw_clean = 0;
  sim::Tick rel_clean = 0;
  for (double loss : {0.0, 0.01, 0.05, 0.10}) {
    for (const bool reliable : {false, true}) {
      const ReliableRun r = reliable_run(loss, loss / 2, reliable);
      const std::int64_t delivered_pct = 100 * r.results / expected;
      if (loss == 0.0) (reliable ? rel_clean : raw_clean) = r.end;
      t.row(loss, reliable ? "reliable" : "raw", delivered_pct, r.end,
            r.retransmits, r.dup_drops);
      report.row()
          .field("loss", loss)
          .field("mode", reliable ? "reliable" : "raw")
          .field("delivered_pct", delivered_pct)
          .field("end_ticks", r.end)
          .field("retransmits", r.retransmits)
          .field("dup_drops", r.dup_drops);
      if (reliable) {
        report.claim(r.results == expected,
                     "E4g: the reliable transport delivers every result");
      }
    }
  }
  const double overhead_pct =
      100.0 * (static_cast<double>(rel_clean) - static_cast<double>(raw_clean)) /
      static_cast<double>(raw_clean);
  report.section("reliable_overhead");
  report.row()
      .field("raw_ticks", raw_clean)
      .field("reliable_ticks", rel_clean)
      .field("overhead_pct", overhead_pct);
  report.claim(overhead_pct <= 5.0,
               "E4g: fault-free reliable overhead is at most 5%");
  std::ostringstream o;
  o << "fault-free overhead of sequencing + acks: " << std::fixed
    << std::setprecision(2) << overhead_pct
    << "% end-to-end ticks (acceptance: <= 5%); under loss the raw runs\n"
       "drop results and stall out their ACCEPT windows, the reliable runs\n"
       "retransmit every lost copy and deliver 100%.";
  note(o.str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = json_path(argc, argv, "BENCH_messages.json");
  std::cout << "PISCES 2 reproduction — E4: message passing (Sections 6, 11; "
               "extension measurements)\n";
  Report report("pisces-bench-messages-v1", "simulated ticks (deterministic)");
  latency_table(report);
  throughput_table(report);
  broadcast_table(report);
  collectives_table(report);
  placement_table(report);
  fault_overhead_table(report);
  recovery_latency_table(report);
  reliable_table(report);
  return report.write(path);
}
