// The paper's tables, reproduced on the simulated FLEX/32: Section 13's
// storage bounds (E1), Figure 1 (E2), the Section 9 mapping (E3), and the
// extension measurements of the mechanisms the paper defines but never
// times (E5-E9; "No detailed timing measurements have yet been taken").
// E4 is bench_messages. Every table except E2's rendered figure is written
// to BENCH_paper.json (override with --json=PATH), and the bench exits 1
// when a claim it prints does not hold.
#include <limits>
#include <map>
#include <tuple>

#include "common.hpp"
#include "exec/execution_env.hpp"

using namespace pisces;
using namespace pisces::bench;

namespace {

/// One cluster on PE 3 whose force runs on PEs 3..members+2.
config::Configuration force_cfg(int members) {
  config::Configuration cfg = config::Configuration::simple(1);
  for (int i = 1; i < members; ++i) {
    cfg.clusters[0].secondary_pes.push_back(3 + i);
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// E1 — Section 13 storage measurements, the paper's only quantitative
// evaluation:
//   "The storage overhead is minimal: the PISCES 2 system uses less than
//    2.5% of each PE's local memory (for system code and data) and less
//    than 0.3% of shared memory (for system tables). Storage used for
//    message passing is dynamically recovered and reused."
// Boots the standard 4-cluster configuration, measures the byte accounting
// of the simulated system, then shows the recovery property and its failure
// mode (messages left unaccepted).
// ---------------------------------------------------------------------------

void measure_static_overhead(Report& report) {
  banner("E1a: static storage overhead (paper: <2.5% local, <0.3% shared)");
  Sim sim(config::Configuration::simple(4));
  sim.rt().boot();

  auto& machine = sim.machine;
  // Local memory on a PE running PISCES: system code + per-PE data.
  const auto& local = machine.local_memory(3);
  const std::size_t pisces_local =
      local.used_by("pisces-code") + local.used_by("pisces-data");
  const double local_pct =
      100.0 * static_cast<double>(pisces_local) / static_cast<double>(local.capacity());

  const auto& shared = machine.shared_memory();
  const std::size_t tables = shared.used_by("system-tables");
  const double shared_pct =
      100.0 * static_cast<double>(tables) / static_cast<double>(shared.capacity());

  Table t({"quantity", "bytes", "% of memory", "paper bound", "holds"});
  t.row("PISCES local (code+data)", pisces_local,
        local_pct, "< 2.5 %", local_pct < 2.5 ? "yes" : "NO");
  t.row("shared system tables", tables, shared_pct, "< 0.3 %",
        shared_pct < 0.3 ? "yes" : "NO");
  note("(local capacity 1 MB/PE, shared capacity 2.25 MB, as on the FLEX/32)");
  report.section("e1a_static_overhead");
  report.row()
      .field("quantity", "pisces_local")
      .field("bytes", pisces_local)
      .field("pct", local_pct)
      .field("bound_pct", 2.5);
  report.row()
      .field("quantity", "shared_system_tables")
      .field("bytes", tables)
      .field("pct", shared_pct)
      .field("bound_pct", 0.3);
  report.claim(local_pct < 2.5, "E1a: PISCES uses < 2.5% of local memory");
  report.claim(shared_pct < 0.3, "E1a: system tables use < 0.3% of shared memory");

  note("\nshared-memory layout (Section 11's three uses):");
  report.section("e1a_shared_layout");
  for (const auto& [label, bytes] : shared.by_label()) {
    std::cout << "  " << std::left << std::setw(16) << label << bytes << " bytes\n";
    report.row().field("label", label).field("bytes", bytes);
  }
}

void measure_recovery(Report& report) {
  banner("E1b: message storage is dynamically recovered and reused");
  Sim sim(config::Configuration::simple(1));
  std::size_t peak = 0;
  std::size_t after_burst = 0;
  std::size_t after_accept = 0;
  bool recovered_every_round = true;
  run_main(sim, [&](rt::TaskContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 16; ++i) {
        ctx.send(rt::Dest::Self(), "blob",
                 {rt::Value(std::vector<double>(64, 0.0))});
      }
      after_burst = sim.rt().message_heap().in_use();
      ctx.accept(rt::AcceptSpec{}.of("blob", 16));
      after_accept = sim.rt().message_heap().in_use();
      recovered_every_round = recovered_every_round && after_accept == 0;
    }
    peak = sim.rt().message_heap().peak_in_use();
  });
  Table t({"phase", "heap in use", "peak"});
  t.row("after 16-message burst", after_burst, peak);
  t.row("after accepting all", after_accept, peak);
  note("20 identical rounds reuse the same storage: peak equals one burst.");
  const auto& heap = sim.rt().message_heap();
  std::cout << "total allocations: " << heap.total_allocations()
            << ", failed: " << heap.failed_allocations()
            << ", final fragmentation: " << heap.fragmentation() << "\n";
  report.section("e1b_heap_recovery");
  report.row().field("phase", "after_burst").field("in_use", after_burst).field("peak", peak);
  report.row().field("phase", "after_accept").field("in_use", after_accept).field("peak", peak);
  report.row()
      .field("total_allocations", heap.total_allocations())
      .field("failed", heap.failed_allocations())
      .field("final_fragmentation", heap.fragmentation());
  report.claim(recovered_every_round,
               "E1b: the heap is back to 0 bytes after each burst");
  report.claim(peak == after_burst, "E1b: the peak equals one burst");
}

void measure_unaccepted_growth(Report& report) {
  banner("E1c: the caveat — messages left waiting in an in-queue");
  // "the amount of shared memory used for message passing only becomes
  //  significant when large numbers of messages ... are sent and left
  //  waiting in a task's in-queue without being accepted."
  Sim sim(config::Configuration::simple(2));
  Table t({"unaccepted msgs", "heap in use", "% of heap"});
  report.section("e1c_unaccepted_growth");
  sim.rt().register_tasktype("sink", [&](rt::TaskContext& ctx) {
    // Never accepts 'blob'; the queue grows until the sender is done.
    ctx.accept(rt::AcceptSpec{}.of("release").forever());
    ctx.accept(rt::AcceptSpec{}.all_of("blob"));
  });
  sim.rt().register_tasktype("main", [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Other(), "sink");
    ctx.compute(1'000'000);
    const rt::TaskId sink = sim.rt().cluster(2).slot(rt::kFirstUserSlot).id;
    for (int n = 1; n <= 256; n *= 4) {
      while (static_cast<int>(sim.rt().find_record(sink)->in_queue.size()) < n) {
        ctx.send(rt::Dest::To(sink), "blob",
                 {rt::Value(std::vector<double>(32, 0.0))});
      }
      const std::size_t used = sim.rt().message_heap().in_use();
      const double pct = 100.0 * static_cast<double>(used) /
                         static_cast<double>(sim.rt().message_heap().capacity());
      t.row(n, used, pct);
      report.row().field("unaccepted", n).field("heap_in_use", used).field("heap_pct", pct);
    }
    ctx.send(rt::Dest::To(sink), "release");
  });
  sim.rt().boot();
  sim.rt().user_initiate(1, "main");
  sim.rt().run();
  note("growth is linear in queued messages — the paper's stated caveat.");
}

// ---------------------------------------------------------------------------
// E2 — Figure 1, "PISCES 2 VIRTUAL MACHINE ORGANIZATION": the paper's only
// figure. Boots the virtual machine in the figure's shape (three clusters:
// one with a user controller, one with a file controller and disk, one
// plain) plus the Section 9 worked mapping, and renders the live
// organization — clusters, slots, controllers, force PEs, and the
// message-passing network. exec_env_test checks the rendering.
// ---------------------------------------------------------------------------

void render_figure1_shape() {
  banner("E2a: Figure 1 organization (three clusters, live controllers)");
  config::Configuration cfg = config::Configuration::simple(3);
  cfg.name = "figure1";
  Sim sim(cfg);
  // Cluster 2 has the disk/file controller, as in the figure's middle
  // cluster ("Disk 0 -- File controller").
  fsim::FileStore store;
  store.create("bigarray", 32, 32, 0.0);
  sim.rt().attach_file_store(2, std::move(store), 1);
  sim.rt().register_tasktype("usertask", [](rt::TaskContext& ctx) {
    ctx.accept(rt::AcceptSpec{}.of("stop").delay_for(5'000'000));
  });
  sim.rt().boot();
  // Occupy some slots so the figure shows both "User task" and "<not in
  // use>" entries, as the paper's figure does.
  sim.rt().user_initiate(1, "usertask");
  sim.rt().user_initiate(1, "usertask");
  sim.rt().user_initiate(3, "usertask");
  sim.rt().run_for(2'000'000);

  exec::ExecutionEnvironment env(sim.rt());
  env.display_organization(std::cout);
}

void render_section9_shape() {
  banner("E2b: the Section 9 worked mapping, rendered the same way");
  Sim sim(config::Configuration::section9_example());
  sim.rt().boot();
  sim.rt().run_for(1'000'000);
  exec::ExecutionEnvironment env(sim.rt());
  env.display_organization(std::cout);
}

void render_least_loaded_shape() {
  banner("E2c: a least-loaded cluster — user tasks spread over its PEs");
  config::Configuration cfg = config::Configuration::simple(1, /*slots=*/6);
  cfg.name = "least-loaded";
  cfg.clusters[0].secondary_pes = {4, 5};
  cfg.clusters[0].place = config::PlacePolicy::least_loaded;
  Sim sim(cfg);
  sim.rt().register_tasktype("usertask", [](rt::TaskContext& ctx) {
    ctx.accept(rt::AcceptSpec{}.of("stop").delay_for(5'000'000));
  });
  sim.rt().boot();
  for (int i = 0; i < 4; ++i) sim.rt().user_initiate(1, "usertask");
  sim.rt().run_for(2'000'000);
  exec::ExecutionEnvironment env(sim.rt());
  env.display_organization(std::cout);
  note("each occupied user slot shows the PE its process landed on (@PE).");
}

// ---------------------------------------------------------------------------
// E3 — Section 9: programmer-controlled mapping of the virtual machine to
// hardware. One Pisces program (a task farm whose workers split into
// forces) runs unchanged under several saved configurations; only the
// mapping — and hence performance — changes. This is the paper's central
// claim: "Experimentation with different mappings from PISCES clusters to
// hardware resources is straightforward, by editing and saving several
// variants of a configuration mapping."
// ---------------------------------------------------------------------------

/// The fixed program: a master initiates one worker per cluster; each
/// worker FORCESPLITs and relaxes 48 rows (20k ticks each) via PRESCHED.
/// Returns per-cluster worker completion times plus the makespan.
struct ProgramResult {
  std::map<int, sim::Tick> per_cluster;
  sim::Tick makespan = 0;
};

ProgramResult run_program(config::Configuration cfg) {
  Sim sim(std::move(cfg));
  const int n_clusters = sim.rt().configuration().cluster_count();
  ProgramResult res;
  sim.rt().register_tasktype("worker", [&](rt::TaskContext& ctx) {
    const sim::Tick start = sim.engine.now();
    ctx.forcesplit([](rt::ForceContext& fc) {
      fc.presched(1, 48, 1, [&](std::int64_t) { fc.compute(20'000); });
    });
    res.per_cluster[ctx.cluster()] = sim.engine.now() - start;
    ctx.send(rt::Dest::Parent(), "done");
  });
  res.makespan = run_main(sim, [n_clusters](rt::TaskContext& ctx) {
    for (int c = 1; c <= n_clusters; ++c) {
      ctx.initiate(rt::Where::Cluster(c), "worker");
    }
    ctx.accept(rt::AcceptSpec{}.of("done", n_clusters).forever());
  });
  return res;
}

config::Configuration dedicated_forces() {
  // A hand-edited variant of Section 9: each of clusters 2-4 gets four
  // dedicated force PEs instead of sharing.
  config::Configuration cfg = config::Configuration::simple(4);
  cfg.name = "dedicated";
  cfg.clusters[1].secondary_pes = {7, 8, 9, 10};
  cfg.clusters[2].secondary_pes = {11, 12, 13, 14};
  cfg.clusters[3].secondary_pes = {15, 16, 17, 18};
  return cfg;
}

void mapping_table(Report& report) {
  banner("E3: one program, four configurations (ticks to completion)");
  struct Case {
    const char* name;
    config::Configuration cfg;
    const char* description;
  };
  std::vector<Case> cases;
  cases.push_back({"1-cluster", config::Configuration::simple(1),
                   "everything on PE 3, no force PEs"});
  cases.push_back({"4-clusters", config::Configuration::simple(4),
                   "clusters on PEs 3-6, no force PEs"});
  cases.push_back({"section9", config::Configuration::section9_example(),
                   "forces: cl2 on 16-20; cl3+cl4 SHARE 7-15; cl1 none"});
  cases.push_back({"dedicated", dedicated_forces(),
                   "forces: four dedicated PEs per cluster 2-4"});

  Table t({"configuration", "cl1", "cl2", "cl3", "cl4", "makespan", "description"});
  report.section("e3_mapping");
  for (auto& c : cases) {
    const ProgramResult r = run_program(c.cfg);
    auto cell = [&r](int cl) -> std::string {
      auto it = r.per_cluster.find(cl);
      return it == r.per_cluster.end() ? "-" : std::to_string(it->second);
    };
    t.row(c.name, cell(1), cell(2), cell(3), cell(4), r.makespan,
          c.description);
    report.row().field("configuration", c.name);
    for (const auto& [cl, ticks] : r.per_cluster) {
      report.field("cl" + std::to_string(cl), ticks);
    }
    report.field("makespan", r.makespan);
  }
  note("\nThe program text is identical in all four runs; per-cluster times\n"
       "change only because the configuration maps forces differently:\n"
       "cluster 1 never gets force PEs (48 x 20k ticks, serial); section9\n"
       "gives cluster 2 five PEs (~6x) but makes clusters 3 and 4 SHARE\n"
       "nine PEs (time-shared members); 'dedicated' gives 2-4 four PEs each\n"
       "(clean ~5x). The makespan is pinned by cluster 1 in every mapping —\n"
       "exactly the performance reality Section 9 wants the programmer to\n"
       "see through the virtual machine.");
}

void save_edit_reuse_demo(Report& report) {
  banner("E3b: save / edit / reuse a configuration file");
  config::Configuration cfg = config::Configuration::section9_example();
  std::stringstream file;
  cfg.save(file);
  std::cout << "saved " << file.str().size() << " bytes; first lines:\n";
  std::string line;
  for (int i = 0; i < 3 && std::getline(file, line); ++i) {
    std::cout << "  | " << line << "\n";
  }
  file.clear();
  file.seekg(0);
  config::Configuration reloaded = config::Configuration::load(file);
  // Edit the reloaded configuration: move cluster 2's forces to 7-15 too.
  reloaded.clusters[1].secondary_pes = reloaded.clusters[2].secondary_pes;
  reloaded.name = "edited";
  const ProgramResult before = run_program(cfg);
  const ProgramResult after = run_program(reloaded);
  Table t({"configuration", "cluster-2 worker ticks"});
  t.row("section9 (reloaded)", before.per_cluster.at(2));
  t.row("edited (cl2 shares 7-15)", after.per_cluster.at(2));
  report.section("e3b_save_edit_reuse");
  report.row().field("saved_bytes", file.str().size());
  report.row()
      .field("configuration", "section9_reloaded")
      .field("cl2", before.per_cluster.at(2));
  report.row().field("configuration", "edited").field("cl2", after.per_cluster.at(2));
}

// ---------------------------------------------------------------------------
// E5 (extension) — force speedup. Section 7 defines forces; Section 9 lets
// the configuration choose the member count; the paper takes no timings.
// Sweeps force size 1..18 under PRESCHED and SELFSCHED with uniform and
// skewed iteration costs — the classic static-vs-dynamic scheduling
// trade-off: prescheduling wins when iterations are uniform (no fetch
// overhead), self-scheduling wins under skew (load balance).
// ---------------------------------------------------------------------------

/// Run a 96-iteration loop under the given force size and discipline.
/// `skew`: iteration i costs base*(1 + 3*(i<12)) — a hot head of the index
/// space, the worst case for prescheduling's round-robin split.
sim::Tick run_loop(int members, bool selfsched, bool skew,
                   flex::CostModel costs = {}) {
  Sim sim(force_cfg(members), sim::default_backend(), costs);
  sim::Tick elapsed = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    const sim::Tick start = sim.engine.now();
    ctx.forcesplit([&](rt::ForceContext& fc) {
      auto body = [&](std::int64_t i) {
        const sim::Tick cost = skew && i < 12 ? 80'000 : 20'000;
        fc.compute(cost);
      };
      if (selfsched) {
        fc.selfsched(0, 95, 1, body);
      } else {
        fc.presched(0, 95, 1, body);
      }
    });
    elapsed = sim.engine.now() - start;
  });
  return elapsed;
}

const char* winner(sim::Tick pre, sim::Tick self) {
  return pre <= self ? "PRESCHED" : "SELFSCHED";
}

void speedup_table(Report& report, bool skew) {
  banner(skew ? "E5b: skewed iterations (first 12 cost 4x)"
              : "E5a: uniform iterations");
  Table t({"members", "PRESCHED", "speedup", "SELFSCHED", "speedup", "winner"});
  report.section(skew ? "e5b_skewed" : "e5a_uniform");
  sim::Tick pre1 = 0;
  sim::Tick self1 = 0;
  for (int members : {1, 2, 4, 8, 12, 18}) {
    const sim::Tick pre = run_loop(members, false, skew);
    const sim::Tick self = run_loop(members, true, skew);
    if (members == 1) {
      pre1 = pre;
      self1 = self;
    }
    t.row(members, pre, fixed2(ratio2(pre1, pre)), self,
          fixed2(ratio2(self1, self)), winner(pre, self));
    report.row()
        .field("members", members)
        .field("presched_ticks", pre)
        .field("presched_speedup", ratio2(pre1, pre))
        .field("selfsched_ticks", self)
        .field("selfsched_speedup", ratio2(self1, self))
        .field("winner", winner(pre, self));
  }
}

void crossover_note(Report& report) {
  // Summarize who wins where (the "shape" result).
  const sim::Tick pre_u = run_loop(8, false, false);
  const sim::Tick self_u = run_loop(8, true, false);
  const sim::Tick pre_s = run_loop(8, false, true);
  const sim::Tick self_s = run_loop(8, true, true);
  banner("E5c: scheduling-discipline crossover at 8 members");
  Table t({"workload", "PRESCHED", "SELFSCHED", "winner"});
  t.row("uniform", pre_u, self_u, winner(pre_u, self_u));
  t.row("skewed", pre_s, self_s, winner(pre_s, self_s));
  note("uniform work favors PRESCHED (no shared-counter traffic); skew\n"
       "favors SELFSCHED (dynamic load balance) — the expected crossover.");
  report.section("e5c_crossover");
  for (const auto& [workload, pre, self] :
       {std::tuple("uniform", pre_u, self_u), std::tuple("skewed", pre_s, self_s)}) {
    report.row()
        .field("workload", workload)
        .field("presched_ticks", pre)
        .field("selfsched_ticks", self)
        .field("winner", winner(pre, self));
  }
  report.claim(pre_u <= self_u, "E5c: PRESCHED wins on uniform work");
  report.claim(self_s < pre_s, "E5c: SELFSCHED wins under skew");
}

void barrier_free_scaling(Report& report) {
  banner("E5d: forcesplit + join overhead vs member count (empty region)");
  Table t({"members", "ticks (empty region)"});
  report.section("e5d_split_overhead");
  for (int members : {1, 2, 4, 8, 18}) {
    Sim sim(force_cfg(members));
    sim::Tick elapsed = 0;
    run_main(sim, [&](rt::TaskContext& ctx) {
      const sim::Tick start = sim.engine.now();
      ctx.forcesplit([](rt::ForceContext&) {});
      elapsed = sim.engine.now() - start;
    });
    t.row(members, elapsed);
    report.row().field("members", members).field("ticks", elapsed);
  }
  note("split cost grows with members (process creation + end barrier) —\n"
       "forces pay off only when the region's work amortizes this.");
}

// ---------------------------------------------------------------------------
// E6 (extension) — synchronization costs: BARRIER latency vs force size and
// CRITICAL-section behaviour under contention (Section 7's primitives,
// measured on the simulated FLEX/32 with its shared-bus cost model).
// ---------------------------------------------------------------------------

/// Mean cost of one barrier episode across `rounds` barriers.
sim::Tick barrier_cost(int members, int rounds = 20) {
  Sim sim(force_cfg(members));
  sim::Tick elapsed = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.forcesplit([&](rt::ForceContext& fc) {
      fc.barrier();  // warm up: everyone started
      const sim::Tick start = sim.engine.now();
      for (int i = 0; i < rounds; ++i) fc.barrier();
      if (fc.is_primary()) elapsed = (sim.engine.now() - start) / rounds;
    });
  });
  return elapsed;
}

/// Total time for every member to complete `acquisitions` critical
/// sections holding the lock for `hold` ticks.
sim::Tick critical_cost(int members, sim::Tick hold, int acquisitions = 10) {
  Sim sim(force_cfg(members));
  sim::Tick elapsed = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    auto& lock = ctx.lock_var("L");
    const sim::Tick start = sim.engine.now();
    ctx.forcesplit([&](rt::ForceContext& fc) {
      for (int i = 0; i < acquisitions; ++i) {
        fc.critical(lock, [&] { fc.compute(hold); });
      }
    });
    elapsed = sim.engine.now() - start;
  });
  return elapsed;
}

void barrier_table(Report& report) {
  banner("E6a: barrier cost vs force size");
  Table t({"members", "ticks/barrier"});
  report.section("e6a_barrier");
  for (int members : {1, 2, 4, 8, 12, 18}) {
    const sim::Tick ticks = barrier_cost(members);
    t.row(members, ticks);
    report.row().field("members", members).field("ticks_per_barrier", ticks);
  }
  note("the barrier is a k-ary combining tree (k = collective fan-out, 4):\n"
       "arrivals climb it through locally polled flags and only the root's\n"
       "release crosses the FLEX bus, so the cost grows by one tree level\n"
       "per k-fold growth in members, not with each arrival.");
}

void critical_table(Report& report) {
  banner("E6b: critical-section serialization vs members (10 acquisitions each)");
  Table t({"members", "hold=100", "hold=2000", "serial bound (hold=2000)"});
  report.section("e6b_critical");
  for (int members : {1, 2, 4, 8}) {
    const sim::Tick short_hold = critical_cost(members, 100);
    const sim::Tick long_hold = critical_cost(members, 2000);
    const std::int64_t bound = static_cast<std::int64_t>(members) * 10 * 2000;
    t.row(members, short_hold, long_hold, bound);
    report.row()
        .field("members", members)
        .field("hold100_ticks", short_hold)
        .field("hold2000_ticks", long_hold)
        .field("serial_bound_ticks", bound);
  }
  note("with a long hold the total tracks members*acquisitions*hold — the\n"
       "critical section fully serializes, exactly Amdahl's bound.");
}

void lock_fairness_check(Report& report) {
  banner("E6c: FIFO lock handoff (fairness under contention)");
  Sim sim(force_cfg(4));
  std::vector<int> order;
  run_main(sim, [&](rt::TaskContext& ctx) {
    auto& lock = ctx.lock_var("L");
    ctx.forcesplit([&](rt::ForceContext& fc) {
      fc.compute(100 * fc.member());  // stagger arrivals: 1,2,3,4
      for (int round = 0; round < 3; ++round) {
        fc.critical(lock, [&] {
          order.push_back(fc.member());
          fc.compute(5'000);  // everyone queues behind the holder
        });
      }
    });
  });
  std::string order_text;
  for (int m : order) order_text += " " + std::to_string(m);
  std::cout << "acquisition order:" << order_text << "\n";
  bool fair = true;
  for (std::size_t i = 4; i < order.size(); ++i) {
    if (order[i] != order[i - 4]) fair = false;
  }
  note(fair ? "strict round-robin handoff: the FIFO queue is fair."
            : "NOTE: handoff order deviated from strict round robin.");
  report.section("e6c_lock_order");
  report.row().field("acquisition_order", order_text.substr(1)).field("round_robin", fair);
  report.claim(fair, "E6c: lock handoff is strict round robin");
}

// ---------------------------------------------------------------------------
// E7 (extension) — windows for parallel data partitioning (Section 8). The
// paper's claim: with windows, "the array values only need be transmitted
// once, to the task assigned the actual processing of the data" — the
// partitioning levels of a task tree forward *windows* (small descriptors),
// not array data. Compares window-based distribution against eager
// forwarding through a middleman, and measures file-window concurrency
// under the overlap-aware scheduler.
// ---------------------------------------------------------------------------

struct DistResult {
  sim::Tick elapsed = 0;
  std::uint64_t bytes = 0;
};

/// Distribute an NxN array to 4 workers through a middle "splitter" task.
/// windows=true: splitter forwards shrunken windows (descriptor only) and
/// workers read directly from the owner. windows=false: the owner sends
/// the full array to the splitter, which re-sends each quarter (the data
/// crosses the partitioning level).
DistResult distribute(int n, bool windows) {
  Sim sim(config::Configuration::simple(3));
  DistResult res;
  sim.rt().register_tasktype("splitworker", [&](rt::TaskContext& ctx) {
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    double sum = 0;
    if (windows) {
      rt::Window w;
      ctx.on_message("part", [&w](rt::TaskContext&, const rt::Message& m) {
        w = m.args.at(0).as_window();
      });
      ctx.accept(rt::AcceptSpec{}.of("part").forever());
      rt::Matrix data = ctx.window_read(w);
      for (double x : data.data()) sum += x;
    } else {
      ctx.on_message("rows", [&sum](rt::TaskContext&, const rt::Message& m) {
        for (double x : m.args.at(0).as_real_array()) sum += x;
      });
      ctx.accept(rt::AcceptSpec{}.of("rows").forever());
    }
    ctx.send(rt::Dest::Parent(), "sum", {rt::Value(sum)});
  });

  sim.rt().register_tasktype("splitter", [&, n](rt::TaskContext& ctx) {
    std::vector<rt::TaskId> kids;
    ctx.on_message("hello", [&kids](rt::TaskContext&, const rt::Message& m) {
      kids.push_back(m.args.at(0).as_taskid());
    });
    double total = 0;
    ctx.on_message("sum", [&total](rt::TaskContext&, const rt::Message& m) {
      total += m.args.at(0).as_real();
    });
    for (int i = 0; i < 4; ++i) ctx.initiate(rt::Where::Cluster(3), "splitworker");
    ctx.accept(rt::AcceptSpec{}.of("hello", 4).forever());

    if (windows) {
      rt::Window whole;
      ctx.on_message("win", [&whole](rt::TaskContext&, const rt::Message& m) {
        whole = m.args.at(0).as_window();
      });
      ctx.accept(rt::AcceptSpec{}.of("win").forever());
      const int band = n / 4;
      for (int i = 0; i < 4; ++i) {
        ctx.send(rt::Dest::To(kids[static_cast<std::size_t>(i)]), "part",
                 {rt::Value(whole.shrink(rt::Rect{i * band, 0, band, n}))});
      }
    } else {
      std::vector<double> all;
      ctx.on_message("payload", [&all](rt::TaskContext&, const rt::Message& m) {
        all = m.args.at(0).as_real_array();
      });
      ctx.accept(rt::AcceptSpec{}.of("payload").forever());
      const int band = n / 4;
      for (int i = 0; i < 4; ++i) {
        std::vector<double> quarter(
            all.begin() + static_cast<std::ptrdiff_t>(i) * band * n,
            all.begin() + static_cast<std::ptrdiff_t>(i + 1) * band * n);
        ctx.send(rt::Dest::To(kids[static_cast<std::size_t>(i)]), "rows",
                 {rt::Value(std::move(quarter))});
      }
    }
    ctx.accept(rt::AcceptSpec{}.of("sum", 4).forever());
    ctx.send(rt::Dest::Parent(), "alldone", {rt::Value(total)});
  });

  run_main(sim, [&, n](rt::TaskContext& ctx) {
    auto& arr = ctx.local_array("A", n, n);
    for (auto& x : arr.data.data()) x = 1.0;
    ctx.initiate(rt::Where::Cluster(2), "splitter");
    ctx.compute(2'000'000);  // splitter + its workers reach their accepts
    const rt::TaskId splitter = sim.rt().cluster(2).slot(rt::kFirstUserSlot).id;
    const std::uint64_t bytes_before = sim.rt().stats().message_bytes_sent;
    const sim::Tick start = sim.engine.now();
    if (windows) {
      ctx.send(rt::Dest::To(splitter), "win", {rt::Value(ctx.make_window("A"))});
    } else {
      ctx.send(rt::Dest::To(splitter), "payload",
               {rt::Value(std::vector<double>(arr.data.data()))});
    }
    ctx.accept(rt::AcceptSpec{}.of("alldone").forever());
    res.elapsed = sim.engine.now() - start;
    res.bytes = sim.rt().stats().message_bytes_sent - bytes_before;
  });
  return res;
}

void distribution_table(Report& report) {
  banner("E7a: window distribution vs eager forwarding (4 workers, middleman)");
  Table t({"array", "scheme", "bytes moved", "ticks"});
  report.section("e7a_distribution");
  for (int n : {16, 32, 64}) {
    const DistResult win = distribute(n, true);
    const DistResult eager = distribute(n, false);
    t.row(std::to_string(n) + "x" + std::to_string(n), "windows", win.bytes,
          win.elapsed);
    t.row("", "eager", eager.bytes, eager.elapsed);
    for (const auto& [scheme, r] : {std::pair("windows", win), std::pair("eager", eager)}) {
      report.row()
          .field("array", n)
          .field("scheme", scheme)
          .field("bytes", r.bytes)
          .field("ticks", r.elapsed);
    }
    report.claim(win.bytes < eager.bytes,
                 "E7a: windows move fewer bytes than eager forwarding at " +
                     std::to_string(n) + "x" + std::to_string(n));
  }
  note("eager forwarding moves the array twice (owner->splitter->workers);\n"
       "windows move it once — bytes roughly halve, as Section 8 claims.");
}

/// File windows: k tasks read disjoint bands of a file array in parallel
/// vs strictly overlapping writes (which must serialize).
sim::Tick file_io(int tasks, bool overlap, bool writes) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.clusters[0].slots = tasks + 2;
  Sim sim(cfg);
  fsim::FileStore store;
  store.create("data", 64 * tasks, 64, 1.0);
  sim.rt().attach_file_store(1, std::move(store), 1);
  sim.rt().register_tasktype("io", [&](rt::TaskContext& ctx) {
    const int idx = static_cast<int>(ctx.args().at(0).as_int());
    rt::Window w = ctx.file_window(1, "data");
    const rt::Rect r = overlap ? rt::Rect{0, 0, 64, 64}
                               : rt::Rect{64 * idx, 0, 64, 64};
    rt::Window part = w.shrink(r);
    if (writes) {
      ctx.window_write(part, rt::Matrix(64, 64, 2.0));
    } else {
      (void)ctx.window_read(part);
    }
    ctx.send(rt::Dest::Parent(), "done");
  });
  return run_main(sim, [&](rt::TaskContext& ctx) {
    for (int i = 0; i < tasks; ++i) {
      ctx.initiate(rt::Where::Same(), "io", {rt::Value(i)});
    }
    ctx.accept(rt::AcceptSpec{}.of("done", tasks).forever());
  });
}

void file_window_table(Report& report) {
  banner("E7b: file-window concurrency (overlap-aware scheduling)");
  Table t({"tasks", "disjoint reads", "overlap reads", "overlap writes"});
  report.section("e7b_file_windows");
  for (int tasks : {2, 4}) {
    const sim::Tick disjoint = file_io(tasks, false, false);
    const sim::Tick overlap_reads = file_io(tasks, true, false);
    const sim::Tick overlap_writes = file_io(tasks, true, true);
    t.row(tasks, disjoint, overlap_reads, overlap_writes);
    report.row()
        .field("tasks", tasks)
        .field("disjoint_reads", disjoint)
        .field("overlap_reads", overlap_reads)
        .field("overlap_writes", overlap_writes);
  }
  note("reads on the same region may proceed together; overlapping writes\n"
       "serialize behind each other — the Section 8 file-controller rule.");
}

void shrink_depth_table(Report& report) {
  banner("E7c: hierarchical shrink depth costs nothing but descriptor bytes");
  // Shrinking a window k times produces the same transfer as shrinking it
  // once: the descriptor is what travels.
  Sim sim(config::Configuration::simple(2));
  std::uint64_t bytes_deep = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 64, 64);
    (void)arr;
    rt::Window w = ctx.make_window("A");
    for (int depth = 0; depth < 5; ++depth) {
      w = w.shrink(rt::Rect{1, 1, w.rect.rows - 2, w.rect.cols - 2});
    }
    (void)ctx.window_read(w);  // local read; still validates the chain
    bytes_deep = w.bytes();
  });
  const std::size_t descriptor = rt::Value(rt::Window{}).encoded_size();
  std::cout << "after 5 shrinks the window still describes " << bytes_deep
            << " bytes of data; the descriptor itself stays " << descriptor
            << " bytes.\n";
  report.section("e7c_shrink_depth");
  report.row()
      .field("shrinks", 5)
      .field("window_bytes", bytes_deep)
      .field("descriptor_bytes", descriptor);
}

// ---------------------------------------------------------------------------
// E8 (extension) — slots and multiprogramming. Section 5: slots bound the
// degree of multiprogramming on a PE; Section 9's worked example notes that
// when PEs 7-15 run forces for BOTH clusters 3 and 4, "the maximum number
// of simultaneous tasks that might be running on one of these PEs is equal
// to the sum of the slots allocated in both clusters, 4+4=8".
// ---------------------------------------------------------------------------

/// 8 CPU-bound jobs submitted to one cluster with `slots` user slots.
/// Fewer slots => initiates held, lower multiprogramming, different
/// makespan/turnaround shape.
struct SlotResult {
  sim::Tick makespan = 0;
  std::uint64_t held = 0;
};

SlotResult jobs_vs_slots(int slots, int jobs = 8) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[1].slots = slots;
  Sim sim(cfg);
  SlotResult res;
  sim.rt().register_tasktype("job", [](rt::TaskContext& ctx) {
    ctx.compute(500'000);
    ctx.send(rt::Dest::Parent(), "done");
  });
  res.makespan = run_main(sim, [&](rt::TaskContext& ctx) {
    for (int i = 0; i < jobs; ++i) ctx.initiate(rt::Where::Cluster(2), "job");
    ctx.accept(rt::AcceptSpec{}.of("done", jobs).forever());
  });
  res.held = sim.rt().stats().initiates_held;
  return res;
}

void slots_table(Report& report) {
  banner("E8a: 8 CPU-bound jobs vs user-slot count (one cluster, one PE)");
  Table t({"slots", "makespan", "initiates held"});
  report.section("e8a_slots");
  sim::Tick shortest = std::numeric_limits<sim::Tick>::max();
  sim::Tick longest = 0;
  for (int slots : {1, 2, 4, 8}) {
    const SlotResult r = jobs_vs_slots(slots);
    t.row(slots, r.makespan, r.held);
    report.row()
        .field("slots", slots)
        .field("makespan", r.makespan)
        .field("initiates_held", r.held);
    shortest = std::min(shortest, r.makespan);
    longest = std::max(longest, r.makespan);
  }
  report.claim(10 * (longest - shortest) <= shortest,
               "E8a: the makespans are within 10% of each other");
  note("one PE does all the work either way: the makespan barely moves,\n"
       "but fewer slots queue the initiates at the task controller instead\n"
       "of multiprogramming them — slots bound memory pressure, not speed.");
}

/// The Section 9 "4+4=8" case: clusters A and B both use the same
/// secondary PEs for forces. When both split at once, each force member
/// PE time-shares two members.
sim::Tick shared_forces(bool shared) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[0].secondary_pes = {7, 8, 9, 10};
  if (shared) {
    cfg.clusters[1].secondary_pes = {7, 8, 9, 10};  // same PEs: contention
  } else {
    cfg.clusters[1].secondary_pes = {11, 12, 13, 14};  // dedicated
  }
  Sim sim(cfg);
  sim.rt().register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.forcesplit([](rt::ForceContext& fc) {
      fc.presched(1, 40, 1, [&](std::int64_t) { fc.compute(25'000); });
    });
    ctx.send(rt::Dest::Parent(), "done");
  });
  return run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Cluster(1), "worker");
    ctx.initiate(rt::Where::Cluster(2), "worker");
    ctx.accept(rt::AcceptSpec{}.of("done", 2).forever());
  });
}

void shared_force_table(Report& report) {
  banner("E8b: two clusters forcesplitting at once (Section 9's 4+4=8 case)");
  const sim::Tick dedicated = shared_forces(false);
  const sim::Tick shared = shared_forces(true);
  Table t({"force PEs", "ticks", "slowdown"});
  t.row("dedicated (7-10 vs 11-14)", dedicated, "1.00");
  t.row("shared (both on 7-10)", shared, fixed2(ratio2(shared, dedicated)));
  report.section("e8b_shared_forces");
  report.row().field("force_pes", "dedicated").field("ticks", dedicated).field("slowdown", 1.0);
  report.row()
      .field("force_pes", "shared")
      .field("ticks", shared)
      .field("slowdown", ratio2(shared, dedicated));
  note("sharing secondary PEs between clusters multiprograms the force\n"
       "members (~2x slower here) — the trade Section 9 lets the\n"
       "programmer make explicitly.");
}

/// PE loading snapshot while both forces run on shared PEs.
void loading_snapshot(Report& report) {
  banner("E8c: PE loading during the shared-force run");
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[0].secondary_pes = {7, 8};
  cfg.clusters[1].secondary_pes = {7, 8};
  Sim sim(cfg);
  sim.rt().register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.forcesplit([](rt::ForceContext& fc) {
      fc.presched(1, 30, 1, [&](std::int64_t) { fc.compute(50'000); });
    });
    ctx.send(rt::Dest::Parent(), "done");
  });
  sim.rt().register_tasktype("main", [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Cluster(1), "worker");
    ctx.initiate(rt::Where::Cluster(2), "worker");
    ctx.accept(rt::AcceptSpec{}.of("done", 2).forever());
  });
  sim.rt().boot();
  sim.rt().user_initiate(1, "main");
  sim.rt().run_for(1'000'000);  // mid-flight
  Table t({"PE", "live procs", "dispatches"});
  report.section("e8c_pe_loading");
  for (int pe : {3, 4, 7, 8}) {
    const auto& k = sim.rt().system().kernel(pe);
    t.row(pe, k.live_count(), k.dispatches());
    report.row()
        .field("pe", pe)
        .field("live_procs", k.live_count())
        .field("dispatches", k.dispatches());
  }
  sim.rt().run();
  note("PEs 7-8 carry one force member from EACH cluster (live=2): the\n"
       "paper's 'sum of the slots' multiprogramming bound in action.");
}

// ---------------------------------------------------------------------------
// E9 (ablation) — cost-model sensitivity. DESIGN.md commits the reproduced
// shapes (who wins, where crossovers fall) to hold across reasonable cost
// settings; this varies the flex::CostModel knobs and re-measures the
// headline results from E4/E5/E8.
// ---------------------------------------------------------------------------

void bus_sensitivity(Report& report) {
  banner("E9a: force speedup at 8 members vs bus cost per word");
  Table t({"bus ticks/word", "1 member", "8 members", "speedup"});
  report.section("e9a_bus_cost");
  for (sim::Tick bus : {1, 2, 8, 32}) {
    flex::CostModel c;
    c.bus_per_word = bus;
    // E5's uniform PRESCHED loop.
    const sim::Tick t1 = run_loop(1, false, false, c);
    const sim::Tick t8 = run_loop(8, false, false, c);
    t.row(bus, t1, t8, fixed2(ratio2(t1, t8)));
    report.row()
        .field("bus_ticks_per_word", bus)
        .field("ticks_1_member", t1)
        .field("ticks_8_members", t8)
        .field("speedup", ratio2(t1, t8));
  }
  note("speedup stays ~7.85x across a 32x range of bus cost: this workload's\n"
       "shared traffic (barriers) is tiny relative to compute.");
}

/// E4's one-way latency for a 1 KB message under `costs`.
sim::Tick latency_run(flex::CostModel costs) {
  Sim sim(config::Configuration::simple(2), sim::default_backend(), costs);
  sim::Tick lat = 0;
  sim.rt().register_tasktype("echo", [&](rt::TaskContext& ctx) {
    ctx.send(rt::Dest::Parent(), "ready");
    for (int i = 0; i < 8; ++i) {
      ctx.accept(rt::AcceptSpec{}.of("ping").forever());
      ctx.send(rt::Dest::Sender(), "pong", {rt::Value(std::vector<double>(128, 0.0))});
    }
  });
  run_main(sim, [&](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Other(), "echo");
    ctx.accept(rt::AcceptSpec{}.of("ready").forever());
    const rt::TaskId peer = ctx.sender();
    const sim::Tick start = sim.engine.now();
    for (int i = 0; i < 8; ++i) {
      ctx.send(rt::Dest::To(peer), "ping", {rt::Value(std::vector<double>(128, 0.0))});
      ctx.accept(rt::AcceptSpec{}.of("pong").forever());
    }
    lat = (sim.engine.now() - start) / 16;
  });
  return lat;
}

void overhead_sensitivity(Report& report) {
  banner("E9b: 1 KB message latency vs software send overhead");
  Table t({"send overhead", "latency (ticks)"});
  report.section("e9b_send_overhead");
  for (sim::Tick ovh : {0, 150, 600, 2400}) {
    flex::CostModel c;
    c.msg_send_overhead = ovh;
    const sim::Tick lat = latency_run(c);
    t.row(ovh, lat);
    report.row().field("send_overhead", ovh).field("latency_ticks", lat);
  }
  note("latency = fixed software path + bus term; the overhead knob shifts\n"
       "the curve without changing its shape (E4's claim).");
}

/// E8a's makespan for 8 jobs under a given time slice.
sim::Tick slice_run(sim::Tick slice) {
  flex::CostModel c;
  c.time_slice = slice;
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.clusters[0].slots = 8;
  Sim sim(cfg, sim::default_backend(), c);
  sim.rt().register_tasktype("job", [](rt::TaskContext& ctx) {
    ctx.compute(500'000);
    ctx.send(rt::Dest::Parent(), "done");
  });
  return run_main(sim, [&](rt::TaskContext& ctx) {
    for (int i = 0; i < 8; ++i) ctx.initiate(rt::Where::Same(), "job");
    ctx.accept(rt::AcceptSpec{}.of("done", 8).forever());
  });
}

void slice_sensitivity(Report& report) {
  banner("E9c: multiprogramming makespan vs MMOS time slice");
  Table t({"time slice", "makespan (8 jobs, 1 PE)"});
  report.section("e9c_time_slice");
  for (sim::Tick slice : {250, 1000, 4000, 16000}) {
    const sim::Tick makespan = slice_run(slice);
    t.row(slice, makespan);
    report.row().field("time_slice", slice).field("makespan", makespan);
  }
  note("shorter slices add context-switch overhead but total work dominates\n"
       "— the slot conclusion of E8 (slots bound memory, not speed) holds.");
}

void heap_sensitivity(Report& report) {
  banner("E9d: sender backpressure vs message-heap size");
  Table t({"heap bytes", "heap-full waits", "run ticks"});
  report.section("e9d_heap_size");
  for (std::size_t heap : {8u * 1024, 32u * 1024, 512u * 1024}) {
    config::Configuration cfg = config::Configuration::simple(2);
    cfg.message_heap_bytes = heap;
    Sim sim(cfg);
    sim.rt().register_tasktype("sink", [&](rt::TaskContext& ctx) {
      for (int i = 0; i < 8; ++i) {
        ctx.accept(rt::AcceptSpec{}.of("blob", 8).forever());
        ctx.compute(200'000);  // slow consumer
      }
    });
    const sim::Tick end = run_main(sim, [&](rt::TaskContext& ctx) {
      ctx.initiate(rt::Where::Other(), "sink");
      ctx.compute(1'000'000);
      const rt::TaskId sink = sim.rt().cluster(2).slot(rt::kFirstUserSlot).id;
      for (int i = 0; i < 64; ++i) {
        ctx.send(rt::Dest::To(sink), "blob",
                 {rt::Value(std::vector<double>(128, 0.0))});
      }
    });
    t.row(heap, sim.rt().stats().heap_full_waits, end);
    report.row()
        .field("heap_bytes", heap)
        .field("heap_full_waits", sim.rt().stats().heap_full_waits)
        .field("run_ticks", end);
  }
  note("a small message area throttles fast producers (blocking send) —\n"
       "Section 13's caveat as backpressure rather than failure.");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = json_path(argc, argv, "BENCH_paper.json");
  std::cout << "PISCES 2 reproduction — the paper's tables: storage (E1), "
               "Figure 1 (E2), mapping (E3), extensions E5-E9\n";
  Report report("pisces-bench-paper-v1",
                "simulated ticks, bytes and percentages (deterministic)");
  measure_static_overhead(report);
  measure_recovery(report);
  measure_unaccepted_growth(report);
  render_figure1_shape();
  render_section9_shape();
  render_least_loaded_shape();
  mapping_table(report);
  save_edit_reuse_demo(report);
  speedup_table(report, false);
  speedup_table(report, true);
  crossover_note(report);
  barrier_free_scaling(report);
  barrier_table(report);
  critical_table(report);
  lock_fairness_check(report);
  distribution_table(report);
  file_window_table(report);
  shrink_depth_table(report);
  slots_table(report);
  shared_force_table(report);
  loading_snapshot(report);
  bus_sensitivity(report);
  overhead_sensitivity(report);
  slice_sensitivity(report);
  heap_sensitivity(report);
  return report.write(path);
}
