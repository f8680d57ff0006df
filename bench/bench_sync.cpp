// E6 (extension) — synchronization costs: BARRIER latency vs force size and
// CRITICAL-section behaviour under contention (Section 7's primitives,
// measured on the simulated FLEX/32 with its shared-bus cost model).
#include <benchmark/benchmark.h>

#include "common.hpp"

using namespace pisces;
using namespace pisces::bench;

namespace {

config::Configuration force_cfg(int members) {
  config::Configuration cfg = config::Configuration::simple(1);
  for (int i = 1; i < members; ++i) {
    cfg.clusters[0].secondary_pes.push_back(3 + i);
  }
  return cfg;
}

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
  std::uint64_t contended = 0;
  run_main(sim, [&](rt::TaskContext& ctx) {
    auto& lock = ctx.lock_var("L");
    const sim::Tick start = sim.engine.now();
    ctx.forcesplit([&](rt::ForceContext& fc) {
      for (int i = 0; i < acquisitions; ++i) {
        fc.critical(lock, [&] { fc.compute(hold); });
      }
    });
    elapsed = sim.engine.now() - start;
    contended = lock.contended_acquires();
  });
  (void)contended;
  return elapsed;
}

void barrier_table() {
  banner("E6a: barrier cost vs force size");
  Table t({"members", "ticks/barrier"});
  for (int members : {1, 2, 4, 8, 12, 18}) {
    t.row(members, barrier_cost(members));
  }
  note("the barrier is a k-ary combining tree (k = collective fan-out, 4):\n"
       "arrivals climb it through locally polled flags and only the root's\n"
       "release crosses the FLEX bus, so the cost grows by one tree level\n"
       "per k-fold growth in members, not with each arrival.");
}

void critical_table() {
  banner("E6b: critical-section serialization vs members (10 acquisitions each)");
  Table t({"members", "hold=100", "hold=2000", "serial bound (hold=2000)"});
  for (int members : {1, 2, 4, 8}) {
    const sim::Tick short_hold = critical_cost(members, 100);
    const sim::Tick long_hold = critical_cost(members, 2000);
    t.row(members, short_hold, long_hold,
          static_cast<std::int64_t>(members) * 10 * 2000);
  }
  note("with a long hold the total tracks members*acquisitions*hold — the\n"
       "critical section fully serializes, exactly Amdahl's bound.");
}

void lock_fairness_check() {
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
  std::cout << "acquisition order:";
  for (int m : order) std::cout << " " << m;
  std::cout << "\n";
  bool fair = true;
  for (std::size_t i = 4; i < order.size(); ++i) {
    if (order[i] != order[i - 4]) fair = false;
  }
  note(fair ? "strict round-robin handoff: the FIFO queue is fair."
            : "NOTE: handoff order deviated from strict round robin.");
}

void BM_BarrierEpisode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(barrier_cost(static_cast<int>(state.range(0)), 5));
  }
}
BENCHMARK(BM_BarrierEpisode)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "PISCES 2 reproduction — E6: synchronization primitives "
               "(Section 7; extension measurements)\n";
  barrier_table();
  critical_table();
  lock_fairness_check();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
