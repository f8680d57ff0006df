// Unit tests for the MMOS kernel: multiprogramming, time slicing, blocking,
// wakes, kills, and exit callbacks.
#include "mmos/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "mmos/system.hpp"
#include "sim/random.hpp"

namespace pisces::mmos {
namespace {

struct Fixture {
  Fixture() = default;
  explicit Fixture(sim::Backend backend) : eng(backend) {}
  sim::Engine eng;
  flex::Machine machine{eng};
  System sys{machine};
};

TEST(Kernel, SingleProcessRunsToCompletion) {
  Fixture f;
  bool done = false;
  auto& k = f.sys.kernel(3);
  k.create_process("job", [&](Proc& p) {
    p.compute(500);
    done = true;
  });
  f.eng.run();
  EXPECT_TRUE(done);
  const auto& c = f.machine.costs();
  // context switch + creation cost + work + exit cost
  EXPECT_EQ(f.eng.now(), c.context_switch + c.process_create + 500 + c.process_exit);
}

TEST(Kernel, ProcessesOnDifferentPesRunInParallel) {
  Fixture f;
  sim::Tick end3 = 0;
  sim::Tick end4 = 0;
  f.sys.kernel(3).create_process("a", [&](Proc& p) {
    p.compute(10000);
    end3 = f.eng.now();
  });
  f.sys.kernel(4).create_process("b", [&](Proc& p) {
    p.compute(10000);
    end4 = f.eng.now();
  });
  f.eng.run();
  EXPECT_EQ(end3, end4);  // true parallelism: same finish time
}

TEST(Kernel, ProcessesOnSamePeTimeShare) {
  Fixture f;
  sim::Tick end_a = 0;
  sim::Tick end_b = 0;
  auto& k = f.sys.kernel(3);
  k.create_process("a", [&](Proc& p) {
    p.compute(5000);
    end_a = f.eng.now();
  });
  k.create_process("b", [&](Proc& p) {
    p.compute(5000);
    end_b = f.eng.now();
  });
  f.eng.run();
  // Multiprogrammed on one PE: both take at least the sum of the work.
  EXPECT_GE(std::max(end_a, end_b), 10000);
  // Round robin: they finish within about one quantum of each other.
  EXPECT_LE(std::max(end_a, end_b) - std::min(end_a, end_b),
            f.machine.costs().time_slice + 2 * f.machine.costs().context_switch +
                f.machine.costs().process_create + f.machine.costs().process_exit);
}

TEST(Kernel, RoundRobinInterleavesAtSliceBoundaries) {
  Fixture f;
  std::vector<std::string> order;
  auto& k = f.sys.kernel(3);
  const sim::Tick slice = f.machine.costs().time_slice;
  k.create_process("a", [&](Proc& p) {
    for (int i = 0; i < 3; ++i) {
      p.compute(slice);
      order.push_back("a");
    }
  });
  k.create_process("b", [&](Proc& p) {
    for (int i = 0; i < 3; ++i) {
      p.compute(slice);
      order.push_back("b");
    }
  });
  f.eng.run();
  ASSERT_EQ(order.size(), 6u);
  // Strict alternation once both are started.
  for (std::size_t i = 2; i < order.size(); ++i) {
    EXPECT_NE(order[i], order[i - 1]) << "at " << i;
  }
}

TEST(Kernel, BlockReleasesCpuToOthers) {
  Fixture f;
  sim::Tick worker_end = 0;
  auto& k = f.sys.kernel(3);
  Proc& blocker = k.create_process("blocker", [&](Proc& p) { p.block(); });
  k.create_process("worker", [&](Proc& p) {
    p.compute(3000);
    worker_end = f.eng.now();
    blocker.wake();
  });
  f.eng.run();
  EXPECT_GT(worker_end, 0);
  EXPECT_TRUE(blocker.finished());
}

TEST(Kernel, BlockWithTimeoutExpires) {
  Fixture f;
  bool timed_out = false;
  f.sys.kernel(3).create_process("t", [&](Proc& p) {
    timed_out = p.block_with_timeout(f.eng.now() + 5000);
  });
  f.eng.run();
  EXPECT_TRUE(timed_out);
}

TEST(Kernel, WakeBeforeTimeoutReturnsFalse) {
  Fixture f;
  bool timed_out = true;
  auto& k = f.sys.kernel(3);
  Proc* target = nullptr;
  target = &k.create_process("t", [&](Proc& p) {
    timed_out = p.block_with_timeout(f.eng.now() + 500000);
  });
  k.create_process("w", [&](Proc& p) {
    p.compute(1000);
    target->wake();
  });
  f.eng.run();
  EXPECT_FALSE(timed_out);
}

TEST(Kernel, KillBlockedProcessRunsExitCallbacks) {
  Fixture f;
  bool exited = false;
  auto& k = f.sys.kernel(3);
  Proc& victim = k.create_process("victim", [&](Proc& p) { p.block(); });
  victim.on_exit([&] { exited = true; });
  k.create_process("killer", [&](Proc& p) {
    p.compute(100);
    victim.kill();
  });
  f.eng.run();
  EXPECT_TRUE(exited);
  EXPECT_TRUE(victim.was_killed());
  EXPECT_TRUE(victim.finished());
}

TEST(Kernel, KillQueuedProcessBeforeFirstDispatch) {
  Fixture f;
  bool ran = false;
  auto& k = f.sys.kernel(3);
  // Occupy the CPU so the victim stays queued.
  k.create_process("hog", [&](Proc& p) { p.compute(50000); });
  Proc& victim = k.create_process("victim", [&](Proc&) { ran = true; });
  f.eng.schedule(10, [&] { victim.kill(); });
  f.eng.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(victim.finished());
  EXPECT_EQ(k.live_count(), 0u);
}

// A kill that lands after a dispatch has woken a process, but before its
// body first runs, finishes it on the spot as for one still queued: its exit
// callbacks run, the PE dispatches the next process, and the body never runs.
TEST(Kernel, KillBetweenDispatchAndFirstRunFinishesTheProcess) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  bool ran = false;
  bool exited = false;
  bool next_ran = false;
  Proc& victim = k.create_process("victim", [&ran](Proc&) { ran = true; });
  victim.on_exit([&exited] { exited = true; });
  k.create_process("next", [&next_ran](Proc& p) {
    p.compute(10);
    next_ran = true;
  });
  // The dispatch queued at creation wakes `victim` when its context switch
  // ends; this kill, queued after it at that tick, fires before the resume
  // that wake queued.
  f.eng.schedule(f.machine.costs().context_switch, [&] {
    EXPECT_EQ(k.current(), &victim);
    victim.kill();
  });
  f.eng.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(exited);
  EXPECT_TRUE(victim.finished());
  EXPECT_TRUE(next_ran);
  EXPECT_EQ(k.live_count(), 0u);
}

// A killed process drops its body, and with it whatever the body captured
// (a force member's body holds the force's shared state), whether the kill
// unwound it from a wait or came before it ever ran.
TEST(Kernel, KilledBodyDropsWhatItCaptured) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  auto blocked_token = std::make_shared<int>(1);
  auto unstarted_token = std::make_shared<int>(2);
  const std::weak_ptr<int> blocked_watch = blocked_token;
  const std::weak_ptr<int> unstarted_watch = unstarted_token;
  Proc& blocked = k.create_process(
      "blocked", [t = std::move(blocked_token)](Proc& p) { p.block(); });
  Proc& unstarted = k.create_process(
      "unstarted", [t = std::move(unstarted_token)](Proc&) {});
  unstarted.kill();
  EXPECT_TRUE(unstarted.finished());
  EXPECT_TRUE(unstarted_watch.expired());
  f.eng.run();
  ASSERT_FALSE(blocked.finished());
  EXPECT_FALSE(blocked_watch.expired());
  blocked.kill();
  f.eng.run();
  EXPECT_TRUE(blocked.finished());
  EXPECT_TRUE(blocked_watch.expired());
}

// Released records go once they have finished; unreleased ones stay
// readable, and procs() lists only the unfinished. A block's deadline names
// only the sim::Process, so it holds the clock but not the record. The
// engine still counts every finished process.
TEST(Kernel, ReleasedRecordsGoOnceNothingNamesThem) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  Proc& kept = k.create_process("kept", [](Proc& p) { p.compute(10); });
  Proc& done = k.create_process("done", [](Proc& p) { p.compute(10); });
  Proc& early = k.create_process("early", [](Proc& p) { p.block(); });
  // Woken long before its deadline: the deadline's resume stays queued.
  Proc& timed = k.create_process("timed", [](Proc& p) {
    (void)p.block_with_timeout(1'000'000);
  });
  k.release(early);  // before it finishes: it goes when it does
  f.eng.schedule(50'000, [&] {
    timed.wake();
    k.release(timed);
  });
  f.eng.run_until(100'000);
  ASSERT_EQ(k.procs().size(), 1u);   // the other three have finished
  EXPECT_EQ(k.procs().front(), &early);
  k.release(done);                   // finished: gone now
  EXPECT_EQ(k.procs().size(), 1u);
  EXPECT_EQ(k.live_count(), 1u);     // `early`, still blocked
  f.eng.run_until(999'999);
  EXPECT_EQ(k.procs().size(), 1u);
  EXPECT_EQ(f.eng.pending_events(), 1u);  // `timed`'s stale deadline
  EXPECT_EQ(f.eng.run(), 1'000'000);
  EXPECT_EQ(k.procs().size(), 1u);
  early.kill();
  f.eng.run();
  EXPECT_EQ(k.procs().size(), 0u);
  f.eng.reap_finished();
  EXPECT_EQ(f.eng.live_process_count(), 0u);
  EXPECT_EQ(f.eng.reaped_process_count(), 4u);
  // Never released: its tombstone keeps it readable.
  EXPECT_EQ(kept.cpu_ticks(), 10 + f.machine.costs().process_create +
                                  f.machine.costs().process_exit);
}

// A process created on a halted PE is killed by a kill deferred to the
// same tick, so callbacks attached after create_process returns still run;
// its body never does, and a record released at once goes once it has ended.
TEST(Kernel, ProcessCreatedOnHaltedPeEndsKilledAfterItsCallbacksAttach) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  k.halt();
  bool ran = false;
  int exits = 0;
  Proc& kept = k.create_process("kept", [&ran](Proc&) { ran = true; });
  Proc& dropped = k.create_process("dropped", [&ran](Proc&) { ran = true; });
  kept.on_exit([&exits] { ++exits; });
  dropped.on_exit([&exits] { ++exits; });
  k.release(dropped);
  f.eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(exits, 2);
  EXPECT_TRUE(kept.finished());
  EXPECT_TRUE(kept.was_killed());
  EXPECT_EQ(k.live_count(), 0u);
  k.release(kept);
  f.eng.reap_finished();
  EXPECT_EQ(f.eng.reaped_process_count(), 2u);
}

TEST(Kernel, ExitCallbacksRunOnNormalCompletion) {
  Fixture f;
  std::vector<int> calls;
  auto& p = f.sys.kernel(3).create_process("t", [&](Proc& q) { q.compute(10); });
  p.on_exit([&] { calls.push_back(1); });
  p.on_exit([&] { calls.push_back(2); });
  f.eng.run();
  EXPECT_EQ(calls, (std::vector<int>{1, 2}));
}

TEST(Kernel, CpuTicksAccounted) {
  Fixture f;
  auto& p = f.sys.kernel(3).create_process("t", [&](Proc& q) { q.compute(1234); });
  f.eng.run();
  const auto& c = f.machine.costs();
  EXPECT_EQ(p.cpu_ticks(), c.process_create + 1234 + c.process_exit);
}

TEST(Kernel, BusyTicksAndUtilizationAccounting) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  k.create_process("t", [&](Proc& p) { p.compute(4000); });
  f.eng.run();
  const auto& c = f.machine.costs();
  // Busy = creation + work + exit; the context switch is not "useful work".
  EXPECT_EQ(k.busy_ticks(), c.process_create + 4000 + c.process_exit);
  EXPECT_GT(k.utilization(f.eng.now()), 0.9);
  EXPECT_LT(k.utilization(f.eng.now()), 1.0);
  EXPECT_EQ(f.sys.kernel(4).busy_ticks(), 0);
  EXPECT_EQ(f.sys.kernel(4).utilization(f.eng.now()), 0.0);
}

TEST(Kernel, YieldWithEmptyQueueIsNoOp) {
  Fixture f;
  f.sys.kernel(3).create_process("t", [&](Proc& p) {
    p.compute(10);
    p.yield();
    p.compute(10);
  });
  f.eng.run();
  EXPECT_EQ(f.sys.kernel(3).live_count(), 0u);
}

TEST(Kernel, ManyProcessesAllComplete) {
  Fixture f;
  int done = 0;
  auto& k = f.sys.kernel(3);
  for (int i = 0; i < 25; ++i) {
    k.create_process("p" + std::to_string(i), [&done](Proc& p) {
      p.compute(777);
      ++done;
    });
  }
  f.eng.run();
  EXPECT_EQ(done, 25);
  EXPECT_EQ(k.live_count(), 0u);
}

// ---------------------------------------------------------------------------
// Time slicing pinned by value. Each seed runs 3-6 processes on two PEs, each
// a random program of multi-slice and sub-slice computes, timed blocks that
// are woken early or time out, yields and wakes of the others. Engine
// closures kill one process while it holds the CPU mid-compute and one while
// it waits in the ready queue mid-compute, and halt a PE and restart it with
// a fresh process. The tick of every return from compute() and
// block_with_timeout(), every kill and every exit callback, the events fired,
// each kernel's dispatches and busy ticks and each process's CPU ticks fold
// into one hash per seed. The hashes were recorded with compute()'s slice
// loop on the body's stack; the suite's PISCES_SIM_THREADS=1 pass checks them
// on threads.
// ---------------------------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
};

struct SliceOp {
  enum Kind { long_compute, short_compute, block, yield, wake } kind;
  sim::Tick ticks;     ///< compute length, or block timeout from now
  std::size_t target;  ///< process to wake
};

std::vector<SliceOp> random_program(sim::Rng& rng, std::size_t peers, sim::Tick slice) {
  std::vector<SliceOp> ops(static_cast<std::size_t>(rng.range(5, 10)));
  for (auto& op : ops) {
    // Wakes twice as likely as the rest, so that some blocks end early.
    op.kind = static_cast<SliceOp::Kind>(std::min<std::uint64_t>(rng.below(6), 4));
    op.ticks = op.kind == SliceOp::long_compute    ? rng.range(slice + 1, 4 * slice)
               : op.kind == SliceOp::short_compute ? rng.range(1, slice - 1)
                                                   : rng.range(200, 8 * slice);
    op.target = rng.below(peers);
  }
  return ops;
}

std::uint64_t slicing_trajectory(std::uint64_t seed) {
  Fixture f;
  sim::Rng rng(0x9E3779B97F4A7C15ULL * seed);  // Rng ors in 1: spread the seeds
  const sim::Tick slice = f.machine.costs().time_slice;
  Fnv1a log;
  const auto note = [&](std::uint64_t what, std::size_t who, std::uint64_t extra) {
    log.add(what);
    log.add(static_cast<std::uint64_t>(f.eng.now()));
    log.add(who);
    log.add(extra);
  };
  const std::size_t n = 3 + rng.below(4);
  std::vector<Proc*> procs;
  std::vector<char> computing(n + 1, 0);
  const auto start = [&](Kernel& k, std::vector<SliceOp> program) {
    const std::size_t i = procs.size();
    Proc& p = k.create_process("p" + std::to_string(i), [&, i, program](Proc& self) {
      for (const SliceOp& op : program) {
        switch (op.kind) {
          case SliceOp::long_compute:
          case SliceOp::short_compute:
            computing[i] = 1;
            self.compute(op.ticks);
            computing[i] = 0;
            note(1, i, static_cast<std::uint64_t>(op.ticks));
            break;
          case SliceOp::block:
            note(2, i, self.block_with_timeout(f.eng.now() + op.ticks) ? 1 : 0);
            break;
          case SliceOp::yield:
            self.yield();
            break;
          case SliceOp::wake:
            procs[op.target]->wake();
            break;
        }
      }
    });
    p.on_exit([&, i] { note(3, i, procs[i]->was_killed() ? 1 : 0); });
    procs.push_back(&p);
  };
  for (std::size_t i = 0; i < n; ++i) {
    start(f.sys.kernel(3 + static_cast<int>(rng.below(2))), random_program(rng, n, slice));
  }
  // Polls every 37 ticks for a process mid-compute that holds its PE's CPU
  // (`queued` false) or waits in its ready queue (`queued` true), scanning
  // from a random index, and kills the first it finds.
  std::function<void(std::size_t, bool)> kill_when = [&](std::size_t from, bool queued) {
    bool alive = false;
    for (std::size_t k = 0; k < procs.size(); ++k) {
      const std::size_t v = (from + k) % procs.size();
      Proc& p = *procs[v];
      if (p.finished()) continue;
      alive = true;
      if (computing[v] != 0 && (p.kernel().current() == &p) != queued) {
        note(4, v, queued ? 1 : 0);
        p.kill();
        return;
      }
    }
    if (!alive) return;
    f.eng.schedule(f.eng.now() + 37, [&kill_when, from, queued] { kill_when(from, queued); });
  };
  const std::size_t on_cpu_from = rng.below(n);
  const std::size_t queued_from = rng.below(n);
  f.eng.schedule(rng.range(100, 6000), [&, on_cpu_from] { kill_when(on_cpu_from, false); });
  f.eng.schedule(rng.range(100, 6000), [&, queued_from] { kill_when(queued_from, true); });
  Kernel& halted = f.sys.kernel(3 + static_cast<int>(rng.below(2)));
  const sim::Tick halt_at = rng.range(3000, 25000);
  const sim::Tick restart_at = halt_at + rng.range(1, 5000);
  std::vector<SliceOp> late = random_program(rng, n, slice);
  f.eng.schedule(halt_at, [&] { halted.halt(); });
  f.eng.schedule(restart_at, [&] {
    halted.restart();
    start(halted, late);
  });
  f.eng.run();
  log.add(f.eng.events_fired());
  for (int pe = 3; pe <= 4; ++pe) {
    log.add(f.sys.kernel(pe).dispatches());
    log.add(static_cast<std::uint64_t>(f.sys.kernel(pe).busy_ticks()));
  }
  for (const Proc* p : procs) log.add(static_cast<std::uint64_t>(p->cpu_ticks()));
  return log.h;
}

TEST(KernelSlicing, SeededTrajectoriesArePinned) {
  constexpr std::uint64_t kPinned[] = {
      0xd14949a690f2bf87ULL, 0xe8dba94d138c5ac3ULL, 0xc1b715e47a3b257aULL,
      0xc58d07fef1a436acULL, 0x47b489e312304648ULL, 0x25986e06a8d3c325ULL,
      0xf50ca18b6178f90dULL, 0x65b4841d9ee10c48ULL, 0x8c029b303df379adULL,
      0x981d2a95c33a9b4aULL, 0xb582a447c73b4900ULL, 0x0884c5ffd3544710ULL,
      0xffdb94fa8e50b41eULL, 0xb3a0aa463d9a0677ULL, 0xd32275d4e676f08cULL,
      0x9766a773074635d2ULL, 0x09e5cfce7c8233e9ULL, 0x5935d6352259526fULL,
      0x8a0c903d13fcc4d9ULL, 0x73e435e6094c31e1ULL, 0x0aa5d9c25ac434caULL,
      0xdc8b61e1280d0d22ULL, 0xd5e258cd86d662e5ULL, 0xf7b416a953804b6cULL,
      0x699423e0ebf4a9d7ULL, 0x4e1cbf120d06f0d6ULL, 0xe61731e486fb5ab1ULL,
      0x376e0c0f9614ab08ULL, 0xe546fd7fb841a9d6ULL, 0x943580c8644ee0e2ULL,
      0x7953b974fc541e25ULL, 0x667ee8b485a6b7c4ULL, 0xb7f78bdc69701e1cULL,
      0xb555b024ce1e3749ULL, 0x62d874ca37e4d713ULL, 0x3ff7fad13a1c45f3ULL,
      0x64ec82e444672262ULL, 0x8692953a7538e8e8ULL, 0x8a28d7d371d1b95dULL,
      0x8d3fb95245e89154ULL,
  };
  for (std::uint64_t seed = 1; seed <= std::size(kPinned); ++seed) {
    EXPECT_EQ(slicing_trajectory(seed), kPinned[seed - 1]) << "seed " << seed;
  }
}

// Switches into a body (sim::Engine::body_switches), the same on both
// backends: a compute() that has to wait is switched into only when it is
// done, however many slices it takes and however often it is dispatched
// again, or when its process is killed.

TEST(KernelSwitches, ComputeIsSwitchedIntoOnlyWhenDoneOrKilled) {
  for (const sim::Backend backend : {sim::Backend::fibers, sim::Backend::threads}) {
    SCOPED_TRACE(backend == sim::Backend::fibers ? "fibers" : "threads");
    {
      // Four processes share one PE, 8,000 ticks each.
      Fixture f(backend);
      auto& k = f.sys.kernel(3);
      for (int i = 0; i < 4; ++i) {
        k.create_process("p" + std::to_string(i), [](Proc& p) { p.compute(8000); });
      }
      f.eng.run();
      EXPECT_EQ(f.eng.now(), 37800);
      EXPECT_EQ(k.busy_ticks(), 36000);
      EXPECT_EQ(f.eng.events_fired(), 72U);
      EXPECT_EQ(f.eng.body_switches(), 8U);  // each start, each compute(8000) return
    }
    {
      // One of two computing processes is killed mid-compute.
      Fixture f(backend);
      auto& k = f.sys.kernel(3);
      Proc& victim = k.create_process("victim", [](Proc& p) { p.compute(8000); });
      k.create_process("other", [](Proc& p) { p.compute(8000); });
      f.eng.schedule(2500, [&victim] { victim.kill(); });
      f.eng.run();
      EXPECT_TRUE(victim.was_killed());
      EXPECT_EQ(f.eng.now(), 10550);
      EXPECT_EQ(victim.cpu_ticks(), 1000);  // killed in its second quantum
      EXPECT_EQ(f.eng.events_fired(), 12U);
      EXPECT_EQ(f.eng.body_switches(), 4U);  // two starts, an unwind, a return
    }
  }
}

TEST(System, KernelAccessMatchesMmosPes) {
  Fixture f;
  EXPECT_THROW((void)f.sys.kernel(1), std::out_of_range);
  EXPECT_THROW((void)f.sys.kernel(2), std::out_of_range);
  EXPECT_NO_THROW((void)f.sys.kernel(3));
  EXPECT_NO_THROW((void)f.sys.kernel(20));
  EXPECT_THROW((void)f.sys.kernel(21), std::out_of_range);
}

TEST(System, LoadfileChargesEveryMmosPe) {
  Fixture f;
  Loadfile lf;
  f.sys.load(lf);
  for (int pe = 3; pe <= 20; ++pe) {
    auto& mem = f.machine.local_memory(pe);
    EXPECT_EQ(mem.used_by("mmos-kernel"), lf.mmos_kernel_bytes);
    EXPECT_EQ(mem.used_by("pisces-code"), lf.pisces_code_bytes);
    EXPECT_EQ(mem.used_by("user-code"), lf.user_code_bytes);
  }
  EXPECT_EQ(f.machine.local_memory(1).used(), 0u);  // Unix PEs untouched
}

TEST(Console, RecordsTimestampedLines) {
  Console c;
  c.write_line(5, "hello");
  c.write_line(9, "world");
  ASSERT_EQ(c.lines().size(), 2u);
  EXPECT_EQ(c.lines()[0].at, 5);
  EXPECT_EQ(c.lines()[1].text, "world");
  EXPECT_TRUE(c.contains("hell"));
  EXPECT_FALSE(c.contains("mars"));
}

// Property: for any mix of compute sizes, total CPU consumed on one PE
// equals the sum of work plus per-process overheads, and the PE is never
// double-booked (finish time >= total CPU).
class KernelLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelLoadTest, CpuConservation) {
  Fixture f;
  const int n = GetParam();
  sim::Tick total_work = 0;
  auto& k = f.sys.kernel(5);
  std::vector<const Proc*> created;
  for (int i = 0; i < n; ++i) {
    const sim::Tick work = 100 + 137 * i;
    total_work += work;
    created.push_back(&k.create_process("p" + std::to_string(i),
                                        [work](Proc& p) { p.compute(work); }));
  }
  const sim::Tick end = f.eng.run();
  const auto& c = f.machine.costs();
  const sim::Tick overhead_per = c.process_create + c.process_exit;
  sim::Tick total_cpu = 0;
  for (const Proc* p : created) total_cpu += p->cpu_ticks();
  EXPECT_EQ(total_cpu, total_work + n * overhead_per);
  EXPECT_GE(end, total_cpu);  // context switches add on top
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelLoadTest, ::testing::Values(1, 2, 5, 11, 20));

}  // namespace
}  // namespace pisces::mmos
