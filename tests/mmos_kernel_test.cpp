// Unit tests for the MMOS kernel: multiprogramming, time slicing, blocking,
// wakes, kills, and exit callbacks.
#include "mmos/kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mmos/system.hpp"

namespace pisces::mmos {
namespace {

struct Fixture {
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

// Released records go once they have finished and no queued event names
// them; unreleased ones stay readable. The engine still counts every
// finished process.
TEST(Kernel, ReleasedRecordsGoOnceNothingNamesThem) {
  Fixture f;
  auto& k = f.sys.kernel(3);
  Proc& kept = k.create_process("kept", [](Proc& p) { p.compute(10); });
  Proc& done = k.create_process("done", [](Proc& p) { p.compute(10); });
  Proc& early = k.create_process("early", [](Proc& p) { p.block(); });
  // Woken long before its deadline: the deadline's event stays queued.
  Proc& timed = k.create_process("timed", [](Proc& p) {
    (void)p.block_with_timeout(1'000'000);
  });
  k.release(early);  // before it finishes: it goes when it does
  f.eng.schedule(50'000, [&] {
    timed.wake();
    k.release(timed);
  });
  f.eng.run_until(100'000);
  EXPECT_EQ(k.procs().size(), 4u);
  k.release(done);
  EXPECT_EQ(k.procs().size(), 3u);   // finished, nothing queued: gone now
  EXPECT_EQ(k.live_count(), 1u);     // `early`, still blocked
  f.eng.run_until(999'999);
  EXPECT_EQ(k.procs().size(), 3u);   // `timed` waits for its deadline event
  f.eng.run();
  EXPECT_EQ(k.procs().size(), 2u);
  early.kill();
  f.eng.run();
  ASSERT_EQ(k.procs().size(), 1u);
  EXPECT_EQ(k.procs().front().get(), &kept);
  EXPECT_EQ(kept.cpu_ticks(), 10 + f.machine.costs().process_create +
                                  f.machine.costs().process_exit);
  EXPECT_TRUE(k.live_count_consistent());
  f.eng.reap_finished();
  EXPECT_EQ(f.eng.live_process_count(), 0u);
  EXPECT_EQ(f.eng.reaped_process_count(), 4u);
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
  for (int i = 0; i < n; ++i) {
    const sim::Tick work = 100 + 137 * i;
    total_work += work;
    k.create_process("p" + std::to_string(i),
                     [work](Proc& p) { p.compute(work); });
  }
  const sim::Tick end = f.eng.run();
  const auto& c = f.machine.costs();
  const sim::Tick overhead_per = c.process_create + c.process_exit;
  sim::Tick total_cpu = 0;
  for (const auto& p : k.procs()) total_cpu += p->cpu_ticks();
  EXPECT_EQ(total_cpu, total_work + n * overhead_per);
  EXPECT_GE(end, total_cpu);  // context switches add on top
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelLoadTest, ::testing::Values(1, 2, 5, 11, 20));

}  // namespace
}  // namespace pisces::mmos
