// Unit tests for the discrete-event engine: event ordering, process
// handshake, waits, timeouts, wakes, kills, and determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace pisces::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30, [&] { order.push_back(3); });
  eng.schedule(10, [&] { order.push_back(1); });
  eng.schedule(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EventQueue, SameTickFiresInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule(5, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule(1, [&] {
    ++fired;
    eng.schedule_in(4, [&] { ++fired; });
  });
  eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 5);
}

TEST(EventQueue, PastTicksClampToNow) {
  Engine eng;
  Tick seen = -1;
  eng.schedule(10, [&] { eng.schedule(3, [&] { seen = eng.now(); }); });
  eng.run();
  EXPECT_EQ(seen, 10);
}

TEST(Process, RunsBodyWhenWoken) {
  Engine eng;
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(7, [&] { eng.wake(p); });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, NotStartedUntilWoken) {
  Engine eng;
  bool ran = false;
  eng.spawn("t", [&](Process&) { ran = true; });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Process, SleepAdvancesVirtualTime) {
  Engine eng;
  std::vector<Tick> stamps;
  Process& p = eng.spawn("t", [&](Process& self) {
    stamps.push_back(eng.now());
    self.sleep_until(100);
    stamps.push_back(eng.now());
    self.sleep_until(250);
    stamps.push_back(eng.now());
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(stamps, (std::vector<Tick>{0, 100, 250}));
}

TEST(Process, InterleavesDeterministically) {
  Engine eng;
  std::string log;
  Process& a = eng.spawn("a", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log += 'a';
      self.sleep_until(eng.now() + 10);
    }
  });
  Process& b = eng.spawn("b", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log += 'b';
      self.sleep_until(eng.now() + 10);
    }
  });
  eng.schedule(0, [&] { eng.wake(a); });
  eng.schedule(5, [&] { eng.wake(b); });
  eng.run();
  EXPECT_EQ(log, "ababab");
}

TEST(Process, WaitIsWokenByAnotherProcess) {
  Engine eng;
  Tick woke_at = -1;
  Process& sleeper = eng.spawn("sleeper", [&](Process& self) {
    self.wait();
    woke_at = eng.now();
  });
  Process& waker = eng.spawn("waker", [&](Process& self) {
    self.sleep_until(42);
    eng.wake(sleeper);
  });
  eng.schedule(0, [&] {
    eng.wake(sleeper);
    eng.wake(waker);
  });
  eng.run();
  EXPECT_EQ(woke_at, 42);
}

TEST(Process, WaitUntilTimesOut) {
  Engine eng;
  bool timed_out = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    timed_out = self.wait_until(eng.now() + 99);
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(eng.now(), 99);
}

TEST(Process, WakeBeatsTimeout) {
  Engine eng;
  bool timed_out = true;
  Process& p = eng.spawn("t", [&](Process& self) {
    timed_out = self.wait_until(1000);
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(eng.now(), 1000);  // the stale timeout event still fires (no-op)
}

TEST(Process, StaleTimeoutFromEarlierWaitIsIgnored) {
  Engine eng;
  std::vector<bool> results;
  Process& p = eng.spawn("t", [&](Process& self) {
    results.push_back(self.wait_until(200));  // woken at 50
    results.push_back(self.wait_until(150));  // must not be hit by the 200 event... times out at 150
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST(Process, RedundantWakeIsHarmless) {
  Engine eng;
  int wakes = 0;
  Process& p = eng.spawn("t", [&](Process& self) {
    self.wait();
    ++wakes;
    self.wait();
    ++wakes;
  });
  eng.schedule(0, [&] { eng.wake(p); });   // start
  eng.schedule(10, [&] { eng.wake(p); });  // first wait
  eng.schedule(10, [&] { eng.wake(p); });  // duplicate, same tick
  eng.schedule(20, [&] { eng.wake(p); });  // second wait
  eng.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Process, KillUnwindsBlockedProcess) {
  Engine eng;
  bool after_wait = false;
  bool cleanup_ran = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&cleanup_ran};
    self.wait();
    after_wait = true;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(10, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(after_wait);
  EXPECT_TRUE(cleanup_ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, KillBeforeStartSkipsBody) {
  Engine eng;
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(0, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, BodyExceptionPropagatesToRun) {
  Engine eng;
  Process& p = eng.spawn("t", [&](Process&) {
    throw std::runtime_error("boom");
  });
  eng.schedule(0, [&] { eng.wake(p); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, DetectsBlockedProcessesAfterRun) {
  Engine eng;
  Process& p = eng.spawn("stuck", [&](Process& self) { self.wait(); });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  auto blocked = eng.blocked_processes();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0]->name(), "stuck");
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  int fired = 0;
  eng.schedule(10, [&] { ++fired; });
  eng.schedule(20, [&] { ++fired; });
  eng.schedule(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, ManyProcessesDeterministicFinalTime) {
  // The same program must produce the identical tick trajectory each run.
  auto simulate = [] {
    Engine eng;
    Tick total = 0;
    for (int i = 0; i < 40; ++i) {
      Process& p = eng.spawn("p" + std::to_string(i), [&eng, i](Process& self) {
        for (int k = 0; k < 5; ++k) self.sleep_until(eng.now() + 7 + i);
      });
      eng.schedule(i % 3, [&eng, &p] { eng.wake(p); });
    }
    total = eng.run();
    return std::pair(total, eng.events_fired());
  };
  auto a = simulate();
  auto b = simulate();
  EXPECT_EQ(a, b);
}

// Same-tick events must fire in insertion order even when pops and pushes
// interleave (the heap reorders internally; the seq tiebreak is what keeps
// the observable order stable).
TEST(EventQueue, PopPushInterleavingKeepsSameTickStable) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.push(10, [&order, i] { order.push_back(i); });
  }
  q.push(5, [&order] { order.push_back(-1); });
  Tick at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  for (int i = 8; i < 12; ++i) {
    q.push(10, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    EXPECT_EQ(q.next_tick(), 10);
    q.pop(&at)();
    EXPECT_EQ(at, 10);
  }
  std::vector<int> want{-1};
  for (int i = 0; i < 12; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

// Out-of-order pushes (a tick below the one just popped) go into the same
// heap as every other push; order must stay exact (tick first, then
// insertion sequence). The Engine never does this — it clamps to now — but
// the queue must not silently misorder if misused.
TEST(EventQueue, OutOfOrderPushAfterPopStaysTimeOrdered) {
  EventQueue q;
  std::vector<int> order;
  auto rec = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.push(10, rec(0));
  q.push(10, rec(1));
  q.pop()();          // fires 0; tick 10 becomes current
  q.push(10, rec(2)); // at the tick just popped: after 1
  q.push(3, rec(3));  // below it: fires first
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueue, PushAtPoppedTickCountsInSizeAndNextTick) {
  EventQueue q;
  q.push(5, [] {});
  q.push(5, [] {});
  Tick at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  q.push(5, [] {});  // at the tick just popped
  q.push(9, [] {});  // later
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_tick(), 5);
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  EXPECT_EQ(q.next_tick(), 9);
}

// ---------------------------------------------------------------------------
// Process lifecycle on both scheduling substrates. The fiber and thread
// backends must be observationally identical; every scenario here runs on
// each. (Under ThreadSanitizer both instances use the thread backend — see
// default_backend() — so the suite still passes, just with less diversity.)
// ---------------------------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<Backend> {};

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::fibers ? "fibers" : "threads";
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values(Backend::fibers, Backend::threads),
                         backend_name);

TEST_P(BackendTest, KillBeforeStartSkipsBodyAndAllocatesNothing) {
  Engine eng(GetParam());
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(0, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST_P(BackendTest, KillDuringTimedWaitUnwindsWithCleanup) {
  Engine eng(GetParam());
  bool after_wait = false;
  bool cleanup_ran = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&cleanup_ran};
    (void)self.wait_until(eng.now() + 100);
    after_wait = true;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(after_wait);
  EXPECT_TRUE(cleanup_ran);
  EXPECT_EQ(p.state(), Process::State::finished);
  // The stale deadline event at 100 still fires as a no-op.
  EXPECT_EQ(eng.now(), 100);
}

TEST_P(BackendTest, StaleTimeoutFromEarlierWaitIsIgnored) {
  Engine eng(GetParam());
  std::vector<bool> results;
  Process& p = eng.spawn("t", [&](Process& self) {
    results.push_back(self.wait_until(200));  // woken at 50
    results.push_back(self.wait_until(150));  // times out at 150
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST_P(BackendTest, StaleResumeAfterProcessFinishedIsIgnored) {
  Engine eng(GetParam());
  Process& p = eng.spawn("t", [&](Process& self) {
    (void)self.wait_until(eng.now() + 500);  // woken long before the deadline
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(10, [&] { eng.wake(p); });
  eng.run();  // deadline event at 500 fires after the process finished
  EXPECT_EQ(p.state(), Process::State::finished);
  EXPECT_EQ(eng.now(), 500);
}

TEST_P(BackendTest, BodyExceptionPropagatesToRun) {
  Engine eng(GetParam());
  Process& p = eng.spawn("t", [&](Process&) {
    throw std::runtime_error("boom");
  });
  eng.schedule(0, [&] { eng.wake(p); });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST_P(BackendTest, ShutdownProcessesIsIdempotent) {
  Engine eng(GetParam());
  int cleanups = 0;
  struct Guard {
    int* n;
    ~Guard() { ++*n; }
  };
  for (int i = 0; i < 3; ++i) {
    Process& p = eng.spawn("t", [&cleanups](Process& self) {
      Guard g{&cleanups};
      self.wait();
    });
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 3u);
  eng.shutdown_processes();
  EXPECT_EQ(cleanups, 3);
  EXPECT_EQ(eng.live_process_count(), 0u);
  eng.shutdown_processes();  // second call: nothing left to unwind
  EXPECT_EQ(cleanups, 3);
}

TEST_P(BackendTest, NestedSpawnAndChurnStaysDeterministic) {
  Engine eng(GetParam());
  std::vector<std::string> log;
  Process& parent = eng.spawn("parent", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      Process& child =
          eng.spawn("c" + std::to_string(i), [&log, i, &eng](Process& c) {
            log.push_back("c" + std::to_string(i) + "@" +
                          std::to_string(eng.now()));
            c.sleep_until(eng.now() + 5);
          });
      eng.wake(child);
      self.sleep_until(eng.now() + 10);
    }
  });
  eng.schedule(0, [&] { eng.wake(parent); });
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"c0@0", "c1@10", "c2@20"}));
}

// The two backends must produce bit-identical simulations: same final tick,
// same event count, same interleaving.
TEST(Backend, TickTrajectoriesIdenticalAcrossBackends) {
  auto simulate = [](Backend backend) {
    Engine eng(backend);
    std::string log;
    for (int i = 0; i < 10; ++i) {
      Process& p =
          eng.spawn("p" + std::to_string(i), [&eng, &log, i](Process& self) {
            for (int k = 0; k < 4; ++k) {
              log += static_cast<char>('a' + i);
              self.sleep_until(eng.now() + 3 + i);
            }
          });
      eng.schedule(i % 4, [&eng, &p] { eng.wake(p); });
    }
    const Tick final_tick = eng.run();
    return std::tuple(final_tick, eng.events_fired(), log);
  };
  EXPECT_EQ(simulate(Backend::fibers), simulate(Backend::threads));
}

// ---------------------------------------------------------------------------
// Run-ahead and typed resume events. A process whose own resume would be the
// next event fired moves the clock and keeps running; every other resume is
// a typed queue entry, and closures live in a recycled side store.
// ---------------------------------------------------------------------------

TEST_P(BackendTest, LoneSleeperRunsAheadWithoutEvents) {
  Engine eng(GetParam());
  std::vector<Tick> stamps;
  Process& p = eng.spawn("lone", [&](Process& self) {
    for (int i = 0; i < 10; ++i) {
      self.sleep_until(eng.now() + 7);
      stamps.push_back(eng.now());
    }
  });
  eng.schedule(0, [&] { eng.wake(p); });
  EXPECT_EQ(eng.run(), 70);
  ASSERT_EQ(stamps.size(), 10u);
  EXPECT_EQ(stamps.back(), 70);
  EXPECT_EQ(eng.events_fired(), 2u);  // the wake closure and the first resume
}

TEST_P(BackendTest, RunUntilStopsLoneProcessAtLimit) {
  auto start = [](Engine& eng) {
    Process& p = eng.spawn("lone", [&eng](Process& self) {
      for (int i = 0; i < 10; ++i) self.sleep_until(eng.now() + 7);
    });
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  };
  Engine whole(GetParam());
  start(whole);
  const Tick uninterrupted = whole.run();

  Engine split(GetParam());
  start(split);
  EXPECT_EQ(split.run_until(30), 28);
  EXPECT_LE(split.now(), 30);
  EXPECT_EQ(split.pending_events(), 1u);  // the resume at 35
  EXPECT_EQ(split.run(), uninterrupted);
}

TEST_P(BackendTest, RunUntilRestoresHorizonWhenBodyThrows) {
  Engine eng(GetParam());
  Process& thrower = eng.spawn("thrower", [](Process&) {
    throw std::runtime_error("boom");
  });
  Process& sleeper = eng.spawn("sleeper", [&eng](Process& self) {
    for (int i = 0; i < 5; ++i) self.sleep_until(eng.now() + 100);
  });
  eng.schedule(0, [&] { eng.wake(thrower); });
  EXPECT_THROW(eng.run_until(10), std::runtime_error);
  eng.schedule(20, [&] { eng.wake(sleeper); });
  const std::uint64_t before = eng.events_fired();
  EXPECT_EQ(eng.run(), 520);
  // The wake closure and the sleeper's first resume; with the old limit of
  // 10 left in place, each of the five sleeps would have been an event too.
  EXPECT_EQ(eng.events_fired() - before, 2u);
}

// Closure 'a' is queued at 10 before the sleeper's resume, so it has the
// lower sequence number and the sleeper may not run ahead past it; 'b' is
// pushed at 10 after the resume.
TEST_P(BackendTest, ResumeAndClosuresAtOneTickFireInPushOrder) {
  Engine eng(GetParam());
  std::string log;
  Process& p = eng.spawn("p", [&](Process& self) {
    self.sleep_until(10);
    log += 'p';
  });
  eng.schedule(10, [&] {
    log += 'a';
    eng.schedule(10, [&] { log += 'b'; });
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(log, "apb");
}

// A place reserved with reserve_order() and filled later with
// schedule_reserved() fires where schedule() at reservation time would have
// put the event: after events queued before the reservation, before events
// queued after it, both at a future tick and at the current tick (where the
// later pushes share the tick being fired), and against a typed resume.
TEST_P(BackendTest, ReservedPlaceFiresWhereScheduleWouldHave) {
  auto simulate = [backend = GetParam()](bool reserve) {
    Engine eng(backend);
    std::string log;
    EventSlot later{};
    EventSlot same_tick{};
    auto mark = [&log](char c) { return [&log, c] { log += c; }; };
    Process& p = eng.spawn("p", [&](Process& self) {
      self.sleep_until(20);  // queued at tick 0: before everything at 20
      log += 'p';
    });
    eng.schedule(0, [&] { eng.wake(p); });
    eng.schedule(5, [&] {
      eng.schedule(20, mark('a'));
      if (reserve) {
        later = eng.reserve_order(20);
        same_tick = eng.reserve_order(5);
      } else {
        eng.schedule(20, mark('R'));
        eng.schedule(5, mark('S'));
      }
      eng.schedule(20, mark('b'));
      eng.schedule(5, mark('c'));
      if (reserve) eng.schedule_reserved(same_tick, mark('S'));  // after 'c'
    });
    // Filled at tick 10, by an event queued after the reservation.
    eng.schedule(10, [&] {
      if (reserve) eng.schedule_reserved(later, mark('R'));
    });
    eng.run();
    return std::pair(log, eng.events_fired());
  };
  EXPECT_EQ(simulate(true).first, "ScpaRb");
  EXPECT_EQ(simulate(true), simulate(false));
}

// A reservation never filled counts as a no-op event wherever a run stops:
// the clock reaches the latest reserved tick before the engine goes idle, a
// run_until limit stops it at the last reserved tick up to the limit, and
// the places beyond the limit stay pending.
TEST_P(BackendTest, UnfilledReservationHoldsTheEndOfARun) {
  auto start = [](Engine& eng) {
    eng.schedule(5, [&eng] {
      (void)eng.reserve_order(40);
      (void)eng.reserve_order(30);
    });
  };
  Engine whole(GetParam());
  start(whole);
  EXPECT_EQ(whole.run(), 40);
  EXPECT_EQ(whole.events_fired(), 1u);
  EXPECT_EQ(whole.pending_events(), 0u);
  EXPECT_FALSE(whole.step());

  Engine cut(GetParam());
  start(cut);
  EXPECT_EQ(cut.run_until(35), 30);
  EXPECT_EQ(cut.pending_events(), 1u);
  EXPECT_EQ(cut.run_until(40), 40);
  EXPECT_EQ(cut.pending_events(), 0u);

  // A filled place is one pending event, not an event and a reservation.
  Engine filled(GetParam());
  filled.schedule(5, [&filled] {
    filled.schedule_reserved(filled.reserve_order(40), [] {});
  });
  EXPECT_EQ(filled.run_until(35), 5);
  EXPECT_EQ(filled.pending_events(), 1u);
  EXPECT_EQ(filled.run(), 40);
}

TEST_P(BackendTest, StaleTypedResumeIsANoOp) {
  Engine eng(GetParam());
  int woken = 0;
  Process& p = eng.spawn("p", [&](Process& self) {
    (void)self.wait_until(100);  // woken at 50: the resume at 100 goes stale
    ++woken;
    self.wait();  // must not be ended by the stale resume
    ++woken;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(p.state(), Process::State::blocked);
  EXPECT_EQ(eng.now(), 100);  // the stale resume still fired
  EXPECT_EQ(eng.events_fired(), 5u);
}

TEST(EventQueue, ClosureSlotsAreReused) {
  EventQueue q;
  int fired = 0;
  for (Tick t = 0; t < 4; ++t) q.push(t, [&fired] { ++fired; });
  for (Tick t = 4; t < 100'000; ++t) {
    q.pop()();
    q.push(t, [&fired] { ++fired; });
  }
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, 100'000);
  EXPECT_EQ(q.closure_slots(), 4u);
}

TEST(EventQueue, PushesAfterAPopFireByTickThenScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  auto rec = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.push(5, rec(0));
  q.push(12, rec(1));
  q.pop()();          // tick 5 is current
  q.push(9, rec(2));  // a later tick, before the one already queued
  q.push(12, rec(3));
  q.push(9, rec(4));
  EXPECT_EQ(q.next_tick(), 9);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3}));
}

// Differential oracle for run-ahead. A seeded random program of sleeps,
// deadline waits and cross-process wakes runs twice: plain, and with a no-op
// "ticker" closure re-armed at every tick, which keeps an event queued at
// every future tick so that no process can ever run ahead. The global order
// of process steps, with the tick and outcome of each, must be identical,
// and the plain run must fire fewer events than the ticker run's processes.
struct RandomRun {
  std::vector<std::array<Tick, 4>> steps;  ///< (process, step, tick, outcome)
  std::uint64_t events = 0;                ///< excluding the ticker's own
};

RandomRun run_random_program(Backend backend, std::uint64_t seed, bool ticker) {
  Engine eng(backend);
  // Odd seeds throughout: Rng ors 1 into its seed, so 2k and 2k+1 would
  // share a stream.
  Rng shape(2 * seed + 1);
  const int n = 3 + static_cast<int>(shape.below(4));
  RandomRun out;
  std::vector<Process*> procs;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t stream = 2 * (seed * 131 + static_cast<std::uint64_t>(i)) + 1;
    procs.push_back(&eng.spawn("r" + std::to_string(i), [&, i, stream](Process& self) {
      Rng rng(stream);
      const Tick steps = rng.range(10, 40);
      for (Tick k = 0; k < steps; ++k) {
        Tick outcome = 0;
        switch (rng.below(5)) {
          case 0:
            self.sleep_until(eng.now() + rng.range(1, 4));
            break;
          case 1:
            self.sleep_until(eng.now() + rng.range(1, 40));
            break;
          case 2:  // aligned, so sleepers often meet at one tick
            self.sleep_until((eng.now() / 8 + 1) * 8);
            break;
          case 3:
            outcome = self.wait_until(eng.now() + rng.range(1, 12)) ? 2 : 1;
            break;
          default:
            eng.wake(*procs[rng.below(procs.size())]);
            outcome = 3;
            break;
        }
        out.steps.push_back({i, k, eng.now(), outcome});
      }
    }));
  }
  for (Process* p : procs) {
    eng.schedule(shape.range(0, 3), [&eng, p] { eng.wake(*p); });
  }
  std::uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (eng.live_process_count() > 0) eng.schedule(eng.now() + 1, tick);
  };
  if (ticker) eng.schedule(0, tick);
  eng.run();
  out.events = eng.events_fired() - ticks;
  return out;
}

TEST_P(BackendTest, RunAheadMatchesTickerOracleOverRandomPrograms) {
  std::uint64_t plain_events = 0;
  std::uint64_t oracle_events = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const RandomRun plain = run_random_program(GetParam(), seed, false);
    const RandomRun oracle = run_random_program(GetParam(), seed, true);
    ASSERT_EQ(plain.steps, oracle.steps) << "seed " << seed;
    EXPECT_LE(plain.events, oracle.events) << "seed " << seed;
    plain_events += plain.events;
    oracle_events += oracle.events;
  }
  EXPECT_LT(plain_events, oracle_events);
}

// ---------------------------------------------------------------------------
// Reaping: finished processes shed their heavy state but stay addressable.
// ---------------------------------------------------------------------------

TEST_P(BackendTest, ReapFinishedKeepsReferencesValid) {
  Engine eng(GetParam());
  std::vector<Process*> procs;
  for (int i = 0; i < 5; ++i) {
    Process& p = eng.spawn("r" + std::to_string(i), [](Process&) {});
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
    procs.push_back(&p);
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 0u);
  eng.reap_finished();
  EXPECT_EQ(eng.reaped_process_count(), 5u);
  // The documented contract: references returned by spawn() stay valid for
  // the Engine's lifetime, reaped or not.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(procs[static_cast<std::size_t>(i)]->state(),
              Process::State::finished);
    EXPECT_EQ(procs[static_cast<std::size_t>(i)]->name(),
              "r" + std::to_string(i));
  }
}

// A released process goes only once no queued resume names it: a sleeper
// killed mid-sleep leaves its original resume queued, and that resume still
// reads the record when it fires.
TEST_P(BackendTest, ReleasedProcessOutlivesItsStaleResume) {
  Engine eng(GetParam());
  Process& sleeper = eng.spawn("sleeper", [&eng](Process& self) {
    self.sleep_until(eng.now() + 1'000);
  });
  eng.schedule(0, [&] { eng.wake(sleeper); });
  eng.schedule(10, [&] { eng.kill(sleeper); });
  eng.run_until(20);
  ASSERT_EQ(sleeper.state(), Process::State::finished);
  EXPECT_EQ(eng.pending_events(), 1u);  // the resume at tick 1000
  eng.reap_finished();
  eng.release(sleeper);
  eng.run();
  EXPECT_EQ(eng.now(), 1'000);
  EXPECT_EQ(eng.reaped_process_count(), 1u);
  // Released before it is reaped: it goes at the reap.
  Process& quick = eng.spawn("quick", [](Process&) {});
  eng.schedule(eng.now(), [&] { eng.wake(quick); });
  eng.run();
  eng.release(quick);
  eng.reap_finished();
  EXPECT_EQ(eng.reaped_process_count(), 2u);
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST_P(BackendTest, ReapLeavesLiveProcessesScannable) {
  Engine eng(GetParam());
  Process& stuck = eng.spawn("stuck", [](Process& self) { self.wait(); });
  eng.schedule(0, [&] { eng.wake(stuck); });
  for (int i = 0; i < 4; ++i) {
    Process& p = eng.spawn("done", [](Process&) {});
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  eng.reap_finished();
  EXPECT_EQ(eng.reaped_process_count(), 4u);
  auto blocked = eng.blocked_processes();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0]->name(), "stuck");
  EXPECT_EQ(eng.live_process_count(), 1u);
}

// A parked body's resumes run its step on the engine side. The body is
// switched in at its start and then only once the step reports it done, or
// by the first resume after a kill, from which it unwinds; the step's waits
// are the same events the body's own waits would be.
struct Rearm {
  Engine* eng = nullptr;
  Process* self = nullptr;
  int steps = 0;
  /// Re-arms a 100-tick wait four times, then lets the body continue.
  static bool step(void* arg) {
    auto& r = *static_cast<Rearm*>(arg);
    if (++r.steps == 5) return true;
    r.self->arm_wait(r.eng->now() + 100);
    return false;
  }
};

TEST_P(BackendTest, ParkedBodyIsSwitchedInOnlyWhenItsStepIsDone) {
  Engine eng(GetParam());
  Rearm r{&eng};
  Tick resumed_at = -1;
  Process& p = eng.spawn("parker", [&](Process& self) {
    r.self = &self;
    self.arm_wait(eng.now() + 100);
    self.park(&Rearm::step, &r);
    resumed_at = eng.now();
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(resumed_at, 500);
  EXPECT_EQ(r.steps, 5);
  EXPECT_EQ(eng.body_switches(), 2u);  // its start and its return from park
  EXPECT_EQ(eng.events_fired(), 7u);   // the wake, its resume, five deadlines
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST_P(BackendTest, KilledParkedBodyUnwindsWithoutAnotherStep) {
  Engine eng(GetParam());
  Rearm r{&eng};
  bool returned = false;
  Process& p = eng.spawn("victim", [&](Process& self) {
    r.self = &self;
    self.arm_wait(eng.now() + 100);
    self.park(&Rearm::step, &r);
    returned = true;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(250, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(returned);
  EXPECT_EQ(r.steps, 2);  // the deadlines at 100 and 200
  EXPECT_EQ(p.state(), Process::State::finished);
  EXPECT_EQ(eng.body_switches(), 2u);  // its start and its unwind
  // The deadline armed at 200 still fires at 300, stale.
  EXPECT_EQ(eng.now(), 300);
}

// ---------------------------------------------------------------------------
// Stack recycling: a finished fiber's stack serves the next process to start,
// so an engine maps no more stacks than the most fibers ever live at once.
// ctest runs this suite a second time at the smallest stack
// PISCES_SIM_STACK_KB allows.
// ---------------------------------------------------------------------------

class StackRecycling : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, StackRecycling,
                         ::testing::Values(Backend::fibers, Backend::threads),
                         backend_name);

/// Stacks an engine should have made for `fibers` processes live at once
/// (under TSan both parameters run on threads, which make none).
std::size_t stacks_for(const Engine& eng, std::size_t fibers) {
  return eng.backend() == Backend::fibers ? fibers : 0;
}

TEST_P(StackRecycling, OneAfterAnotherShareOneStack) {
  Engine eng(GetParam());
  int finished = 0;
  for (int i = 0; i < 1000; ++i) {
    Process& p = eng.spawn("seq", [&eng, &finished](Process& self) {
      self.sleep_until(eng.now() + 1);
      ++finished;
    });
    eng.schedule(2 * i, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 1));
}

TEST_P(StackRecycling, StacksFollowTheMostLiveAtOnce) {
  Engine eng(GetParam());
  int finished = 0;
  const auto block_eight = [&] {
    std::vector<Process*> batch;
    for (int i = 0; i < 8; ++i) {
      Process& p = eng.spawn("blocked", [&finished](Process& self) {
        self.wait();
        ++finished;
      });
      eng.wake(p);
      batch.push_back(&p);
    }
    return batch;
  };
  const auto finish = [&eng](const std::vector<Process*>& batch) {
    for (Process* p : batch) eng.wake(*p);
  };

  eng.schedule(0, [&] {
    const std::vector<Process*> first = block_eight();
    eng.schedule(10, [&eng, first, &finish] { finish(first); });
  });
  eng.run();
  EXPECT_EQ(finished, 8);
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 8));

  // Eight more at once find eight spare stacks.
  eng.schedule(20, [&] {
    const std::vector<Process*> second = block_eight();
    eng.schedule(30, [&eng] {
      EXPECT_EQ(eng.blocked_processes().size(), 8u);
    });
    eng.schedule(40, [second, &finish] { finish(second); });
  });
  eng.run();
  EXPECT_EQ(finished, 16);
  EXPECT_EQ(eng.live_process_count(), 0u);
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 8));
}

TEST_P(StackRecycling, KilledBeforeStartTakesNoStack) {
  Engine eng(GetParam());
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(0, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.fiber_stacks(), 0u);
}

TEST_P(StackRecycling, KilledInTimedWaitReturnsItsStack) {
  Engine eng(GetParam());
  Process& victim = eng.spawn("victim", [&eng](Process& self) {
    (void)self.wait_until(eng.now() + 100);
  });
  eng.schedule(0, [&] { eng.wake(victim); });
  eng.schedule(50, [&] { eng.kill(victim); });
  eng.run();
  EXPECT_EQ(victim.state(), Process::State::finished);
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 1));

  bool ran = false;
  Process& next = eng.spawn("next", [&ran](Process&) { ran = true; });
  eng.schedule(200, [&] { eng.wake(next); });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 1));
}

/// Recurses through about `bytes` of stack, one 1 KiB frame per level, and
/// writes both ends of every frame.
int recurse(std::size_t bytes) {
  std::array<volatile char, 1024> frame{};
  frame.front() = 1;
  frame.back() = 2;
  const int below = bytes > frame.size() ? recurse(bytes - frame.size()) : 0;
  return below + frame.front() + frame.back();
}

TEST_P(StackRecycling, RecycledStackHoldsHalfItsSizeOfFrames) {
  Engine eng(GetParam());
  const std::size_t half = fiber::default_stack_bytes() / 2;
  std::vector<int> sums;
  for (int i = 0; i < 2; ++i) {
    Process& p = eng.spawn("deep", [&sums, half](Process&) {
      sums.push_back(recurse(half));
    });
    eng.schedule(i, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  const int levels = static_cast<int>((half + 1023) / 1024);
  EXPECT_EQ(sums, (std::vector<int>{3 * levels, 3 * levels}));
  EXPECT_EQ(eng.fiber_stacks(), stacks_for(eng, 1));
}

TEST(Engine, LongChurnSessionsReapAutomatically) {
  // Dynamic task churn well past the reap batch: the live list must not
  // grow without bound (this is what bounded long sessions before).
  Engine eng;
  for (int i = 0; i < 700; ++i) {
    Process& p = eng.spawn("w" + std::to_string(i), [&eng](Process& self) {
      self.sleep_until(eng.now() + 1);
    });
    eng.schedule(i, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 0u);
  EXPECT_GT(eng.reaped_process_count(), 0u);  // automatic reap kicked in
}

TEST(Engine, LiveProcessCountDropsAsBodiesFinish) {
  Engine eng;
  Process& p1 = eng.spawn("a", [](Process&) {});
  Process& p2 = eng.spawn("b", [](Process& self) { self.wait(); });
  eng.schedule(0, [&] {
    eng.wake(p1);
    eng.wake(p2);
  });
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 1u);
}

}  // namespace
}  // namespace pisces::sim
