// Edge cases of the ACCEPT statement and the message machinery that the
// main messaging suite doesn't reach: zero counts, repeated types,
// timeout-then-retry idioms, very large argument lists, self-broadcast
// exclusions, and per-task trace filtering through a live run.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>

#include "core/runtime.hpp"
#include "trace/analyzer.hpp"

namespace pisces::rt {
namespace {

// A spec built on a temporary stays an rvalue through every builder, so
// accept()'s by-value parameter is moved into, not copied; a named spec's
// builders still return it by reference.
static_assert(std::is_same_v<decltype(AcceptSpec{}.of("t")), AcceptSpec&&>);
static_assert(std::is_same_v<decltype(AcceptSpec{}.all_of("t")), AcceptSpec&&>);
static_assert(std::is_same_v<decltype(AcceptSpec{}.total(1)), AcceptSpec&&>);
static_assert(std::is_same_v<decltype(AcceptSpec{}.delay_for(1)), AcceptSpec&&>);
static_assert(std::is_same_v<decltype(AcceptSpec{}.forever()), AcceptSpec&&>);
using NamedSpec = AcceptSpec&;
static_assert(std::is_same_v<decltype(std::declval<NamedSpec>().of("t")), AcceptSpec&>);
static_assert(std::is_same_v<decltype(std::declval<NamedSpec>().all_of("t")), AcceptSpec&>);
static_assert(std::is_same_v<decltype(std::declval<NamedSpec>().total(1)), AcceptSpec&>);
static_assert(std::is_same_v<decltype(std::declval<NamedSpec>().delay_for(1)), AcceptSpec&>);
static_assert(std::is_same_v<decltype(std::declval<NamedSpec>().forever()), AcceptSpec&>);

struct Fixture {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(config::Configuration cfg = config::Configuration::simple(2)) {
    rt = std::make_unique<Runtime>(sys, std::move(cfg));
  }
  Runtime* operator->() { return rt.get(); }
};

void run_main_task(Fixture& f, TaskBody body) {
  f->register_tasktype("main", std::move(body));
  f->boot();
  f->user_initiate(1, "main");
  f->run();
}

TEST(AcceptEdge, ZeroCountIsSatisfiedImmediately) {
  Fixture f;
  sim::Tick waited = 0;
  run_main_task(f, [&](TaskContext& ctx) {
    const sim::Tick start = f.eng.now();
    auto res = ctx.accept(AcceptSpec{}.of("never", 0));
    waited = f.eng.now() - start;
    EXPECT_EQ(res.total(), 0);
    EXPECT_FALSE(res.timed_out);
  });
  EXPECT_EQ(waited, 0);
}

TEST(AcceptEdge, RepeatedTypeEntriesAreRejected) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("m", 1).of("m", 5));
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::invalid_argument);
}

TEST(AcceptEdge, TimeoutThenRetryReceivesLateMessage) {
  Fixture f;
  int attempts = 0;
  f->register_tasktype("slow", [](TaskContext& ctx) {
    ctx.compute(300'000);
    ctx.send(Dest::Parent(), "late");
  });
  run_main_task(f, [&](TaskContext& ctx) {
    ctx.initiate(Where::Other(), "slow");
    AcceptResult res;
    do {
      ++attempts;
      res = ctx.accept(AcceptSpec{}.of("late").delay_for(50'000));
    } while (res.timed_out);
    EXPECT_EQ(res.count("late"), 1);
  });
  EXPECT_GT(attempts, 1);
}

TEST(AcceptEdge, AllOnEmptyQueueReturnsImmediatelyEmpty) {
  Fixture f;
  run_main_task(f, [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.all_of("anything"));
    EXPECT_EQ(res.total(), 0);
    EXPECT_FALSE(res.timed_out);
  });
}

TEST(AcceptEdge, AllDrainsAlongsideCountedTypes) {
  Fixture f;
  run_main_task(f, [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "log");
    ctx.send(Dest::Self(), "work");
    ctx.send(Dest::Self(), "log");
    auto res = ctx.accept(AcceptSpec{}.of("work", 1).all_of("log"));
    EXPECT_EQ(res.count("work"), 1);
    EXPECT_EQ(res.count("log"), 2);
    EXPECT_EQ(ctx.pending_messages(), 0u);
  });
}

TEST(AcceptEdge, LargeArgumentListsRoundTrip) {
  Fixture f;
  std::size_t got = 0;
  run_main_task(f, [&](TaskContext& ctx) {
    std::vector<Value> args;
    for (int i = 0; i < 40; ++i) args.push_back(Value(i));
    args.push_back(Value(std::vector<double>(2000, 1.5)));
    ctx.on_message("big", [&got](TaskContext&, const Message& m) {
      got = m.args.size();
      EXPECT_EQ(m.args.at(40).as_real_array().size(), 2000u);
      EXPECT_EQ(m.args.at(7).as_int(), 7);
    });
    ctx.send(Dest::Self(), "big", std::move(args));
    ctx.accept(AcceptSpec{}.of("big"));
  });
  EXPECT_EQ(got, 41u);
  EXPECT_EQ(f->message_heap().in_use(), 0u);
}

TEST(AcceptEdge, BroadcastExcludesSenderButNotSiblings) {
  Fixture f(config::Configuration::simple(1));
  int received = 0;
  f->register_tasktype("peer", [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.of("blast").delay_for(4'000'000));
    if (res.count("blast") > 0) ++received;
  });
  run_main_task(f, [&](TaskContext& ctx) {
    ctx.initiate(Where::Same(), "peer");
    ctx.initiate(Where::Same(), "peer");
    ctx.compute(2'000'000);
    const int n = ctx.broadcast("blast");
    EXPECT_EQ(n, 2);  // both peers, not the sender itself
    // The sender's own queue stays empty.
    EXPECT_EQ(ctx.pending_messages(), 0u);
  });
  EXPECT_EQ(received, 2);
}

TEST(AcceptEdge, SenderOfBroadcastIsVisibleToReceivers) {
  Fixture f;
  TaskId seen_sender;
  TaskId main_id;
  f->register_tasktype("peer", [&](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("blast").forever());
    seen_sender = ctx.sender();
  });
  run_main_task(f, [&](TaskContext& ctx) {
    main_id = ctx.self();
    ctx.initiate(Where::Other(), "peer");
    ctx.compute(2'000'000);
    ctx.broadcast("blast");
  });
  EXPECT_EQ(seen_sender, main_id);
}

TEST(AcceptEdge, NullOnDelayYieldsSystemTimeoutMessage) {
  // DELAY with no THEN body: the system synthesizes a _TIMEOUT entry in the
  // result instead of running a callback ("a system-generated message type
  // is sent after the delay period expires", Section 6).
  Fixture f;
  run_main_task(f, [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.of("never").delay_for(100'000));
    EXPECT_TRUE(res.timed_out);
    EXPECT_EQ(res.count(kTimeoutType), 1);
    EXPECT_EQ(res.count("never"), 0);
  });
  // With an on_delay body the callback runs and no _TIMEOUT is synthesized.
  Fixture g;
  bool delayed = false;
  run_main_task(g, [&](TaskContext& ctx) {
    auto res = ctx.accept(
        AcceptSpec{}.of("never").delay_for(100'000, [&] { delayed = true; }));
    EXPECT_TRUE(res.timed_out);
    EXPECT_EQ(res.count(kTimeoutType), 0);
  });
  EXPECT_TRUE(delayed);
}

TEST(AcceptEdge, ForeverWaitIsInterruptibleByKill) {
  // A no_timeout ACCEPT never times out on its own; the only way out is a
  // kill, which must unwind the waiter cleanly (slot freed, heap drained).
  Fixture f;
  TaskId victim;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    victim = ctx.self();
    ctx.accept(AcceptSpec{}.of("never").forever());
    ADD_FAILURE() << "forever accept returned without a message";
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run_for(3'000'000);
  ASSERT_TRUE(victim.valid());
  ASSERT_TRUE(f->kill_task(victim));
  f->run();
  EXPECT_EQ(f->find_record(victim), nullptr);
  EXPECT_EQ(f->stats().tasks_killed, 1u);
  EXPECT_EQ(f->stats().accept_timeouts, 0u);
  EXPECT_EQ(f->message_heap().in_use(), 0u);
}

TEST(AcceptEdge, UnsetDelayUsesTheSystemDefault) {
  // No delay_for, no forever: the configuration's accept_default_timeout
  // applies, and that default is pinned to kDefaultAcceptDelayTicks.
  Fixture f;
  EXPECT_EQ(f->configuration().accept_default_timeout, kDefaultAcceptDelayTicks);
  sim::Tick waited = 0;
  run_main_task(f, [&](TaskContext& ctx) {
    const sim::Tick start = f.eng.now();
    auto res = ctx.accept(AcceptSpec{}.of("never"));
    waited = f.eng.now() - start;
    EXPECT_TRUE(res.timed_out);
  });
  // Exact to within the redispatch cost after the timeout wake.
  EXPECT_GE(waited, kDefaultAcceptDelayTicks);
  EXPECT_LE(waited, kDefaultAcceptDelayTicks + f.machine.costs().context_switch);
  EXPECT_EQ(f->stats().accept_timeouts, 1u);
}

TEST(TraceEdge, PerTaskOverrideFiltersARealRun) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.trace.set(trace::EventKind::msg_send, true);
  Fixture f(cfg);
  trace::MemorySink sink;
  f->tracer().add_sink(&sink);
  TaskId chatty_id;
  TaskId quiet_id;
  f->register_tasktype("chatty", [&](TaskContext& ctx) {
    chatty_id = ctx.self();
    ctx.compute(500'000);  // give the env time to set the override
    for (int i = 0; i < 3; ++i) ctx.send(Dest::Self(), "x");
    ctx.accept(AcceptSpec{}.of("x", 3));
  });
  f->register_tasktype("quiet", [&](TaskContext& ctx) {
    quiet_id = ctx.self();
    ctx.compute(500'000);
    for (int i = 0; i < 3; ++i) ctx.send(Dest::Self(), "x");
    ctx.accept(AcceptSpec{}.of("x", 3));
  });
  f->boot();
  f->user_initiate(1, "chatty");
  f->user_initiate(1, "quiet");
  f->run_for(400'000);  // both tasks now exist with known ids
  ASSERT_TRUE(quiet_id.valid());
  f->tracer().set_task(quiet_id, trace::EventKind::msg_send, false);
  f->run();
  int chatty_sends = 0;
  int quiet_sends = 0;
  for (const auto& r : sink.records()) {
    if (r.kind != trace::EventKind::msg_send) continue;
    if (r.task == chatty_id) ++chatty_sends;
    if (r.task == quiet_id) ++quiet_sends;
  }
  EXPECT_EQ(chatty_sends, 3);
  EXPECT_EQ(quiet_sends, 0);
}

TEST(WindowEdge, WriteThroughShrunkWindowOnlyTouchesTheRect) {
  Fixture f;
  double corner = 0;
  double inside = 0;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 8, 8);
    (void)arr;
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("done").forever());
    corner = ctx.array_data("A").at(0, 0);
    inside = ctx.array_data("A").at(3, 3);
  });
  run_main_task(f, [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Other(), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    ctx.window_write(w.shrink(Rect{2, 2, 4, 4}), Matrix(4, 4, 9.0));
    ctx.send(Dest::To(w.owner), "done");
  });
  EXPECT_EQ(corner, 0.0);
  EXPECT_EQ(inside, 9.0);
}

TEST(WindowEdge, TwoTasksReadTheSameWindowConcurrently) {
  Fixture f(config::Configuration::simple(3));
  double sums[2] = {0, 0};
  f->register_tasktype("reader", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.accept(AcceptSpec{}.of("win").forever());
    Matrix m = ctx.window_read(w);
    double s = 0;
    for (double x : m.data()) s += x;
    sums[ctx.args().at(0).as_int()] = s;
    ctx.send(Dest::Parent(), "done");
  });
  run_main_task(f, [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 10, 10);
    for (auto& x : arr.data.data()) x = 2.0;
    ctx.initiate(Where::Cluster(2), "reader", {Value(0)});
    ctx.initiate(Where::Cluster(3), "reader", {Value(1)});
    ctx.compute(2'000'000);
    ctx.broadcast("win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("done", 2).forever());
  });
  EXPECT_EQ(sums[0], 200.0);
  EXPECT_EQ(sums[1], 200.0);
  EXPECT_EQ(f->stats().window_reads, 2u);
}

}  // namespace
}  // namespace pisces::rt
