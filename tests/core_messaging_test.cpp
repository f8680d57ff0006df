// Tests of the PISCES 2 task and message-passing semantics (Sections 5, 6):
// initiation, taskids, cluster selectors, SEND destinations, ACCEPT counting
// modes, SIGNAL vs HANDLER processing, timeouts, broadcast, slots.
#include <gtest/gtest.h>

#include <memory>

#include "core/runtime.hpp"
#include "trace/analyzer.hpp"

namespace pisces::rt {
namespace {

struct Fixture {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(config::Configuration cfg = config::Configuration::simple(2)) {
    rt = std::make_unique<Runtime>(sys, std::move(cfg));
  }
  Runtime& operator*() { return *rt; }
  Runtime* operator->() { return rt.get(); }
};

TEST(Boot, RejectsInvalidConfiguration) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.clusters[0].primary_pe = 1;  // Unix PE
  Fixture f(cfg);
  EXPECT_THROW(f->boot(), std::invalid_argument);
}

TEST(Boot, StartsControllersInEveryCluster) {
  Fixture f(config::Configuration::simple(3));
  f->boot();
  f->run();
  for (int c = 1; c <= 3; ++c) {
    const auto& cl = f->cluster(c);
    EXPECT_EQ(cl.slot(kTaskControllerSlot).state, TaskState::running);
    EXPECT_TRUE(cl.controller_id().valid());
  }
  // Terminal (user controller) only on cluster 1.
  EXPECT_EQ(f->cluster(1).slot(kUserControllerSlot).state, TaskState::running);
  EXPECT_EQ(f->cluster(2).slot(kUserControllerSlot).state, TaskState::free_slot);
}

TEST(Initiate, TopLevelTaskRunsWithArgsAndParent) {
  Fixture f;
  TaskId observed_parent;
  std::int64_t observed_arg = 0;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    observed_parent = ctx.parent();
    observed_arg = ctx.args().at(0).as_int();
  });
  f->boot();
  f->user_initiate(1, "main", {Value(42)});
  f->run();
  EXPECT_EQ(observed_arg, 42);
  // A top-level task's parent is the user controller, so TO PARENT SEND
  // reaches the terminal.
  EXPECT_EQ(observed_parent, f->user_controller_id());
  EXPECT_EQ(f->stats().tasks_started, 1u);
  EXPECT_EQ(f->stats().tasks_finished, 1u);
}

TEST(Initiate, ChildTaskIdHasRequestedCluster) {
  Fixture f;
  TaskId child_id;
  f->register_tasktype("child", [&](TaskContext& ctx) { child_id = ctx.self(); });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Cluster(2), "child");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(child_id.cluster, 2);
  EXPECT_GE(child_id.slot, kFirstUserSlot);
  EXPECT_TRUE(child_id.valid());
}

TEST(Initiate, SameAndOtherSelectors) {
  Fixture f;
  int same_cluster = 0;
  int other_cluster = 0;
  f->register_tasktype("a", [&](TaskContext& ctx) { same_cluster = ctx.cluster(); });
  f->register_tasktype("b", [&](TaskContext& ctx) { other_cluster = ctx.cluster(); });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Same(), "a");
    ctx.initiate(Where::Other(), "b");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(same_cluster, 1);
  EXPECT_EQ(other_cluster, 2);
}

TEST(Initiate, AnyPicksClusterWithMostFreeSlots) {
  Fixture f(config::Configuration::simple(3));
  int landed = 0;
  f->register_tasktype("sleeper", [&](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("go").forever());
  });
  f->register_tasktype("probe", [&](TaskContext& ctx) { landed = ctx.cluster(); });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    // Fill cluster 1 (SAME) partially so ANY prefers cluster 2 or 3;
    // fill cluster 2 fully.
    for (int i = 0; i < 2; ++i) ctx.initiate(Where::Cluster(1), "sleeper");
    for (int i = 0; i < 4; ++i) ctx.initiate(Where::Cluster(2), "sleeper");
    ctx.compute(2'000'000);  // let them start
    ctx.initiate(Where::Any(), "probe");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(landed, 3);
}

TEST(Initiate, UnknownTasktypeReportsToConsole) {
  Fixture f;
  f->boot();
  f->user_initiate(1, "nonesuch");
  f->run();
  EXPECT_TRUE(f->console().contains("unknown tasktype 'nonesuch'"));
  EXPECT_EQ(f->stats().tasks_started, 0u);
}

TEST(Initiate, HeldUntilSlotFrees) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.clusters[0].slots = 1;  // a single user slot
  Fixture f(cfg);
  std::vector<int> order;
  f->register_tasktype("job", [&](TaskContext& ctx) {
    order.push_back(static_cast<int>(ctx.args().at(0).as_int()));
    ctx.compute(10'000);
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int i = 1; i <= 3; ++i) ctx.initiate(Where::Same(), "job", {Value(i)});
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  // main occupies the slot first; each job waits for the previous.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(f->stats().initiates_held, 2u);
}

TEST(Messages, RoundTripWithSenderAndArgs) {
  Fixture f;
  std::int64_t got = 0;
  TaskId child_sender;
  f->register_tasktype("child", [&](TaskContext& ctx) {
    // Child announces itself to the parent, then waits for work.
    ctx.send(Dest::Parent(), "hello", {Value(ctx.self())});
    auto res = ctx.accept(AcceptSpec{}.of("work").forever());
    EXPECT_EQ(res.count("work"), 1);
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.on_message("hello", [&](TaskContext& c, const Message& m) {
      child_sender = m.sender;
      EXPECT_EQ(m.args.at(0).as_taskid(), m.sender);
      // SENDER destination answers the most recent sender.
      c.send(Dest::Sender(), "work", {Value(7)});
      got = 7;
    });
    ctx.initiate(Where::Other(), "child");
    ctx.accept(AcceptSpec{}.of("hello").forever());
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(got, 7);
  EXPECT_TRUE(child_sender.valid());
  EXPECT_EQ(child_sender.cluster, 2);
  EXPECT_EQ(f->stats().dead_letters, 0u);
}

TEST(Messages, SignalTypesAreCountedNotHandled) {
  Fixture f;
  int accepted = 0;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "ping");
    ctx.send(Dest::Self(), "ping");
    auto res = ctx.accept(AcceptSpec{}.of("ping", 2));
    accepted = res.count("ping");
    EXPECT_FALSE(res.timed_out);
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(accepted, 2);
}

TEST(Messages, FifoWithinQueueAndUnmatchedStay) {
  Fixture f;
  std::vector<std::string> handled;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "b", {Value(1)});
    ctx.send(Dest::Self(), "a", {Value(2)});
    ctx.send(Dest::Self(), "b", {Value(3)});
    ctx.on_message("b", [&](TaskContext&, const Message& m) {
      handled.push_back("b" + std::to_string(m.args[0].as_int()));
    });
    ctx.on_message("a", [&](TaskContext&, const Message& m) {
      handled.push_back("a" + std::to_string(m.args[0].as_int()));
    });
    // Only accept 'b' messages; 'a' must remain queued, order preserved.
    ctx.accept(AcceptSpec{}.of("b", 2));
    EXPECT_EQ(ctx.pending_messages(), 1u);
    ctx.accept(AcceptSpec{}.of("a", 1));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(handled, (std::vector<std::string>{"b1", "b3", "a2"}));
}

TEST(Accept, TotalModeMixesListedTypes) {
  Fixture f;
  AcceptResult res;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "x");
    ctx.send(Dest::Self(), "y");
    ctx.send(Dest::Self(), "x");
    ctx.send(Dest::Self(), "z");  // not listed: must stay queued
    res = ctx.accept(AcceptSpec{}.of("x").of("y").total(3));
    EXPECT_EQ(ctx.pending_messages(), 1u);
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(res.total(), 3);
  EXPECT_EQ(res.count("x"), 2);
  EXPECT_EQ(res.count("y"), 1);
  EXPECT_FALSE(res.timed_out);
}

TEST(Accept, AllProcessesEverythingReceivedWithoutWaiting) {
  Fixture f;
  AcceptResult res;
  sim::Tick waited = 0;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int i = 0; i < 5; ++i) ctx.send(Dest::Self(), "tick");
    const sim::Tick before = f.eng.now();
    res = ctx.accept(AcceptSpec{}.all_of("tick"));
    waited = f.eng.now() - before;
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(res.count("tick"), 5);
  EXPECT_FALSE(res.timed_out);
  // Accept-processing cost only; no timeout wait.
  EXPECT_LT(waited, 10'000);
}

TEST(Accept, DelayClauseRunsThenBody) {
  Fixture f;
  bool delay_body_ran = false;
  AcceptResult res;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    res = ctx.accept(AcceptSpec{}.of("never").delay_for(
        5'000, [&] { delay_body_ran = true; }));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(res.timed_out);
  EXPECT_TRUE(delay_body_ran);
  EXPECT_EQ(res.count("never"), 0);
  EXPECT_EQ(f->stats().accept_timeouts, 1u);
}

TEST(Accept, SystemTimeoutMessageWithoutDelayClause) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.accept_default_timeout = 3'000;
  Fixture f(cfg);
  AcceptResult res;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    res = ctx.accept(AcceptSpec{}.of("never"));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(res.timed_out);
  EXPECT_EQ(res.count(kTimeoutType), 1);
}

TEST(Accept, PartialArrivalThenTimeout) {
  Fixture f;
  AcceptResult res;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "data");
    res = ctx.accept(AcceptSpec{}.of("data", 3).delay_for(10'000));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(res.timed_out);
  EXPECT_EQ(res.count("data"), 1);
}

TEST(Accept, NestedAcceptInHandlerThrows) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.on_message("m", [](TaskContext& c, const Message&) {
      c.accept(AcceptSpec{}.of("other"));
    });
    ctx.send(Dest::Self(), "m");
    ctx.accept(AcceptSpec{}.of("m"));
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::logic_error);
}

TEST(Accept, EmptySpecThrows) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.accept(AcceptSpec{});
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::invalid_argument);
}

TEST(Messages, StaleTaskIdIsDeadLetter) {
  Fixture f;
  TaskId child_id;
  bool sent_ok = true;
  f->register_tasktype("child", [&](TaskContext& ctx) {
    ctx.send(Dest::Parent(), "done", {Value(ctx.self())});
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Same(), "child");
    ctx.accept(AcceptSpec{}.of("done").forever());
    child_id = ctx.sender();
    ctx.compute(1'000'000);  // child has long since terminated
    sent_ok = ctx.send(Dest::To(child_id), "late");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_FALSE(sent_ok);
  EXPECT_GE(f->stats().dead_letters, 1u);
  // Dead letters are observable, not just counted: every one is traced
  // (the tracer counts all kinds even with output filtering off), and the
  // organization display surfaces the running total.
  EXPECT_EQ(f->tracer().count(trace::EventKind::dead_letter),
            f->stats().dead_letters);
}

TEST(Messages, BroadcastToClusterAndEverywhere) {
  Fixture f(config::Configuration::simple(3));
  int c1_hits = 0;
  int everywhere_hits = 0;
  f->register_tasktype("listener", [&](TaskContext& ctx) {
    auto r1 = ctx.accept(AcceptSpec{}.of("round1").delay_for(4'000'000));
    if (r1.count("round1") > 0) ++c1_hits;
    auto r2 = ctx.accept(AcceptSpec{}.of("round2").delay_for(4'000'000));
    if (r2.count("round2") > 0) ++everywhere_hits;
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int c = 1; c <= 3; ++c) ctx.initiate(Where::Cluster(c), "listener");
    ctx.compute(2'000'000);  // listeners reach their accepts
    ctx.broadcast("round1", {}, 2);  // TO ALL CLUSTER 2
    ctx.broadcast("round2");         // TO ALL
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(c1_hits, 1);         // only the cluster-2 listener
  EXPECT_EQ(everywhere_hits, 3); // all listeners
}

TEST(Messages, SendToUserPrintsOnTerminal) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::User(), "result", {Value(3.5), Value("done")});
    ctx.print("plain text line");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(f->console().contains("result(3.5"));
  EXPECT_TRUE(f->console().contains("plain text line"));
}

TEST(Messages, SendToTaskControllerIsDeliverable) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::TContr(2), "bogus-user-msg");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(f->stats().controller_unknown_messages, 1u);
}

TEST(Heap, MessageStorageIsRecoveredAfterAccept) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.send(Dest::Self(), "blob", {Value(std::vector<double>(100, 1.0))});
    }
    EXPECT_GT(f->message_heap().in_use(), 8000u);
    ctx.accept(AcceptSpec{}.of("blob", 10));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(f->message_heap().in_use(), 0u);
  EXPECT_GT(f->message_heap().peak_in_use(), 8000u);
}

TEST(Heap, SenderBlocksWhenHeapFullAndRecovers) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.message_heap_bytes = 8192;  // tiny
  Fixture f(cfg);
  int received = 0;
  f->register_tasktype("sink", [&](TaskContext& ctx) {
    // Accept slowly so the sender outruns the heap.
    for (int i = 0; i < 20; ++i) {
      auto res = ctx.accept(AcceptSpec{}.of("blob").forever());
      received += res.count("blob");
      ctx.compute(50'000);
    }
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Other(), "sink");
    ctx.compute(1'000'000);
    for (int i = 0; i < 20; ++i) {
      ctx.send(Dest::To(f->cluster(2).slot(kFirstUserSlot).id), "blob",
               {Value(std::vector<double>(120, 0.0))});
    }
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(received, 20);
  EXPECT_GT(f->stats().heap_full_waits, 0u);
  EXPECT_EQ(f->message_heap().in_use(), 0u);
}

TEST(Control, KillTaskFreesSlotAndQueue) {
  Fixture f;
  TaskId victim_id;
  f->register_tasktype("victim", [&](TaskContext& ctx) {
    victim_id = ctx.self();
    ctx.accept(AcceptSpec{}.of("never").forever());
  });
  f->boot();
  f->user_initiate(1, "victim");
  f->run_for(2'000'000);
  ASSERT_TRUE(victim_id.valid());
  f->user_send(victim_id, "stuffing", {Value(std::vector<double>(50, 0.0))});
  f->run_for(1'000'000);
  EXPECT_TRUE(f->kill_task(victim_id));
  f->run();
  EXPECT_EQ(f->stats().tasks_killed, 1u);
  EXPECT_EQ(f->find_record(victim_id), nullptr);
  EXPECT_EQ(f->message_heap().in_use(), 0u);
  // Killing again (stale id) fails cleanly.
  EXPECT_FALSE(f->kill_task(victim_id));
}

TEST(Control, DeleteMessagesByType) {
  Fixture f;
  TaskId id;
  f->register_tasktype("t", [&](TaskContext& ctx) {
    id = ctx.self();
    ctx.accept(AcceptSpec{}.of("go").forever());
    EXPECT_EQ(ctx.pending_messages(), 1u);  // only 'keep' remains
  });
  f->boot();
  f->user_initiate(1, "t");
  f->run_for(2'000'000);
  f->user_send(id, "junk");
  f->user_send(id, "keep");
  f->user_send(id, "junk");
  f->run_for(100'000);
  EXPECT_EQ(f->delete_messages(id, "junk"), 2);
  f->user_send(id, "go");
  f->run();
  EXPECT_EQ(f->stats().messages_deleted, 2u);
}

TEST(Control, TimeLimitStopsRun) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.time_limit = 50'000;
  Fixture f(cfg);
  bool finished = false;
  f->register_tasktype("long", [&](TaskContext& ctx) {
    ctx.compute(10'000'000);
    finished = true;
  });
  f->boot();
  f->user_initiate(1, "long");
  f->run();
  EXPECT_FALSE(finished);
  EXPECT_TRUE(f->timed_out());
  EXPECT_TRUE(f->console().contains("TIME LIMIT"));
}

TEST(Trace, EventsRecordedWithFilters) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.trace.set(trace::EventKind::task_init, true);
  cfg.trace.set(trace::EventKind::task_term, true);
  cfg.trace.set(trace::EventKind::msg_send, true);
  cfg.trace.set(trace::EventKind::msg_accept, true);
  Fixture f(cfg);
  trace::MemorySink sink;
  f->tracer().add_sink(&sink);
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.send(Dest::Self(), "m");
    ctx.accept(AcceptSpec{}.of("m"));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  trace::Analyzer an(sink.records());
  EXPECT_EQ(an.count(trace::EventKind::task_init), 1u);
  EXPECT_EQ(an.count(trace::EventKind::task_term), 1u);
  EXPECT_GE(an.count(trace::EventKind::msg_send), 1u);
  auto timings = an.task_timings();
  ASSERT_GE(timings.size(), 1u);
  bool found = false;
  for (const auto& t : timings) {
    if (t.lifetime().has_value()) found = true;
  }
  EXPECT_TRUE(found);
  // Message latency matched by sequence number.
  EXPECT_GT(an.message_timings().size(), 0u);
}

TEST(Stats, MessageAccountingBalances) {
  Fixture f;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int i = 0; i < 4; ++i) ctx.send(Dest::Self(), "m");
    ctx.accept(AcceptSpec{}.of("m", 4));
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  // 4 user messages + 1 initiate request.
  EXPECT_EQ(f->stats().messages_sent, 5u);
  EXPECT_EQ(f->stats().messages_accepted, 5u);
  EXPECT_GT(f->stats().message_bytes_sent, 0u);
}

TEST(MessageQueue, TypeIndexTracksArrivalOrder) {
  MessageQueue q;
  auto mk = [](std::string type, std::uint64_t seq) {
    Message m;
    m.type = std::move(type);
    m.seq = seq;
    return m;
  };
  q.push_back(mk("a", 1));
  q.push_back(mk("b", 2));
  q.push_back(mk("a", 3));
  q.push_back(mk("c", 4));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.count("a"), 2u);
  EXPECT_EQ(q.count("missing"), 0u);
  EXPECT_EQ(q.first_of("a")->seq, 1u);
  EXPECT_EQ(q.first_of("missing"), q.end());

  Message a1 = q.take(q.first_of("a"));
  EXPECT_EQ(a1.seq, 1u);
  EXPECT_EQ(q.count("a"), 1u);
  EXPECT_EQ(q.first_of("a")->seq, 3u);

  Message front = q.pop_front();
  EXPECT_EQ(front.type, "b");

  // The erase-loop form used by DELETE MESSAGES.
  for (auto it = q.begin(); it != q.end();) {
    it = it->type == "c" ? q.erase(it) : std::next(it);
  }
  EXPECT_EQ(q.count("c"), 0u);
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_TRUE(q.empty());
}

// Regression: ON ANY/OTHER placement used to look only at free slots, so a
// congested cluster (zero free, long held-initiate backlog) tied with a
// quiet one (zero free, empty backlog) and could win on cluster order.
TEST(Placement, OtherPrefersShorterBacklogOnFreeSlotTie) {
  config::Configuration cfg = config::Configuration::simple(3);
  cfg.clusters[1].slots = 1;  // cluster 2
  cfg.clusters[2].slots = 1;  // cluster 3
  Fixture f(cfg);
  int probe_cluster = -1;
  f->register_tasktype("blocker", [](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("release").forever());
  });
  f->register_tasktype("probe",
                       [&](TaskContext& ctx) { probe_cluster = ctx.cluster(); });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Cluster(2), "blocker");
    ctx.initiate(Where::Cluster(3), "blocker");
    // Two more for cluster 2: held in its backlog once the slot is taken.
    ctx.initiate(Where::Cluster(2), "blocker");
    ctx.initiate(Where::Cluster(2), "blocker");
    ctx.compute(1'000'000);  // let the controllers process the initiates
    ASSERT_EQ(f->cluster(2).pending.size(), 2u);
    ASSERT_EQ(f->cluster(2).free_user_slots(), 0);
    ASSERT_EQ(f->cluster(3).free_user_slots(), 0);
    // Both candidates have zero free slots; cluster 3's empty backlog must
    // win the tie.
    ctx.initiate(Where::Other(), "probe");
    ctx.compute(1'000'000);
    ctx.broadcast("release");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(probe_cluster, 3);
}

// Regression: the terminal cluster was remembered with 0 as the "unset"
// sentinel, so a terminal on a legitimately numbered cluster 0 could have
// the USER destination stolen by a later terminal cluster.
TEST(Boot, ClusterZeroWithTerminalKeepsUserDestination) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[0].number = 0;           // the terminal cluster is number 0
  cfg.clusters[1].has_terminal = true;  // a later cluster also has one
  Fixture f(cfg);
  f->register_tasktype("main", [&](TaskContext& ctx) { ctx.print("hello"); });
  f->boot();
  EXPECT_EQ(f->user_controller_id().cluster, 0);
  EXPECT_TRUE(f->user_controller_id().valid());
  f->user_initiate(0, "main");
  f->run();
  // TO USER from the task reached the cluster-0 user controller.
  EXPECT_EQ(f->stats().dead_letters, 0u);
  EXPECT_EQ(f->stats().tasks_finished, 1u);
}

// Several senders blocked on a full heap are woken first-fit in FIFO order
// as space is recovered; every message must still get through.
TEST(Heap, ManyBlockedSendersAllComplete) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[0].slots = 6;
  cfg.message_heap_bytes = 8192;  // tiny: producers outrun the heap
  Fixture f(cfg);
  int received = 0;
  f->register_tasktype("producer", [&](TaskContext& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.send(Dest::To(f->cluster(2).slot(kFirstUserSlot).id), "blob",
               {Value(std::vector<double>(120, 0.0))});
    }
  });
  f->register_tasktype("sink", [&](TaskContext& ctx) {
    for (int i = 0; i < 32; ++i) {
      auto res = ctx.accept(AcceptSpec{}.of("blob").forever());
      received += res.count("blob");
      ctx.compute(20'000);  // accept slowly
    }
    ctx.send(Dest::Parent(), "done");
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Cluster(2), "sink");
    ctx.compute(1'000'000);
    for (int p = 0; p < 4; ++p) ctx.initiate(Where::Same(), "producer");
    ctx.accept(AcceptSpec{}.of("done").forever());
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(received, 32);
  EXPECT_GT(f->stats().heap_full_waits, 0u);
  EXPECT_EQ(f->message_heap().in_use(), 0u);
  EXPECT_FALSE(f->timed_out());
}

// Regression: a sender blocked on a full heap can be woken by something other
// than a release — here a message arriving for its own task. It used to join
// the waiter FIFO a second time on re-blocking, and the stale entry then
// spent a later release's wake budget, leaving a sender that fits blocked.
TEST(Heap, SenderWokenByArrivalKeepsOneWaiterEntry) {
  config::Configuration cfg = config::Configuration::simple(6);
  cfg.message_heap_bytes = 4096;  // two blobs fit, a third does not
  Fixture f(cfg);
  const std::vector<double> blob(180, 0.0);  // a 1488-byte heap block
  auto id_on = [&f](int cluster) {
    return f->cluster(cluster).slot(kFirstUserSlot).id;
  };
  bool d_sent = false;
  sim::Tick d_sent_at = 0;
  int received = 0;
  f->register_tasktype("sink", [&](TaskContext& ctx) {
    ctx.compute(4'000'000);
    received += ctx.accept(AcceptSpec{}.of("blob").forever()).count("blob");  // wakes A
    ctx.compute(100'000);
    received += ctx.accept(AcceptSpec{}.of("blob").forever()).count("blob");  // must wake D
    ctx.accept(AcceptSpec{}.of("done").delay_for(10'000'000));
  });
  f->register_tasktype("filler", [&](TaskContext& ctx) {
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});
  });
  f->register_tasktype("a", [&](TaskContext& ctx) {
    ctx.compute(1'000'000);
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});  // blocks
    // Stay alive, holding the poke, past the sink's second release.
    ctx.accept(AcceptSpec{}.of("never").delay_for(10'000'000));
  });
  f->register_tasktype("b", [&](TaskContext& ctx) {
    ctx.compute(2'000'000);
    ctx.send(Dest::To(id_on(4)), "poke");  // wakes A, which re-blocks
  });
  f->register_tasktype("d", [&](TaskContext& ctx) {
    ctx.compute(3'000'000);
    d_sent = ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});  // blocks
    d_sent_at = ctx.runtime().engine().now();
    ctx.send(Dest::To(id_on(2)), "done");
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Cluster(2), "sink");
    ctx.initiate(Where::Cluster(3), "filler");
    ctx.initiate(Where::Cluster(4), "a");
    ctx.initiate(Where::Cluster(5), "b");
    ctx.initiate(Where::Cluster(6), "d");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  // D fits once the sink's second blob is released (~4.1M ticks); it must
  // not wait for the bounded waits above to expire at ~14M.
  EXPECT_TRUE(d_sent);
  EXPECT_LT(d_sent_at, 5'000'000);
  EXPECT_EQ(received, 2);
  EXPECT_GE(f->stats().heap_full_waits, 3u);
  EXPECT_FALSE(f->timed_out());
  EXPECT_EQ(f->message_heap().in_use(), 0u);
}

// Regression: a blocked sender woken by a message arriving for its task,
// rather than by a release, can find space and send. It used to keep its
// waiter entry; a later release then woke it again (spuriously) with the
// budget that a sender which fits should have had.
//   - A (on a PE busy with three spinners), S and D block in that order.
//   - The sink's first accept wakes only A, the FIFO head; S gets no budget.
//     The sink then pokes S, which runs before A reaches the CPU and takes
//     the space. A loses the race and re-queues at the front.
//   - The second accept wakes A again. The third frees one blob's worth: D
//     must get it, not S's leftover entry.
TEST(Heap, SenderWokenByArrivalLeavesNoWaiterEntry) {
  config::Configuration cfg = config::Configuration::simple(6);
  cfg.clusters[3].slots = kFirstUserSlot + 4;  // A and three spinners
  cfg.message_heap_bytes = 4096;  // two blobs fit, a third does not
  Fixture f(cfg);
  const std::vector<double> blob(180, 0.0);  // a 1488-byte heap block
  auto id_on = [&f](int cluster) {
    return f->cluster(cluster).slot(kFirstUserSlot).id;
  };
  sim::Tick third_release = 0;
  sim::Tick d_sent_at = 0;
  int received = 0;
  f->register_tasktype("sink", [&](TaskContext& ctx) {
    auto take_blob = [&] {
      received += ctx.accept(AcceptSpec{}.of("blob").forever()).count("blob");
    };
    ctx.compute(4'000'000);
    take_blob();  // wakes A
    ctx.send(Dest::To(id_on(5)), "poke");  // wakes S, which takes the space
    ctx.compute(100'000);
    take_blob();  // wakes A again
    ctx.compute(100'000);
    take_blob();  // must wake D
    third_release = ctx.runtime().engine().now();
    ctx.compute(400'000);
    take_blob();
    take_blob();
  });
  f->register_tasktype("filler", [&](TaskContext& ctx) {
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});
  });
  f->register_tasktype("spinner", [](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("never").delay_for(1'500'000));
    ctx.compute(10'000'000);
  });
  f->register_tasktype("a", [&](TaskContext& ctx) {
    for (int i = 0; i < 3; ++i) ctx.initiate(Where::Same(), "spinner");
    ctx.compute(1'000'000);
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});  // blocks
  });
  f->register_tasktype("s", [&](TaskContext& ctx) {
    ctx.compute(2'000'000);
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});  // blocks
    ctx.accept(AcceptSpec{}.of("never").delay_for(10'000'000));
  });
  f->register_tasktype("d", [&](TaskContext& ctx) {
    ctx.compute(3'000'000);
    ctx.send(Dest::To(id_on(2)), "blob", {Value(blob)});  // blocks
    d_sent_at = ctx.runtime().engine().now();
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Cluster(2), "sink");
    ctx.initiate(Where::Cluster(3), "filler");
    ctx.initiate(Where::Cluster(4), "a");
    ctx.initiate(Where::Cluster(5), "s");
    ctx.initiate(Where::Cluster(6), "d");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(received, 5);
  EXPECT_EQ(f->stats().heap_full_waits, 4u);  // A twice, S and D once each
  // D fits at the third release; with S's leftover entry it waited for the
  // next one, 400k ticks later.
  EXPECT_GT(d_sent_at, third_release);
  EXPECT_LT(d_sent_at, third_release + 100'000);
  EXPECT_FALSE(f->timed_out());
  EXPECT_EQ(f->message_heap().in_use(), 0u);
}

// Regression: broadcast iterated the live slot table while each post may
// block on a full message heap. A slot recycled during such a block received
// the copy meant for its predecessor — a task created mid-broadcast was hit
// by a broadcast from before it existed. Targets must be snapshotted at
// broadcast start; targets dead by send time are dead letters.
TEST(Broadcast, TargetsAreSnapshottedBeforeBlockingSends) {
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.clusters[0].slots = 3;       // main, parker, victim; fresh waits
  cfg.message_heap_bytes = 4096;   // one filler message fills the heap
  Fixture f(cfg);
  int fresh_got = 0;
  int delivered = -1;
  f->register_tasktype("parker", [&](TaskContext& ctx) {
    // Hold the filler in-queue (heap full) until long after the victim's
    // slot has been recycled, then drain it and accept the broadcast.
    ctx.compute(600'000);
    ctx.accept(AcceptSpec{}.of("fill").forever());
    ctx.accept(AcceptSpec{}.of("go").forever());
  });
  f->register_tasktype("victim", [&](TaskContext& ctx) {
    ctx.compute(100'000);  // exits while the broadcaster is heap-blocked
  });
  f->register_tasktype("fresh", [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.of("go").delay_for(2'000'000));
    fresh_got = res.count("go");
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.initiate(Where::Same(), "parker");  // slot 4
    ctx.initiate(Where::Same(), "victim");  // slot 5
    ctx.initiate(Where::Same(), "fresh");   // held until a slot frees
    ctx.compute(20'000);                    // let parker and victim start
    // Fill the heap, then broadcast: the first copy blocks on heap space
    // while the victim exits and "fresh" is started into its slot.
    ctx.send(Dest::To(f->cluster(1).slot(4).id), "fill",
             {Value(std::vector<double>(420, 1.0))});
    delivered = ctx.broadcast("go", {Value(std::vector<double>(100, 2.0))});
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_FALSE(f->timed_out());
  EXPECT_GT(f->stats().heap_full_waits, 0u);  // the broadcast did block
  // The broadcast snapshot saw parker and victim, so it commits to 2 copies;
  // the victim died waiting for heap space, so exactly one copy lands
  // (broadcast_copies) and one dead letter is counted. The task recycled
  // into the victim's slot must NOT receive a copy.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f->stats().broadcast_copies, 1u);
  EXPECT_EQ(fresh_got, 0);
  EXPECT_GE(f->stats().dead_letters, 1u);
}

// Churn under the distribution tree: a snapshot target killed while its
// (relayed) copy is still in flight becomes a dead letter, a task initiated
// after the snapshot — even one recycled into the victim's slot — receives
// nothing, and the broadcast_copies / dead_letters statistics agree with
// the trace counters.
TEST(Broadcast, TreeChurnKillsBecomeDeadLettersAndStatsMatchTrace) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[0].slots = 6;
  cfg.collective_fanout = 2;  // forces depth > 1: positions 3+ are relayed
  Fixture f(cfg);
  int listener_hits = 0;
  int late_got = 0;
  int delivered = -1;
  f->register_tasktype("listener", [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.of("go").delay_for(3'000'000));
    listener_hits += res.count("go");
  });
  f->register_tasktype("victim", [&](TaskContext& ctx) {
    ctx.accept(AcceptSpec{}.of("go").delay_for(3'000'000));
  });
  f->register_tasktype("late", [&](TaskContext& ctx) {
    auto res = ctx.accept(AcceptSpec{}.of("go").delay_for(2'000'000));
    late_got = res.count("go");
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    for (int i = 0; i < 3; ++i) ctx.initiate(Where::Same(), "listener");
    ctx.initiate(Where::Cluster(2), "listener");
    ctx.initiate(Where::Cluster(2), "victim");
    ctx.compute(200'000);  // let all five targets start
    // Snapshot order is cluster 1's slots then cluster 2's, so the victim
    // (cluster 2, second user slot) is position 5 — a relayed copy. Kill it
    // right as the broadcast begins, before any copy can be posted.
    const TaskId victim_id = f->cluster(2).slot(kFirstUserSlot + 1).id;
    f.eng.schedule(f.eng.now() + 10, [&f, victim_id] {
      f->try_kill_task(victim_id);
    });
    delivered = ctx.broadcast("go");
    // Initiated after the snapshot: may even recycle the victim's slot, but
    // must see none of this broadcast's copies.
    ctx.initiate(Where::Cluster(2), "late");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_FALSE(f->timed_out());
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(listener_hits, 4);
  EXPECT_EQ(late_got, 0);
  EXPECT_EQ(f->stats().broadcast_copies, 4u);
  EXPECT_GE(f->stats().dead_letters, 1u);
  // Stats/trace consistency: every dead letter was traced, one collective
  // event describes the tree, and the victim's lost copy is the only gap
  // between the snapshot size and the copies that landed.
  EXPECT_EQ(f->stats().dead_letters,
            f->tracer().count(trace::EventKind::dead_letter));
  EXPECT_EQ(f->tracer().count(trace::EventKind::collective), 1u);
  EXPECT_EQ(f->stats().broadcast_copies + 1,
            static_cast<std::uint64_t>(delivered));
}

}  // namespace
}  // namespace pisces::rt
