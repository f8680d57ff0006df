// Tests of windows (Section 8): shrink semantics, remote read/write through
// the owner's controller, hierarchical partitioning without data flowing
// through partitioning tasks, file windows, and error paths.
#include <gtest/gtest.h>

#include <memory>

#include "core/runtime.hpp"

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
  Runtime* operator->() { return rt.get(); }
};

TEST(WindowValue, ShrinkIsRelativeAndBoundsChecked) {
  Window w;
  w.owner = TaskId{1, 3, 7};
  w.array = 1;
  w.rect = Rect{10, 20, 8, 8};
  w.array_rows = 100;
  w.array_cols = 100;
  Window s = w.shrink(Rect{2, 3, 4, 4});
  EXPECT_EQ(s.rect, (Rect{12, 23, 4, 4}));
  EXPECT_EQ(s.owner, w.owner);
  // Shrinking twice composes.
  Window s2 = s.shrink(Rect{1, 1, 2, 2});
  EXPECT_EQ(s2.rect, (Rect{13, 24, 2, 2}));
  EXPECT_THROW((void)w.shrink(Rect{5, 5, 8, 8}), std::out_of_range);
  EXPECT_THROW((void)w.shrink(Rect{0, 0, 0, 1}), std::invalid_argument);
}

TEST(WindowValue, RectOverlapAndContainment) {
  Rect a{0, 0, 4, 4};
  EXPECT_TRUE(a.overlaps(Rect{3, 3, 2, 2}));
  EXPECT_FALSE(a.overlaps(Rect{4, 0, 1, 4}));
  EXPECT_TRUE(a.contains(Rect{1, 1, 3, 3}));
  EXPECT_FALSE(a.contains(Rect{1, 1, 4, 3}));
  EXPECT_EQ(a.elements(), 16u);
  EXPECT_EQ(a.bytes(), 128u);
}

TEST(Window, LocalReadAndWrite) {
  Fixture f;
  Matrix got;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 6, 6);
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) arr.data.at(i, j) = i * 10.0 + j;
    }
    Window w = ctx.make_window("A").shrink(Rect{1, 2, 2, 3});
    got = ctx.window_read(w);
    Matrix patch(2, 3, -1.0);
    ctx.window_write(w, patch);
    EXPECT_EQ(ctx.array_data("A").at(1, 2), -1.0);
    EXPECT_EQ(ctx.array_data("A").at(0, 0), 0.0);
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_EQ(got.rows(), 2);
  ASSERT_EQ(got.cols(), 3);
  EXPECT_EQ(got.at(0, 0), 12.0);
  EXPECT_EQ(got.at(1, 2), 24.0);
}

TEST(Window, RemoteReadAndWriteThroughOwnersController) {
  Fixture f;
  Matrix got;
  double after_write = 0;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("grid", 10, 10);
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) arr.data.at(i, j) = i + j * 0.5;
    }
    // Hand the parent a window on the lower-right quadrant, then stay
    // alive while it reads/writes — the owner does NOT participate; its
    // cluster's task controller serves the requests.
    ctx.send(Dest::Parent(), "win",
             {Value(ctx.make_window("grid").shrink(Rect{5, 5, 5, 5}))});
    ctx.accept(AcceptSpec{}.of("done").forever());
    after_write = ctx.array_data("grid").at(5, 5);
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Cluster(2), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    got = ctx.window_read(w);
    Matrix patch(5, 5, 99.0);
    ctx.window_write(w, patch);
    ctx.send(Dest::To(w.owner), "done");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_EQ(got.rows(), 5);
  EXPECT_EQ(got.at(0, 0), 5 + 5 * 0.5);
  EXPECT_EQ(got.at(4, 4), 9 + 9 * 0.5);
  EXPECT_EQ(after_write, 99.0);
  EXPECT_EQ(f->stats().window_reads, 1u);
  EXPECT_EQ(f->stats().window_writes, 1u);
}

// The paper's motivating structure: a partitioning task splits a window and
// forwards the halves to workers; "the array values only need be transmitted
// once, to the task assigned the actual processing of the data."
TEST(Window, HierarchicalPartitioningMovesDataOnlyToWorkers) {
  Fixture f(config::Configuration::simple(2));
  double sum_left = 0;
  double sum_right = 0;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 4, 8);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 8; ++j) arr.data.at(i, j) = 1.0;
    }
    Window whole = ctx.make_window("A");
    Window left = whole.shrink(Rect{0, 0, 4, 4});
    Window right = whole.shrink(Rect{0, 4, 4, 4});
    int ready = 0;
    TaskId kids[2];
    ctx.on_message("hello", [&](TaskContext& c, const Message& m) {
      kids[ready++] = m.sender;
      (void)c;
    });
    ctx.initiate(Where::Cluster(2), "worker2");
    ctx.initiate(Where::Cluster(2), "worker2");
    ctx.accept(AcceptSpec{}.of("hello", 2).forever());
    ctx.send(Dest::To(kids[0]), "part", {Value(left)});
    ctx.send(Dest::To(kids[1]), "part", {Value(right)});
    auto res = ctx.accept(AcceptSpec{}.of("sum", 2).forever());
    EXPECT_EQ(res.count("sum"), 2);
    ctx.accept(AcceptSpec{}.all_of("noop"));
  });
  f->register_tasktype("worker2", [&](TaskContext& ctx) {
    ctx.send(Dest::Parent(), "hello");
    Window w;
    ctx.on_message("part", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.accept(AcceptSpec{}.of("part").forever());
    Matrix data = ctx.window_read(w);
    double s = 0;
    for (double x : data.data()) s += x;
    if (w.rect.col0 == 0) {
      sum_left = s;
    } else {
      sum_right = s;
    }
    ctx.send(Dest::Parent(), "sum", {Value(s)});
  });
  f->boot();
  f->user_initiate(1, "owner");
  f->run();
  EXPECT_EQ(sum_left, 16.0);
  EXPECT_EQ(sum_right, 16.0);
  // Two reads of 16 elements each; the splitter never moved array data.
  EXPECT_EQ(f->stats().window_reads, 2u);
}

TEST(Window, ReadFromDeadOwnerFails) {
  Fixture f;
  bool threw = false;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    ctx.local_array("A", 4, 4);
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    // terminates immediately
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Other(), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    ctx.compute(2'000'000);  // let the owner die
    try {
      ctx.window_read(w);
    } catch (const WindowError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("not running"), std::string::npos);
    }
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(threw);
}

TEST(Window, OutOfBoundsRectRejectedByService) {
  Fixture f;
  bool threw = false;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    ctx.local_array("A", 4, 4);
    Window w = ctx.make_window("A");
    w.rect = Rect{0, 0, 5, 5};  // forged oversize rect
    ctx.send(Dest::Parent(), "win", {Value(w)});
    ctx.accept(AcceptSpec{}.of("done").forever());
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Other(), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    try {
      ctx.window_read(w);
    } catch (const WindowError&) {
      threw = true;
    }
    ctx.send(Dest::To(w.owner), "done");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(threw);
}

// Every request the window service must refuse, sent both to a task
// controller (an owner task's in-memory array) and to a file controller (a
// file array on disk). Each refusal is a _WINERR carrying the store's
// reason, leaves the array as it was, counts no window read or write, and
// never reaches the disk.
struct MalformedRequest {
  const char* op;             ///< _WINREAD or _WINWRITE
  Rect rect;                  ///< replaces the served window's rectangle
  std::uint32_t array;        ///< replaces its array id; 0 keeps it
  std::size_t words;          ///< _WINWRITE payload size
  const char* memory_reason;  ///< refusal from the task controller
  const char* file_reason;    ///< refusal from the file controller
};

const std::vector<MalformedRequest>& malformed_requests() {
  static const std::vector<MalformedRequest> cases = {
      {"_WINREAD", {0, 0, 5, 5}, 0, 0, "window [0:5,0:5) outside array",
       "window [0:5,0:5) outside file array"},
      {"_WINREAD", {1, 2, 2, 3}, 0, 0, "window [1:3,2:5) outside array",
       "window [1:3,2:5) outside file array"},
      {"_WINREAD", {-1, 0, 1, 1}, 0, 0, "window [-1:0,0:1) outside array",
       "window [-1:0,0:1) outside file array"},
      {"_WINREAD", {2147483647, 0, 1, 1}, 0, 0,
       "window [2147483647:2147483648,0:1) outside array",
       "window [2147483647:2147483648,0:1) outside file array"},
      {"_WINREAD", {0, 0, 1, 1}, 99, 0, "owner has no array id 99",
       "unknown file array id 99"},
      {"_WINWRITE", {2, 2, 3, 3}, 0, 9, "window [2:5,2:5) outside array",
       "window [2:5,2:5) outside file array"},
      {"_WINWRITE", {0, 0, 0, 4}, 0, 0, "window [0:0,0:4) outside array",
       "window [0:0,0:4) outside file array"},
      {"_WINWRITE", {0, 0, 2, 2}, 0, 3, "write data size mismatch",
       "write data size mismatch"},
      {"_WINWRITE", {0, 0, 1, 1}, 99, 1, "owner has no array id 99",
       "unknown file array id 99"},
  };
  return cases;
}

struct RejectionRun {
  std::vector<std::string> replies;  ///< "<type>: <reason>" per request
  std::uint64_t window_reads = 0;
  std::uint64_t window_writes = 0;
  std::uint64_t disk_transfers = 0;
  bool array_unchanged = false;
};

Matrix numbered_4x4() {
  Matrix m(4, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) m.at(i, j) = i * 10.0 + j;
  }
  return m;
}

/// Send every malformed request, built from `w`, to `service` from `ctx`,
/// one at a time, and record each reply and the counters afterwards.
void send_malformed(Fixture& f, TaskContext& ctx, TaskId service,
                    const Window& w, RejectionRun& run) {
  const auto& cases = malformed_requests();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MalformedRequest& c = cases[i];
    Window bad = w;
    bad.rect = c.rect;
    if (c.array != 0) bad.array = c.array;
    // Negative request ids never match one the task's own window calls use.
    std::vector<Value> args{Value(-1 - static_cast<std::int64_t>(i)), Value(bad)};
    if (std::string(c.op) == "_WINWRITE") {
      args.emplace_back(std::vector<double>(c.words, -7.0));
    }
    ctx.send(Dest::To(service), c.op, std::move(args));
    auto& replies = ctx.record().replies;
    while (replies.size() <= i) ctx.proc().block();
    const Message& m = replies[i];
    run.replies.push_back(m.type + ": " +
                          (m.type == "_WINERR" ? m.args.at(1).as_str() : ""));
  }
  run.window_reads = f->stats().window_reads;
  run.window_writes = f->stats().window_writes;
  run.disk_transfers = f.machine.disk(1).transfers();
}

RejectionRun reject_in_memory() {
  Fixture f;
  RejectionRun run;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    ctx.local_array("A", 4, 4).data = numbered_4x4();
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("done").forever());
    run.array_unchanged = ctx.array_data("A") == numbered_4x4();
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Cluster(2), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    send_malformed(f, ctx, f->cluster(2).controller_id(), w, run);
    ctx.send(Dest::To(w.owner), "done");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  return run;
}

RejectionRun reject_on_disk() {
  Fixture f;
  fsim::FileStore store;
  store.create("F", numbered_4x4());
  f->attach_file_store(1, std::move(store), 1);
  RejectionRun run;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    const Window w = ctx.file_window(1, "F");
    send_malformed(f, ctx, w.owner, w, run);
    run.array_unchanged = ctx.window_read(w) == numbered_4x4();
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  return run;
}

TEST(Window, MalformedRequestsRejectedAlikeByBothStores) {
  const auto& cases = malformed_requests();
  for (const bool on_disk : {false, true}) {
    SCOPED_TRACE(on_disk ? "file controller" : "task controller");
    const RejectionRun run = on_disk ? reject_on_disk() : reject_in_memory();
    ASSERT_EQ(run.replies.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(run.replies[i],
                std::string("_WINERR: ") +
                    (on_disk ? cases[i].file_reason : cases[i].memory_reason))
          << "request " << i << " (" << cases[i].op << ")";
    }
    EXPECT_EQ(run.window_reads, 0u);
    EXPECT_EQ(run.window_writes, 0u);
    EXPECT_EQ(run.disk_transfers, 0u);
    EXPECT_TRUE(run.array_unchanged);
  }
}

// ---- file windows ----

config::Configuration file_config() {
  config::Configuration cfg = config::Configuration::simple(2);
  return cfg;
}

TEST(FileWindow, ReadAndWriteThroughFileController) {
  Fixture f(file_config());
  fsim::FileStore store;
  store.create("big", 16, 16, 2.0);
  f->attach_file_store(1, std::move(store), 1);
  Matrix got;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w = ctx.file_window(1, "big");
    EXPECT_TRUE(w.is_file_window());
    EXPECT_EQ(w.rect, (Rect{0, 0, 16, 16}));
    Window quad = w.shrink(Rect{8, 8, 4, 4});
    got = ctx.window_read(quad);
    Matrix patch(4, 4, -5.0);
    ctx.window_write(quad, patch);
    Matrix back = ctx.window_read(quad);
    EXPECT_EQ(back.at(0, 0), -5.0);
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_EQ(got.rows(), 4);
  EXPECT_EQ(got.at(2, 2), 2.0);
  EXPECT_GE(f->stats().window_reads, 2u);
  EXPECT_EQ(f->stats().window_writes, 1u);
  // The disk actually moved the bytes.
  EXPECT_GT(f.machine.disk(1).transfers(), 0u);
}

TEST(FileWindow, UnknownArrayFails) {
  Fixture f(file_config());
  f->attach_file_store(1, fsim::FileStore{}, 1);
  bool threw = false;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    try {
      ctx.file_window(1, "missing");
    } catch (const WindowError&) {
      threw = true;
    }
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(threw);
}

TEST(FileWindow, ClusterWithoutFileControllerFails) {
  Fixture f(file_config());
  bool threw = false;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    try {
      ctx.file_window(2, "anything");
    } catch (const WindowError&) {
      threw = true;
    }
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(threw);
}

TEST(FileWindow, DisjointReadsPipelineConflictingWritesSerialize) {
  // Two readers on disjoint regions vs two writers on overlapping regions:
  // the overlapping writes must take longer end-to-end.
  auto run_case = [](bool overlap, bool writes) {
    sim::Engine eng;
    flex::Machine machine(eng);
    mmos::System sys(machine);
    Runtime rt(sys, config::Configuration::simple(2));
    fsim::FileStore store;
    store.create("data", 64, 64, 1.0);
    rt.attach_file_store(1, std::move(store), 1);
    sim::Tick done_at = 0;
    int finished = 0;
    rt.register_tasktype("io", [&](TaskContext& ctx) {
      Window w = ctx.file_window(1, "data");
      const int idx = static_cast<int>(ctx.args().at(0).as_int());
      Rect r = ctx.args().at(1).as_bool()  // overlap?
                   ? Rect{0, 0, 32, 64}
                   : Rect{idx * 32, 0, 32, 64};
      Window part = w.shrink(r);
      if (ctx.args().at(2).as_bool()) {
        ctx.window_write(part, Matrix(32, 64, 7.0));
      } else {
        (void)ctx.window_read(part);
      }
      ++finished;
      if (finished == 2) done_at = eng.now();
    });
    rt.register_tasktype("main", [&](TaskContext& ctx) {
      ctx.initiate(Where::Cluster(1), "io", {Value(0), Value(overlap), Value(writes)});
      ctx.initiate(Where::Cluster(2), "io", {Value(1), Value(overlap), Value(writes)});
    });
    rt.boot();
    rt.user_initiate(1, "main");
    rt.run();
    return done_at;
  };
  const sim::Tick disjoint_reads = run_case(false, false);
  const sim::Tick overlapping_writes = run_case(true, true);
  EXPECT_GT(overlapping_writes, disjoint_reads);
}

// A _WINWRITE whose payload does not match the window must be rejected
// BEFORE the controller is charged the per-word copy cost. The window here
// covers 100x100 = 10,000 elements, so a pre-validation charge would add
// 10,000 ticks of controller CPU; everything the controller legitimately
// does in this scenario (boot, one task_setup, a few message overheads)
// stays well under half of that.
TEST(Window, RejectedWriteIsNotBilledForTheCopy) {
  Fixture f;
  double untouched = -1.0;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 100, 100);
    arr.data.at(0, 0) = 42.0;
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("release").forever());
    untouched = ctx.array_data("A").at(0, 0);
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Cluster(2), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    // Valid owner, array, and rect — but a 4-element payload for a
    // 10,000-element window. The owner's controller must bounce it.
    ctx.send(Dest::TContr(2), "_WINWRITE",
             {Value(1), Value(w), Value(std::vector<double>(4, 0.0))});
    ctx.send(Dest::To(w.owner), "release");
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_EQ(f->stats().window_writes, 0u);
  EXPECT_EQ(untouched, 42.0);
  const auto& ctl = f->cluster(2).slot(kTaskControllerSlot);
  ASSERT_NE(ctl.proc, nullptr);
  EXPECT_LT(ctl.proc->cpu_ticks(), 5'000);
}

// Regression: the window service bound a reference to the owner's array and
// THEN blocked in the copy charge. If the owner is killed during that charge,
// finish_task frees the array storage and the copy read freed memory
// (use-after-free, caught by the ASan preset). The service must re-validate
// owner and array liveness after every blocking charge and reply _WINERR.
TEST(Window, OwnerKilledDuringReadChargeGetsWinerrNotUseAfterFree) {
  Fixture f;
  bool got_error = false;
  bool got_data = false;
  TaskId owner_id;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    auto& arr = ctx.local_array("A", 256, 256);
    arr.data.at(0, 0) = 42.0;
    owner_id = ctx.self();
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("never").forever());
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Cluster(2), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    // The 256x256 copy charge occupies the controller for ~65k ticks; land
    // the kill well inside it, after the service has validated the request.
    f->engine().schedule(f->engine().now() + 20'000,
                         [&f, &owner_id] { f->kill_task(owner_id); });
    try {
      Matrix part = ctx.window_read(w);
      got_data = part.rows() == 256;
    } catch (const WindowError&) {
      got_error = true;
    }
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  EXPECT_TRUE(got_error);
  EXPECT_FALSE(got_data);
  EXPECT_EQ(f->stats().window_reads, 0u);
}

// Same hazard on the write path: the paste must not run against an array
// whose owner died while the controller was being charged for the copy.
// The write request's payload makes the requester-side transfer time dwarf
// the kill delay used by the read test, so the kill tick is found by probe:
// run the scenario once without a kill (the simulation is deterministic),
// note when the write completes, and aim the second run's kill inside the
// controller's 128x128 = 16384-tick copy charge that directly precedes it.
namespace {
struct WriteKillOutcome {
  sim::Tick done = 0;
  bool completed = false;
  bool got_error = false;
  std::uint64_t window_writes = 0;
};

WriteKillOutcome run_write_kill_scenario(sim::Tick kill_at) {
  Fixture f;
  WriteKillOutcome out;
  TaskId owner_id;
  f->register_tasktype("owner", [&](TaskContext& ctx) {
    ctx.local_array("A", 128, 128);
    owner_id = ctx.self();
    ctx.send(Dest::Parent(), "win", {Value(ctx.make_window("A"))});
    ctx.accept(AcceptSpec{}.of("never").forever());
  });
  f->register_tasktype("main", [&](TaskContext& ctx) {
    Window w;
    ctx.on_message("win", [&w](TaskContext&, const Message& m) {
      w = m.args.at(0).as_window();
    });
    ctx.initiate(Where::Cluster(2), "owner");
    ctx.accept(AcceptSpec{}.of("win").forever());
    if (kill_at > 0) {
      f->engine().schedule(kill_at, [&f, &owner_id] { f->kill_task(owner_id); });
    }
    try {
      ctx.window_write(w, Matrix(128, 128, 1.0));
      out.completed = true;
    } catch (const WindowError&) {
      out.got_error = true;
    }
    out.done = f->engine().now();
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  out.window_writes = f->stats().window_writes;
  return out;
}
}  // namespace

TEST(Window, OwnerKilledDuringWriteChargeGetsWinerrNotUseAfterFree) {
  const WriteKillOutcome probe = run_write_kill_scenario(0);
  ASSERT_TRUE(probe.completed);
  ASSERT_GT(probe.done, 16'384);
  // Halfway into the copy charge: after the service validated the request,
  // well before the paste.
  const WriteKillOutcome killed = run_write_kill_scenario(probe.done - 8'000);
  EXPECT_TRUE(killed.got_error);
  EXPECT_FALSE(killed.completed);
  EXPECT_EQ(killed.window_writes, 0u);
}

}  // namespace
}  // namespace pisces::rt
