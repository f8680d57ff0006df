// Tests of the execution environment (Section 11): all ten menu operations
// against a live runtime, plus the Figure-1 organization rendering.
#include "exec/execution_env.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pisces::exec {
namespace {

struct Fixture {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<ExecutionEnvironment> env;

  explicit Fixture(config::Configuration cfg = config::Configuration::simple(2)) {
    runtime = std::make_unique<rt::Runtime>(sys, std::move(cfg));
    runtime->register_tasktype("idle", [](rt::TaskContext& ctx) {
      ctx.accept(rt::AcceptSpec{}.of("stop").forever());
    });
    runtime->register_tasktype("quick", [](rt::TaskContext& ctx) {
      ctx.compute(1000);
    });
    runtime->boot();
    env = std::make_unique<ExecutionEnvironment>(*runtime);
  }
};

rt::TaskId first_user_task(rt::Runtime& rt) {
  for (const auto& info : rt.running_tasks()) {
    if (info.id.slot >= rt::kFirstUserSlot) return info.id;
  }
  return {};
}

TEST(ExecEnv, InitiateAndDisplayTasks) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 1, "idle");
  f.runtime->run_for(2'000'000);
  f.env->display_tasks(out);
  EXPECT_NE(out.str().find("idle"), std::string::npos);
  EXPECT_NE(out.str().find("RUNNING"), std::string::npos);
}

TEST(ExecEnv, InitiateToBadClusterReportsError) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 9, "idle");
  EXPECT_NE(out.str().find("INITIATE failed"), std::string::npos);
}

TEST(ExecEnv, KillTask) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 1, "idle");
  f.runtime->run_for(2'000'000);
  const rt::TaskId id = first_user_task(*f.runtime);
  ASSERT_TRUE(id.valid());
  f.env->kill_task(out, id);
  f.runtime->run_for(1'000'000);
  EXPECT_NE(out.str().find("task killed"), std::string::npos);
  EXPECT_EQ(f.runtime->find_record(id), nullptr);
  f.env->kill_task(out, id);
  EXPECT_NE(out.str().find("no such running user task"), std::string::npos);
}

TEST(ExecEnv, SendDeleteAndDisplayQueue) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 1, "idle");
  f.runtime->run_for(2'000'000);
  const rt::TaskId id = first_user_task(*f.runtime);
  f.env->send_message(out, id, "junk");
  f.env->send_message(out, id, "junk");
  f.runtime->run_for(100'000);
  f.env->display_queue(out, id);
  EXPECT_NE(out.str().find("2 messages"), std::string::npos);
  f.env->delete_messages(out, id, "junk");
  EXPECT_NE(out.str().find("2 message(s) deleted"), std::string::npos);
}

TEST(ExecEnv, DumpStateAndPeLoading) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 1, "quick");
  f.runtime->run_for(5'000'000);
  f.env->dump_state(out);
  f.env->display_pe_loading(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("SYSTEM STATE DUMP"), std::string::npos);
  EXPECT_NE(s.find("messages: sent="), std::string::npos);
  EXPECT_NE(s.find("message heap:"), std::string::npos);
  EXPECT_NE(s.find("PE LOADING"), std::string::npos);
  EXPECT_NE(s.find("PE  3"), std::string::npos);
}

TEST(ExecEnv, ChangeTraceOptions) {
  Fixture f;
  std::ostringstream out;
  f.env->change_trace(out, "MSG-SEND", true);
  EXPECT_TRUE(f.runtime->tracer().enabled(trace::EventKind::msg_send, {}));
  f.env->change_trace(out, "MSG-SEND", false);
  EXPECT_FALSE(f.runtime->tracer().enabled(trace::EventKind::msg_send, {}));
  f.env->change_trace(out, "NOT-A-KIND", true);
  EXPECT_NE(out.str().find("unknown event kind"), std::string::npos);
}

TEST(ExecEnv, ChangeTraceForSingleTask) {
  Fixture f;
  std::ostringstream out;
  f.env->initiate_task(out, 1, "idle");
  f.runtime->run_for(2'000'000);
  const rt::TaskId id = first_user_task(*f.runtime);
  ASSERT_TRUE(id.valid());
  f.env->change_trace(out, "MSG-SEND", true);
  f.env->change_trace_for_task(out, id, "MSG-SEND", false);
  EXPECT_TRUE(f.runtime->tracer().enabled(trace::EventKind::msg_send, {}));
  EXPECT_FALSE(f.runtime->tracer().enabled(trace::EventKind::msg_send, id));
  EXPECT_NE(out.str().find("for " + id.str()), std::string::npos);
  f.env->change_trace_for_task(out, id, "BOGUS", true);
  EXPECT_NE(out.str().find("unknown event kind"), std::string::npos);
}

TEST(ExecEnv, ReplDrivesTheMenu) {
  Fixture f;
  std::istringstream in(
      "1\n1 idle\n"
      "5\n"
      "7\n"
      "8\n"
      "9\nMSG-SEND on\n"
      "0\n");
  std::ostringstream out;
  f.env->repl(in, out, 100'000);
  const std::string s = out.str();
  EXPECT_NE(s.find("PISCES EXECUTION ENVIRONMENT"), std::string::npos);
  EXPECT_NE(s.find("initiate request sent"), std::string::npos);
  EXPECT_NE(s.find("RUNNING TASKS"), std::string::npos);
  EXPECT_NE(s.find("SYSTEM STATE DUMP"), std::string::npos);
  EXPECT_NE(s.find("trace MSG-SEND on"), std::string::npos);
  EXPECT_NE(s.find("RUN TERMINATED"), std::string::npos);
}

TEST(ExecEnv, UnknownKindNamesEveryKind) {
  Fixture f;
  std::ostringstream out;
  f.env->change_trace(out, "NOT-A-KIND", true);
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    const std::string name(trace::kind_name(static_cast<trace::EventKind>(k)));
    EXPECT_NE(out.str().find(" " + name), std::string::npos) << name;
  }
}

// Every menu argument must parse in full: a malformed line prints an error
// and neither kills, initiates nor changes a trace setting.
TEST(ExecEnv, ReplRejectsMalformedArguments) {
  Fixture f;
  std::ostringstream out;
  std::istringstream start("1\n1 idle\n");
  f.env->repl(start, out, 100'000);
  const rt::TaskId id = first_user_task(*f.runtime);
  ASSERT_TRUE(id.valid());
  const std::string id_text = std::to_string(id.cluster) + ":" +
                              std::to_string(id.slot) + ":" +
                              std::to_string(id.unique);
  f.env->change_trace(out, "LOCK", true);
  std::istringstream in(
      "2\n" + id_text + "x\n"           // trailing junk after the taskid
      "6\n" + id_text + " " + id_text + "\n"
      "9\nLOCK maybe\n"                 // neither on nor off
      "9\nMSG-SEND on " + id_text + "x\n"
      "1\nx ping\n"
      "1\n1\n"
      "1\n1x idle\n"
      "3\n" + id_text + "\n");
  std::ostringstream menu;
  f.env->repl(in, menu, 100'000);
  const std::string s = menu.str();
  auto count = [&s](const std::string& what) {
    int n = 0;
    for (auto at = s.find(what); at != std::string::npos; at = s.find(what, at + 1)) ++n;
    return n;
  };
  EXPECT_EQ(count("bad taskid"), 2);
  EXPECT_EQ(count("error: expected on or off, got 'maybe'"), 1);
  EXPECT_EQ(count("bad arguments"), 5);
  EXPECT_EQ(count("task killed"), 0);
  EXPECT_EQ(count("initiate request sent"), 0);
  EXPECT_EQ(count("trace "), 0);
  EXPECT_NE(f.runtime->find_record(id), nullptr);
  EXPECT_TRUE(f.runtime->tracer().enabled(trace::EventKind::lock, {}));
  EXPECT_FALSE(f.runtime->tracer().enabled(trace::EventKind::msg_send, {}));
  EXPECT_EQ(f.runtime->running_tasks().size(), 4u);  // 3 controllers + idle
}

TEST(ExecEnv, OrganizationRenderingMatchesFigure1Structure) {
  config::Configuration cfg = config::Configuration::section9_example();
  Fixture f(cfg);
  std::ostringstream out;
  f.runtime->run_for(1'000'000);
  f.env->display_organization(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("CLUSTER 1"), std::string::npos);
  EXPECT_NE(s.find("CLUSTER 4"), std::string::npos);
  EXPECT_NE(s.find("_TCONTR"), std::string::npos);
  EXPECT_NE(s.find("terminal"), std::string::npos);
  EXPECT_NE(s.find("<not in use>"), std::string::npos);
  EXPECT_NE(s.find("force PEs: 7 8 9 10 11 12 13 14 15"), std::string::npos);
  EXPECT_NE(s.find("message-passing network"), std::string::npos);
  EXPECT_NE(s.find("dead-letters: 0"), std::string::npos);
}

}  // namespace
}  // namespace pisces::exec
