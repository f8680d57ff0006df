// Tests of the session layer's supervision policy: restart-with-backoff on
// abnormal termination, escalation (_SUPFAIL) when the retry budget runs
// out or no cluster survives, climbing past dead ancestors, and migration
// of held work off a dead cluster. Fault schedules use the fail-recovery
// family so a lineage can die more than once on a rejoining cluster.
#include "session/supervisor.hpp"

#include <gtest/gtest.h>

#include "session/job_queue.hpp"

namespace pisces::session {
namespace {

/// One runtime + supervisor under a fault plan, driven to completion.
struct Harness {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  std::unique_ptr<rt::Runtime> rt;
  std::unique_ptr<Supervisor> sup;

  explicit Harness(config::Configuration cfg) {
    rt = std::make_unique<rt::Runtime>(sys, std::move(cfg));
  }
};

TEST(Supervisor, RestartsKilledTaskOnSurvivorAfterBackoff) {
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.supervision.enabled = true;
  cfg.supervision.backoff.base = 500'000;
  cfg.faults.pe_halts.push_back({4, 2'000'000});  // cluster 2's primary
  cfg.time_limit = 60'000'000;
  Harness h(std::move(cfg));
  h.sup = std::make_unique<Supervisor>(*h.rt, h.rt->configuration().supervision);
  int done = 0;
  h.rt->register_tasktype("victim", [&done](rt::TaskContext& ctx) {
    ctx.compute(5'000'000);  // still computing when PE 4 halts
    ++done;
  });
  h.rt->boot();
  h.rt->user_initiate(2, "victim");
  h.rt->run();
  EXPECT_FALSE(h.rt->timed_out());
  // The first incarnation died with its PE; the replacement ran on the
  // surviving cluster and completed.
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.rt->stats().tasks_killed, 1u);
  const SupervisorStats& st = h.sup->stats();
  EXPECT_EQ(st.restarts_scheduled, 1u);
  EXPECT_EQ(st.restarts_started, 1u);
  EXPECT_EQ(st.budgets_exhausted, 0u);
  EXPECT_EQ(st.escalations_delivered + st.escalations_dropped, 0u);
  // Recovery latency: death tick -> replacement's start, at least the
  // configured backoff.
  ASSERT_EQ(h.sup->recoveries().size(), 1u);
  const RecoveryRecord& rec = h.sup->recoveries()[0];
  EXPECT_EQ(rec.tasktype, "victim");
  EXPECT_EQ(rec.attempt, 1);
  EXPECT_GE(rec.latency(), 500'000);
  EXPECT_EQ(h.rt->message_heap().in_use(), 0u);
}

TEST(Supervisor, BackoffGrowsExponentiallyAcrossHaltRecoverCycles) {
  // One cluster that keeps dying and rejoining: every incarnation lands on
  // the same (recovered) cluster and is killed by the next halt, so the
  // lineage burns restart after restart with doubling delays.
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.supervision.enabled = true;
  cfg.supervision.max_restarts = 3;
  cfg.supervision.backoff.base = 500'000;
  cfg.supervision.backoff.factor = 2.0;
  cfg.faults.pe_halts.push_back({3, 2'000'000});
  cfg.faults.pe_recoveries.push_back({3, 2'400'000});
  cfg.faults.pe_halts.push_back({3, 4'000'000});
  cfg.faults.pe_recoveries.push_back({3, 4'400'000});
  cfg.faults.pe_halts.push_back({3, 8'000'000});
  cfg.faults.pe_recoveries.push_back({3, 8'400'000});
  cfg.time_limit = 120'000'000;
  Harness h(std::move(cfg));
  h.sup = std::make_unique<Supervisor>(*h.rt, h.rt->configuration().supervision);
  int done = 0;
  h.rt->register_tasktype("victim", [&done](rt::TaskContext& ctx) {
    ctx.compute(5'000'000);
    ++done;
  });
  h.rt->boot();
  h.rt->user_initiate(1, "victim");
  h.rt->run();
  EXPECT_FALSE(h.rt->timed_out());
  EXPECT_EQ(done, 1);  // the fourth incarnation outlived the fault schedule
  EXPECT_EQ(h.rt->stats().tasks_killed, 3u);
  const auto& recs = h.sup->recoveries();
  ASSERT_EQ(recs.size(), 3u);
  // delay = base * factor^(attempt-1): 500K, 1M, 2M (plus dispatch slack).
  EXPECT_EQ(recs[0].attempt, 1);
  EXPECT_GE(recs[0].latency(), 500'000);
  EXPECT_EQ(recs[1].attempt, 2);
  EXPECT_GE(recs[1].latency(), 1'000'000);
  EXPECT_EQ(recs[2].attempt, 3);
  EXPECT_GE(recs[2].latency(), 2'000'000);
  EXPECT_EQ(h.sup->stats().restarts_started, 3u);
  EXPECT_EQ(h.sup->stats().budgets_exhausted, 0u);
  // Fail-recovery accounting: every scheduled rejoin happened.
  ASSERT_NE(h.rt->fault_injector(), nullptr);
  EXPECT_EQ(h.rt->fault_injector()->stats().pe_recoveries, 3u);
}

TEST(Supervisor, ExhaustedBudgetEscalatesSupfailToParent) {
  // The worker's cluster halts often enough to kill every incarnation the
  // budget allows; the third death escalates to the (live) master.
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.clusters[1].slots = 12;  // keeps Any-placement picking cluster 2
  cfg.supervision.enabled = true;
  cfg.supervision.max_restarts = 2;
  cfg.supervision.backoff.base = 300'000;
  cfg.faults.pe_halts.push_back({4, 2'000'000});
  cfg.faults.pe_recoveries.push_back({4, 2'200'000});
  cfg.faults.pe_halts.push_back({4, 5'000'000});
  cfg.faults.pe_recoveries.push_back({4, 5'200'000});
  cfg.faults.pe_halts.push_back({4, 8'000'000});
  cfg.faults.pe_recoveries.push_back({4, 8'200'000});
  cfg.time_limit = 120'000'000;
  Harness h(std::move(cfg));
  // Supervise only the worker: the master must stay out of restart logic.
  h.sup = std::make_unique<Supervisor>(
      *h.rt, config::SupervisionConfig{.enabled = false, .migrate = false});
  h.sup->supervise("worker", {.max_restarts = 2,
                               .backoff = {.base = 300'000, .factor = 2.0,
                                           .cap = 16'000'000}});
  int supfails = 0;
  int childterms = 0;
  std::string supfail_tasktype;
  std::int64_t supfail_attempts = -1;
  h.rt->register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.compute(10'000'000);  // never finishes before the next halt
  });
  h.rt->register_tasktype("master", [&](rt::TaskContext& ctx) {
    ctx.on_message("_CHILDTERM",
                   [&childterms](rt::TaskContext&, const rt::Message&) {
                     ++childterms;
                   });
    ctx.on_message("_SUPFAIL", [&](rt::TaskContext&, const rt::Message& m) {
      ++supfails;
      supfail_tasktype = m.args.at(1).as_str();
      supfail_attempts = m.args.at(2).as_int();
    });
    ctx.initiate(rt::Where::Other(), "worker");
    ctx.accept(rt::AcceptSpec{}.of("_SUPFAIL", 1).all_of("_CHILDTERM")
                   .delay_for(60'000'000));
  });
  h.rt->boot();
  h.rt->user_initiate(1, "master");
  h.rt->run();
  EXPECT_FALSE(h.rt->timed_out());
  EXPECT_EQ(childterms, 3);  // original + 2 restarts, all killed
  EXPECT_EQ(supfails, 1);
  EXPECT_EQ(supfail_tasktype, "worker");
  EXPECT_EQ(supfail_attempts, 2);
  const SupervisorStats& st = h.sup->stats();
  EXPECT_EQ(st.restarts_started, 2u);
  EXPECT_EQ(st.budgets_exhausted, 1u);
  EXPECT_EQ(st.escalations_delivered, 1u);
  EXPECT_EQ(st.escalations_dropped, 0u);
}

TEST(Supervisor, EscalationClimbsPastDeadParentToGrandparent) {
  // master (cluster 1) -> mid (cluster 2) -> worker (cluster 2). Cluster 2
  // halts for good: worker and mid die together. The worker's zero-budget
  // lineage escalates immediately — its parent is dead, so the _SUPFAIL
  // climbs the ancestry to the master.
  config::Configuration cfg = config::Configuration::simple(2);
  cfg.faults.pe_halts.push_back({4, 2'000'000});
  cfg.time_limit = 60'000'000;
  Harness h(std::move(cfg));
  h.sup = std::make_unique<Supervisor>(
      *h.rt, config::SupervisionConfig{.enabled = false, .migrate = false});
  h.sup->supervise("worker", {.max_restarts = 0});
  int supfails = 0;
  h.rt->register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.compute(10'000'000);
  });
  h.rt->register_tasktype("mid", [](rt::TaskContext& ctx) {
    ctx.initiate(rt::Where::Same(), "worker");
    ctx.compute(10'000'000);
  });
  h.rt->register_tasktype("master", [&](rt::TaskContext& ctx) {
    ctx.on_message("_CHILDTERM", [](rt::TaskContext&, const rt::Message&) {});
    ctx.on_message("_SUPFAIL", [&supfails](rt::TaskContext&, const rt::Message&) {
      ++supfails;
    });
    ctx.initiate(rt::Where::Other(), "mid");
    ctx.accept(rt::AcceptSpec{}.of("_SUPFAIL", 1).all_of("_CHILDTERM")
                   .delay_for(30'000'000));
  });
  h.rt->boot();
  h.rt->user_initiate(1, "master");
  h.rt->run();
  EXPECT_FALSE(h.rt->timed_out());
  EXPECT_EQ(supfails, 1);
  EXPECT_EQ(h.sup->stats().budgets_exhausted, 1u);
  EXPECT_EQ(h.sup->stats().escalations_delivered, 1u);
  EXPECT_EQ(h.sup->stats().escalations_dropped, 0u);
  // The worker's own _CHILDTERM to its dead parent was a dead letter,
  // exactly once (satellite: no phantom delivery into a scrubbed record).
  EXPECT_GE(h.rt->stats().dead_letters, 1u);
}

TEST(Supervisor, NoSurvivingClusterDropsTheLineageWithConsoleNotice) {
  // Single cluster, permanent halt: the restart timer fires into a machine
  // with nowhere to run the replacement, and the user controller died with
  // the cluster, so the escalation lands on the console instead.
  config::Configuration cfg = config::Configuration::simple(1);
  cfg.supervision.enabled = true;
  cfg.supervision.backoff.base = 200'000;
  cfg.faults.pe_halts.push_back({3, 2'000'000});
  cfg.time_limit = 60'000'000;
  Harness h(std::move(cfg));
  h.sup = std::make_unique<Supervisor>(*h.rt, h.rt->configuration().supervision);
  h.rt->register_tasktype("victim", [](rt::TaskContext& ctx) {
    ctx.compute(10'000'000);
  });
  h.rt->boot();
  h.rt->user_initiate(1, "victim");
  h.rt->run();
  const SupervisorStats& st = h.sup->stats();
  EXPECT_EQ(st.restarts_scheduled, 1u);
  EXPECT_EQ(st.restarts_started, 0u);
  EXPECT_EQ(st.restart_posts_failed, 1u);
  EXPECT_EQ(st.escalations_dropped, 1u);
  bool noticed = false;
  for (const auto& line : h.rt->console().lines()) {
    if (line.text.find("PISCES SUPERVISOR") != std::string::npos) noticed = true;
  }
  EXPECT_TRUE(noticed);
}

TEST(Supervisor, MigrationMovesHeldInitiatesOffDeadCluster) {
  // Cluster 2 has one user slot; three of the master's four initiates are
  // held by its task controller when the cluster dies. With migration on
  // they re-route to cluster 1 and complete; off, they dead-letter.
  auto run = [](bool migrate) {
    config::Configuration cfg = config::Configuration::simple(2, 4);
    cfg.clusters[1].slots = 1;  // one runs, three are held by the controller
    cfg.faults.pe_halts.push_back({4, 2'000'000});
    cfg.time_limit = 80'000'000;
    Harness h(std::move(cfg));
    h.sup = std::make_unique<Supervisor>(
        *h.rt, config::SupervisionConfig{.enabled = false, .migrate = migrate});
    int done = 0;
    h.rt->register_tasktype("worker", [&done](rt::TaskContext& ctx) {
      ctx.compute(4'000'000);
      ctx.send(rt::Dest::Parent(), "fin");
      ++done;
    });
    h.rt->register_tasktype("master", [&](rt::TaskContext& ctx) {
      ctx.on_message("_CHILDTERM", [](rt::TaskContext&, const rt::Message&) {});
      int fins = 0;
      ctx.on_message("fin", [&fins](rt::TaskContext&, const rt::Message&) {
        ++fins;
      });
      for (int i = 0; i < 4; ++i) {
        ctx.initiate(rt::Where::Cluster(2), "worker");
      }
      ctx.accept(rt::AcceptSpec{}.of("fin", 4).all_of("_CHILDTERM")
                     .delay_for(30'000'000));
    });
    h.rt->boot();
    h.rt->user_initiate(1, "master");
    h.rt->run();
    EXPECT_FALSE(h.rt->timed_out());
    EXPECT_EQ(h.rt->message_heap().in_use(), 0u);
    return std::pair(done, h.rt->stats().initiates_migrated +
                               h.rt->stats().messages_migrated);
  };
  const auto [done_on, migrated_on] = run(true);
  const auto [done_off, migrated_off] = run(false);
  EXPECT_EQ(done_on, 3);  // the running incarnation died, the held three moved
  EXPECT_EQ(migrated_on, 3u);
  EXPECT_EQ(done_off, 0);
  EXPECT_EQ(migrated_off, 0u);
}

TEST(Supervisor, JobQueueAttachesSupervisorWhenConfigured) {
  JobQueue q;
  JobSpec job;
  job.user = "ops";
  job.configuration = config::Configuration::simple(2);
  job.configuration.supervision.enabled = true;
  job.configuration.supervision.backoff.base = 400'000;
  job.configuration.faults.pe_halts.push_back({4, 2'000'000});
  job.configuration.time_limit = 60'000'000;
  job.setup = [](rt::Runtime& rt) {
    rt.register_tasktype("victim", [](rt::TaskContext& ctx) {
      ctx.compute(5'000'000);
    });
  };
  job.start = [](rt::Runtime& rt) { rt.user_initiate(2, "victim"); };
  q.submit(std::move(job));
  auto results = q.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].timed_out);
  EXPECT_EQ(results[0].supervision.restarts_started, 1u);
  ASSERT_EQ(results[0].recoveries.size(), 1u);
  EXPECT_GE(results[0].recoveries[0].latency(), 400'000);
}

}  // namespace
}  // namespace pisces::session
