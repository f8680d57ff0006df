// Tests of the configuration environment (Section 9): validation rules,
// file round-trips, the worked Section 9 mapping, and the menu editor.
#include "config/configuration.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "config/menu.hpp"
#include "text_mutations.hpp"

namespace pisces::config {
namespace {

flex::MachineSpec nasa_spec() { return flex::MachineSpec{}; }

TEST(Validation, SimpleConfigurationIsValid) {
  auto cfg = Configuration::simple(4);
  EXPECT_TRUE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, Section9ExampleIsValid) {
  auto cfg = Configuration::section9_example();
  auto errors = cfg.validate(nasa_spec());
  EXPECT_TRUE(errors.empty()) << errors.front();
  // "Map clusters 1-4 to FLEX PE's 3-6, and allocate 4 slots in each."
  for (int c = 1; c <= 4; ++c) {
    const auto* cl = cfg.find_cluster(c);
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->primary_pe, 2 + c);
    EXPECT_EQ(cl->slots, 4);
  }
  // "Use PE's 7-15 to run forces for both clusters 3 and 4."
  EXPECT_EQ(cfg.find_cluster(3)->secondary_pes.size(), 9u);
  EXPECT_EQ(cfg.find_cluster(4)->secondary_pes.size(), 9u);
  // "Use PE's 16-20 to run forces for cluster 2."
  EXPECT_EQ(cfg.find_cluster(2)->secondary_pes.size(), 5u);
  // "Allocate no secondary PE's ... for cluster 1."
  EXPECT_TRUE(cfg.find_cluster(1)->secondary_pes.empty());
}

TEST(Validation, RejectsUnixPes) {
  auto cfg = Configuration::simple(1);
  cfg.clusters[0].primary_pe = 2;
  auto errors = cfg.validate(nasa_spec());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("Unix"), std::string::npos);
}

TEST(Validation, RejectsDuplicatePrimaries) {
  auto cfg = Configuration::simple(2);
  cfg.clusters[1].primary_pe = cfg.clusters[0].primary_pe;
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsDuplicateClusterNumbers) {
  auto cfg = Configuration::simple(2);
  cfg.clusters[1].number = cfg.clusters[0].number;
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsSecondaryEqualToOwnPrimary) {
  auto cfg = Configuration::simple(1);
  cfg.clusters[0].secondary_pes = {cfg.clusters[0].primary_pe};
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsOutOfRangeSecondaries) {
  auto cfg = Configuration::simple(1);
  cfg.clusters[0].secondary_pes = {21};
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsNoTerminal) {
  auto cfg = Configuration::simple(2);
  cfg.clusters[0].has_terminal = false;
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsTooManyClusters) {
  // "The programmer can choose to use between 1 and 18 clusters."
  Configuration cfg;
  for (int i = 0; i < 19; ++i) {
    ClusterConfig c;
    c.number = i + 1;
    c.primary_pe = 3 + (i % 18);
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(c);
  }
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
  cfg.clusters.resize(18);
  // 18 clusters with distinct primaries 3..20 is the maximum.
  for (int i = 0; i < 18; ++i) cfg.clusters[static_cast<std::size_t>(i)].primary_pe = 3 + i;
  EXPECT_TRUE(cfg.validate(nasa_spec()).empty());
}

TEST(Validation, RejectsBadScalars) {
  auto cfg = Configuration::simple(1);
  cfg.time_limit = 0;
  cfg.message_heap_bytes = 100;
  auto errors = cfg.validate(nasa_spec());
  EXPECT_EQ(errors.size(), 2u);
}

TEST(Persistence, SaveLoadRoundTrip) {
  auto cfg = Configuration::section9_example();
  cfg.time_limit = 123456;
  cfg.accept_default_timeout = 777;
  cfg.message_heap_bytes = 65536;
  cfg.trace.set(trace::EventKind::msg_send, true);
  cfg.trace.set(trace::EventKind::force_split, true);
  std::stringstream ss;
  cfg.save(ss);
  Configuration back = Configuration::load(ss);
  EXPECT_EQ(back.name, cfg.name);
  EXPECT_EQ(back.time_limit, 123456);
  EXPECT_EQ(back.accept_default_timeout, 777);
  EXPECT_EQ(back.message_heap_bytes, 65536u);
  ASSERT_EQ(back.clusters.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.clusters[i].number, cfg.clusters[i].number);
    EXPECT_EQ(back.clusters[i].primary_pe, cfg.clusters[i].primary_pe);
    EXPECT_EQ(back.clusters[i].slots, cfg.clusters[i].slots);
    EXPECT_EQ(back.clusters[i].secondary_pes, cfg.clusters[i].secondary_pes);
    EXPECT_EQ(back.clusters[i].has_terminal, cfg.clusters[i].has_terminal);
  }
  EXPECT_TRUE(back.trace.get(trace::EventKind::msg_send));
  EXPECT_FALSE(back.trace.get(trace::EventKind::msg_accept));
  EXPECT_TRUE(back.trace.get(trace::EventKind::force_split));
  EXPECT_TRUE(back.validate(nasa_spec()).empty());
}

TEST(Persistence, LoadRejectsBadHeader) {
  std::stringstream ss("not a config\n");
  EXPECT_THROW(Configuration::load(ss), std::runtime_error);
}

TEST(Persistence, LoadRejectsUnknownKey) {
  std::stringstream ss("pisces-config v1\nbogus 1\nend\n");
  EXPECT_THROW(Configuration::load(ss), std::runtime_error);
}

TEST(Persistence, LoadConsumesEveryLineInFullAndNamesTheFault) {
  // Each of these lines used to load partially or with junk ignored. Now
  // each throws, naming its line number and the offending token.
  const struct {
    const char* line;
    const char* token;
  } bad[] = {
      {"timelimit 5000 garbage", "'garbage'"},  // trailing token
      {"reliable 5", "'reliable'"},             // missing fields
      {"cluster 1 primary x slots 9 terminal 1 secondaries", "'x'"},
      {"cluster 1 primary 3 slotz 9 terminal 1 secondaries", "'slotz'"},
      {"heap lots", "'lots'"},                  // non-numeric field
      {"cluster 1 primary 3 slots 4 terminal 1 secondaries 7 x 9", "'x'"},
  };
  for (const auto& c : bad) {
    SCOPED_TRACE(c.line);
    std::stringstream ss(std::string("pisces-config v1\nname strict\n") +
                         c.line + "\nend\n");
    try {
      (void)Configuration::load(ss);
      ADD_FAILURE() << "loaded without an error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3:"), std::string::npos) << what;
      EXPECT_NE(what.find(c.token), std::string::npos) << what;
    }
  }
  // The one deliberate exception: a trace line written before later event
  // kinds existed still loads, with those kinds off.
  std::stringstream legacy("pisces-config v1\ntrace 1 0 1\nend\n");
  const Configuration cfg = Configuration::load(legacy);
  EXPECT_TRUE(cfg.trace.get(trace::EventKind::task_init));
  EXPECT_FALSE(cfg.trace.get(trace::EventKind::task_term));
  EXPECT_TRUE(cfg.trace.get(trace::EventKind::msg_send));
  EXPECT_FALSE(cfg.trace.get(trace::EventKind::dup_drop));
  // `name` takes the rest of its line, so a name save() writes loads back.
  Configuration named = Configuration::simple(1);
  named.name = "two words";
  std::stringstream ss;
  named.save(ss);
  EXPECT_EQ(Configuration::load(ss).name, "two words");
}

TEST(Menu, BuildsTheSection9MappingInteractively) {
  // Drive the configuration environment exactly as Section 9 describes.
  ConfigMenu menu;
  std::istringstream in(
      "name section9\n"
      "cluster 1\nprimary 1 3\nslots 1 4\n"
      "cluster 2\nprimary 2 4\nslots 2 4\nsecondaries 2 16-20\n"
      "cluster 3\nprimary 3 5\nslots 3 4\nsecondaries 3 7-15\n"
      "cluster 4\nprimary 4 6\nslots 4 4\nsecondaries 4 7-15\n"
      "terminal 1\n"
      "validate\n"
      "done\n");
  std::ostringstream out;
  Configuration cfg = menu.repl(in, out);
  EXPECT_NE(out.str().find("configuration OK"), std::string::npos);
  const auto reference = Configuration::section9_example();
  ASSERT_EQ(cfg.clusters.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cfg.clusters[i].primary_pe, reference.clusters[i].primary_pe);
    EXPECT_EQ(cfg.clusters[i].secondary_pes, reference.clusters[i].secondary_pes);
  }
}

TEST(Menu, ReportsValidationErrorsAndBadCommands) {
  ConfigMenu menu;
  std::ostringstream out;
  EXPECT_TRUE(menu.apply("cluster 1", out));
  EXPECT_TRUE(menu.apply("primary 1 1", out));  // Unix PE
  EXPECT_TRUE(menu.apply("validate", out));
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_TRUE(menu.apply("frobnicate", out));
  EXPECT_NE(out.str().find("unknown command"), std::string::npos);
  EXPECT_FALSE(menu.apply("done", out));
}

TEST(Menu, EditExistingConfiguration) {
  ConfigMenu menu;
  menu.edit(Configuration::simple(2));
  std::ostringstream out;
  menu.apply("slots 2 8", out);
  menu.apply("trace MSG-SEND on", out);
  EXPECT_EQ(menu.current().find_cluster(2)->slots, 8);
  EXPECT_TRUE(menu.current().trace.get(trace::EventKind::msg_send));
}

TEST(Persistence, CollectiveFanoutRoundTripsAndDefaultStaysImplicit) {
  auto cfg = Configuration::simple(1);
  {
    std::stringstream ss;
    cfg.save(ss);
    // The default fan-out is not written, so older readers stay compatible.
    EXPECT_EQ(ss.str().find("collective-fanout"), std::string::npos);
    EXPECT_EQ(Configuration::load(ss).collective_fanout, 4);
  }
  cfg.collective_fanout = 8;
  std::stringstream ss;
  cfg.save(ss);
  EXPECT_NE(ss.str().find("collective-fanout 8"), std::string::npos);
  EXPECT_EQ(Configuration::load(ss).collective_fanout, 8);
}

TEST(Validation, RejectsDegenerateCollectiveFanout) {
  auto cfg = Configuration::simple(1);
  cfg.collective_fanout = 1;  // a 1-ary "tree" is a chain: reject
  EXPECT_FALSE(cfg.validate(nasa_spec()).empty());
}

TEST(Menu, SetsCollectiveFanout) {
  ConfigMenu menu;
  std::ostringstream out;
  EXPECT_TRUE(menu.apply("fanout 3", out));
  EXPECT_EQ(menu.current().collective_fanout, 3);
  EXPECT_TRUE(menu.apply("fanout 1", out));  // rejected, value unchanged
  EXPECT_EQ(menu.current().collective_fanout, 3);
  EXPECT_NE(out.str().find("usage: fanout"), std::string::npos);
}

TEST(Persistence, PlacePolicyRoundTripsAndDefaultStaysImplicit) {
  auto cfg = Configuration::simple(2);
  cfg.clusters[0].secondary_pes = {5, 6};
  cfg.clusters[0].place = PlacePolicy::least_loaded;
  std::stringstream ss;
  cfg.save(ss);
  // The default policy is not written, so pre-placement readers (and the
  // seed's saved configurations) stay byte-compatible.
  EXPECT_EQ(ss.str().find("place primary"), std::string::npos);
  EXPECT_NE(ss.str().find("place least-loaded"), std::string::npos);
  Configuration back = Configuration::load(ss);
  ASSERT_EQ(back.clusters.size(), 2u);
  EXPECT_EQ(back.clusters[0].place, PlacePolicy::least_loaded);
  EXPECT_EQ(back.clusters[1].place, PlacePolicy::primary);
  EXPECT_TRUE(back.validate(nasa_spec()).empty());
}

TEST(Persistence, LoadRejectsUnknownPlacePolicy) {
  std::stringstream ss(
      "pisces-config v1\n"
      "cluster 1 primary 3 slots 4 terminal 1 place everywhere secondaries\n"
      "end\n");
  EXPECT_THROW(Configuration::load(ss), std::runtime_error);
}

TEST(Menu, PlaceCommandSetsThePolicy) {
  ConfigMenu menu;
  std::ostringstream out;
  menu.apply("cluster 1", out);
  menu.apply("place 1 least-loaded", out);
  EXPECT_EQ(menu.current().find_cluster(1)->place, PlacePolicy::least_loaded);
  menu.apply("place 1 round-robin", out);
  EXPECT_EQ(menu.current().find_cluster(1)->place, PlacePolicy::round_robin);
  // A bad policy name is reported and leaves the setting untouched.
  menu.apply("place 1 bogus", out);
  EXPECT_EQ(menu.current().find_cluster(1)->place, PlacePolicy::round_robin);
  EXPECT_NE(out.str().find("unknown placement policy"), std::string::npos);
}

TEST(Persistence, FaultPlanRoundTripsBitExactly) {
  auto cfg = Configuration::simple(2);
  cfg.faults.seed = 0xdeadbeef;
  cfg.faults.pe_halts.push_back({4, 2'500'000});
  cfg.faults.pe_halts.push_back({5, 7'000'000});
  cfg.faults.bus_loss = 0.1;  // not exactly representable: needs max_digits10
  cfg.faults.bus_duplication = 0.05;
  cfg.faults.bus_delay_probability = 0.25;
  cfg.faults.bus_delay_ticks = 40'000;
  cfg.faults.heap_outages.push_back({1'000'000, 2'000'000});
  cfg.faults.disk_error = 0.3;
  std::stringstream ss;
  cfg.save(ss);
  Configuration back = Configuration::load(ss);
  EXPECT_EQ(back.faults.seed, cfg.faults.seed);
  ASSERT_EQ(back.faults.pe_halts.size(), 2u);
  EXPECT_EQ(back.faults.pe_halts[1].pe, 5);
  EXPECT_EQ(back.faults.pe_halts[1].at, 7'000'000);
  // Bit-exact probabilities: the same file replays the same trajectory.
  EXPECT_EQ(back.faults.bus_loss, cfg.faults.bus_loss);
  EXPECT_EQ(back.faults.bus_duplication, cfg.faults.bus_duplication);
  EXPECT_EQ(back.faults.bus_delay_probability, cfg.faults.bus_delay_probability);
  EXPECT_EQ(back.faults.bus_delay_ticks, 40'000);
  ASSERT_EQ(back.faults.heap_outages.size(), 1u);
  EXPECT_EQ(back.faults.heap_outages[0].from, 1'000'000);
  EXPECT_EQ(back.faults.heap_outages[0].until, 2'000'000);
  EXPECT_EQ(back.faults.disk_error, cfg.faults.disk_error);
  EXPECT_TRUE(back.validate(nasa_spec()).empty());
}

TEST(Persistence, FaultFreeConfigurationsStayByteCompatible) {
  auto cfg = Configuration::simple(1);
  std::stringstream ss;
  cfg.save(ss);
  // No fault-* tokens appear unless faults are configured, so pre-fault
  // readers (and the seed's saved files) parse the output unchanged.
  EXPECT_EQ(ss.str().find("fault-"), std::string::npos);
  Configuration back = Configuration::load(ss);
  EXPECT_FALSE(back.faults.any());
}

TEST(Validation, RejectsMalformedFaultPlans) {
  auto expect_rejected = [](const char* what,
                            const std::function<void(Configuration&)>& poke) {
    auto cfg = Configuration::simple(1);
    poke(cfg);
    EXPECT_FALSE(cfg.validate(flex::MachineSpec{}).empty()) << what;
  };
  expect_rejected("halt on Unix PE",
                  [](Configuration& c) { c.faults.pe_halts.push_back({1, 0}); });
  expect_rejected("halt beyond the machine",
                  [](Configuration& c) { c.faults.pe_halts.push_back({99, 0}); });
  expect_rejected("negative halt tick",
                  [](Configuration& c) { c.faults.pe_halts.push_back({4, -1}); });
  expect_rejected("probability above one",
                  [](Configuration& c) { c.faults.bus_loss = 1.5; });
  expect_rejected("probabilities summing above one", [](Configuration& c) {
    c.faults.bus_loss = 0.6;
    c.faults.bus_duplication = 0.6;
  });
  expect_rejected("empty heap outage window", [](Configuration& c) {
    c.faults.heap_outages.push_back({500, 500});
  });
  expect_rejected("overlapping heap outage windows", [](Configuration& c) {
    c.faults.heap_outages.push_back({0, 1000});
    c.faults.heap_outages.push_back({500, 2000});
  });
  expect_rejected("disk error probability below zero",
                  [](Configuration& c) { c.faults.disk_error = -0.1; });
}

TEST(Menu, FaultCommandBuildsAndClearsThePlan) {
  ConfigMenu menu;
  std::ostringstream out;
  menu.apply("fault seed 77", out);
  menu.apply("fault halt 4 2500000", out);
  menu.apply("fault bus 0.1 0.05 0.2 40000", out);
  menu.apply("fault heap 1000000 2000000", out);
  menu.apply("fault disk 0.3", out);
  const auto& p = menu.current().faults;
  EXPECT_EQ(p.seed, 77u);
  ASSERT_EQ(p.pe_halts.size(), 1u);
  EXPECT_EQ(p.pe_halts[0].pe, 4);
  EXPECT_EQ(p.pe_halts[0].at, 2'500'000);
  EXPECT_DOUBLE_EQ(p.bus_loss, 0.1);
  EXPECT_DOUBLE_EQ(p.bus_duplication, 0.05);
  EXPECT_DOUBLE_EQ(p.bus_delay_probability, 0.2);
  EXPECT_EQ(p.bus_delay_ticks, 40'000);
  ASSERT_EQ(p.heap_outages.size(), 1u);
  EXPECT_DOUBLE_EQ(p.disk_error, 0.3);
  EXPECT_TRUE(p.any());
  menu.apply("fault clear", out);
  EXPECT_FALSE(menu.current().faults.any());
  EXPECT_EQ(menu.current().faults.seed, 1u);
  menu.apply("fault", out);
  EXPECT_NE(out.str().find("usage: fault"), std::string::npos);
}

TEST(Persistence, RecoveryFaultFamiliesRoundTripBitExactly) {
  auto cfg = Configuration::simple(2);
  cfg.faults.seed = 99;
  cfg.faults.pe_halts.push_back({4, 2'000'000});
  cfg.faults.pe_slowdowns.push_back({3, 1'000'000, 5'000'000, 1.7});
  cfg.faults.bus_partitions.push_back({1, 2, 500'000, 1'500'000});
  cfg.faults.pe_recoveries.push_back({4, 3'000'000});
  std::stringstream ss;
  cfg.save(ss);
  Configuration back = Configuration::load(ss);
  ASSERT_EQ(back.faults.pe_slowdowns.size(), 1u);
  EXPECT_EQ(back.faults.pe_slowdowns[0].pe, 3);
  EXPECT_EQ(back.faults.pe_slowdowns[0].from, 1'000'000);
  EXPECT_EQ(back.faults.pe_slowdowns[0].until, 5'000'000);
  // Bit-exact factor: the replayed run charges identical burst lengths.
  EXPECT_EQ(back.faults.pe_slowdowns[0].factor, 1.7);
  ASSERT_EQ(back.faults.bus_partitions.size(), 1u);
  EXPECT_EQ(back.faults.bus_partitions[0].cluster_a, 1);
  EXPECT_EQ(back.faults.bus_partitions[0].cluster_b, 2);
  EXPECT_EQ(back.faults.bus_partitions[0].from, 500'000);
  EXPECT_EQ(back.faults.bus_partitions[0].until, 1'500'000);
  ASSERT_EQ(back.faults.pe_recoveries.size(), 1u);
  EXPECT_EQ(back.faults.pe_recoveries[0].pe, 4);
  EXPECT_EQ(back.faults.pe_recoveries[0].at, 3'000'000);
  EXPECT_TRUE(back.validate(nasa_spec()).empty());
}

TEST(Persistence, SupervisionRoundTripsAndDefaultStaysImplicit) {
  auto cfg = Configuration::simple(1);
  {
    std::stringstream ss;
    cfg.save(ss);
    // Supervision off is not written: pre-supervision readers stay happy.
    EXPECT_EQ(ss.str().find("supervision"), std::string::npos);
  }
  cfg.supervision.enabled = true;
  cfg.supervision.max_restarts = 5;
  cfg.supervision.backoff.base = 123'456;
  cfg.supervision.backoff.factor = 1.5;
  cfg.supervision.backoff.cap = 9'000'000;
  cfg.supervision.migrate = false;
  std::stringstream ss;
  cfg.save(ss);
  Configuration back = Configuration::load(ss);
  EXPECT_TRUE(back.supervision.enabled);
  EXPECT_EQ(back.supervision.max_restarts, 5);
  EXPECT_EQ(back.supervision.backoff.base, 123'456);
  EXPECT_EQ(back.supervision.backoff.factor, 1.5);
  EXPECT_EQ(back.supervision.backoff.cap, 9'000'000);
  EXPECT_FALSE(back.supervision.migrate);
}

TEST(Validation, RejectsMalformedRecoveryFaultFamilies) {
  auto expect_rejected = [](const char* what,
                            const std::function<void(Configuration&)>& poke) {
    auto cfg = Configuration::simple(2);
    poke(cfg);
    EXPECT_FALSE(cfg.validate(flex::MachineSpec{}).empty()) << what;
  };
  expect_rejected("slowdown factor of zero", [](Configuration& c) {
    c.faults.pe_slowdowns.push_back({3, 0, 1000, 0.0});
  });
  expect_rejected("negative slowdown factor", [](Configuration& c) {
    c.faults.pe_slowdowns.push_back({3, 0, 1000, -2.0});
  });
  expect_rejected("empty slowdown window", [](Configuration& c) {
    c.faults.pe_slowdowns.push_back({3, 1000, 1000, 2.0});
  });
  expect_rejected("slowdown on a Unix PE", [](Configuration& c) {
    c.faults.pe_slowdowns.push_back({1, 0, 1000, 2.0});
  });
  expect_rejected("partition of a cluster with itself", [](Configuration& c) {
    c.faults.bus_partitions.push_back({1, 1, 0, 1000});
  });
  expect_rejected("partition naming an unconfigured cluster",
                  [](Configuration& c) {
                    c.faults.bus_partitions.push_back({1, 7, 0, 1000});
                  });
  expect_rejected("empty partition window", [](Configuration& c) {
    c.faults.bus_partitions.push_back({1, 2, 1000, 1000});
  });
  expect_rejected("recovery of a PE that never halted", [](Configuration& c) {
    c.faults.pe_recoveries.push_back({4, 100});
  });
  expect_rejected("recovery scheduled before the halt", [](Configuration& c) {
    c.faults.pe_halts.push_back({4, 500});
    c.faults.pe_recoveries.push_back({4, 400});
  });
  // And the well-formed versions pass.
  auto ok = Configuration::simple(2);
  ok.faults.pe_halts.push_back({4, 500});
  ok.faults.pe_recoveries.push_back({4, 600});
  ok.faults.pe_slowdowns.push_back({3, 0, 1000, 2.0});
  ok.faults.bus_partitions.push_back({1, 2, 0, 1000});
  EXPECT_TRUE(ok.validate(flex::MachineSpec{}).empty());
}

TEST(Validation, RejectsMalformedSupervision) {
  auto expect_rejected = [](const char* what,
                            const std::function<void(Configuration&)>& poke) {
    auto cfg = Configuration::simple(1);
    cfg.supervision.enabled = true;
    poke(cfg);
    EXPECT_FALSE(cfg.validate(flex::MachineSpec{}).empty()) << what;
  };
  expect_rejected("negative restart budget",
                  [](Configuration& c) { c.supervision.max_restarts = -1; });
  expect_rejected("zero backoff base",
                  [](Configuration& c) { c.supervision.backoff.base = 0; });
  expect_rejected("shrinking backoff factor",
                  [](Configuration& c) { c.supervision.backoff.factor = 0.5; });
  expect_rejected("cap below base", [](Configuration& c) {
    c.supervision.backoff.base = 1000;
    c.supervision.backoff.cap = 500;
  });
}

TEST(Menu, FaultRecoveryAndSuperviseCommands) {
  ConfigMenu menu;
  std::ostringstream out;
  menu.apply("fault slow 3 1000000 5000000 1.7", out);
  menu.apply("fault partition 1 2 500000 1500000", out);
  menu.apply("fault halt 4 2000000", out);
  menu.apply("fault recover 4 3000000", out);
  const auto& p = menu.current().faults;
  ASSERT_EQ(p.pe_slowdowns.size(), 1u);
  EXPECT_EQ(p.pe_slowdowns[0].pe, 3);
  EXPECT_DOUBLE_EQ(p.pe_slowdowns[0].factor, 1.7);
  ASSERT_EQ(p.bus_partitions.size(), 1u);
  EXPECT_EQ(p.bus_partitions[0].cluster_b, 2);
  ASSERT_EQ(p.pe_recoveries.size(), 1u);
  EXPECT_EQ(p.pe_recoveries[0].at, 3'000'000);
  EXPECT_TRUE(p.any());
  menu.apply("fault clear", out);
  EXPECT_FALSE(menu.current().faults.any());

  menu.apply("supervise on", out);
  menu.apply("supervise restarts 7", out);
  menu.apply("supervise backoff 100000 3.0 4000000", out);
  menu.apply("supervise migrate off", out);
  const auto& s = menu.current().supervision;
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.max_restarts, 7);
  EXPECT_EQ(s.backoff.base, 100'000);
  EXPECT_DOUBLE_EQ(s.backoff.factor, 3.0);
  EXPECT_EQ(s.backoff.cap, 4'000'000);
  EXPECT_FALSE(s.migrate);
  menu.apply("supervise off", out);
  EXPECT_FALSE(menu.current().supervision.enabled);
  menu.apply("supervise", out);
  EXPECT_NE(out.str().find("usage: supervise"), std::string::npos);
}

TEST(Persistence, TopologyRoundTripsAndDefaultStaysImplicit) {
  auto cfg = Configuration::simple(2);
  {
    std::stringstream ss;
    cfg.save(ss);
    // The default shared topology is not written, so pre-topology readers
    // (and the seed's saved configurations) stay byte-compatible.
    EXPECT_EQ(ss.str().find("topology"), std::string::npos);
    EXPECT_EQ(Configuration::load(ss).topology, flex::TopologySpec{});
  }
  cfg.topology.kind = flex::Topology::numa;
  cfg.topology.pes_per_cluster = 8;
  cfg.topology.backbone_access = 10;
  cfg.topology.backbone_per_word = 3;
  cfg.topology.numa_hop_per_word = 2;
  std::stringstream ss;
  cfg.save(ss);
  EXPECT_NE(ss.str().find("topology numa 8 10 3 2"), std::string::npos);
  Configuration back = Configuration::load(ss);
  EXPECT_EQ(back.topology, cfg.topology);
  // Save -> load -> save is byte-exact: no token drifts across generations.
  std::stringstream again;
  back.save(again);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(Persistence, LoadRejectsUnknownTopology) {
  std::stringstream ss(
      "pisces-config v1\n"
      "topology mesh 8 6 2 1\n"
      "end\n");
  EXPECT_THROW(Configuration::load(ss), std::runtime_error);
}

TEST(Validation, RejectsBadTopology) {
  auto cfg = Configuration::simple(1);
  cfg.topology.kind = flex::Topology::hier;
  cfg.topology.pes_per_cluster = 0;
  auto errors = cfg.validate(nasa_spec());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("topology:"), std::string::npos);
}

TEST(Persistence, ReliableRoundTripsAndDefaultStaysImplicit) {
  auto cfg = Configuration::simple(1);
  {
    std::stringstream ss;
    cfg.save(ss);
    // Reliability off is not written: pre-reliable readers stay happy.
    EXPECT_EQ(ss.str().find("reliable"), std::string::npos);
    EXPECT_FALSE(Configuration::load(ss).reliable.enabled);
  }
  cfg.reliable.enabled = true;
  cfg.reliable.max_retries = 4;
  cfg.reliable.backoff.base = 75'000;
  cfg.reliable.backoff.factor = 1.5;
  cfg.reliable.backoff.cap = 1'200'000;
  cfg.reliable.ack_flush_ticks = 35'000;
  cfg.reliable.send_deadline = 9'000'000;
  std::stringstream ss;
  cfg.save(ss);
  Configuration back = Configuration::load(ss);
  EXPECT_TRUE(back.reliable.enabled);
  EXPECT_EQ(back.reliable.max_retries, 4);
  EXPECT_EQ(back.reliable.backoff.base, 75'000);
  // Bit-exact factor: a reloaded config replays identical backoff timing.
  EXPECT_EQ(back.reliable.backoff.factor, 1.5);
  EXPECT_EQ(back.reliable.backoff.cap, 1'200'000);
  EXPECT_EQ(back.reliable.ack_flush_ticks, 35'000);
  EXPECT_EQ(back.reliable.send_deadline, 9'000'000);
  std::stringstream again;
  back.save(again);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(Validation, RejectsMalformedReliable) {
  auto expect_rejected = [](const char* what,
                            const std::function<void(Configuration&)>& poke) {
    auto cfg = Configuration::simple(1);
    cfg.reliable.enabled = true;
    poke(cfg);
    EXPECT_FALSE(cfg.validate(flex::MachineSpec{}).empty()) << what;
  };
  expect_rejected("negative retry budget",
                  [](Configuration& c) { c.reliable.max_retries = -1; });
  expect_rejected("zero backoff base",
                  [](Configuration& c) { c.reliable.backoff.base = 0; });
  expect_rejected("shrinking backoff factor",
                  [](Configuration& c) { c.reliable.backoff.factor = 0.9; });
  expect_rejected("cap below base", [](Configuration& c) {
    c.reliable.backoff.base = 1000;
    c.reliable.backoff.cap = 500;
  });
  expect_rejected("zero ack flush window",
                  [](Configuration& c) { c.reliable.ack_flush_ticks = 0; });
  expect_rejected("negative send deadline",
                  [](Configuration& c) { c.reliable.send_deadline = -1; });
}

TEST(Menu, ReliableCommandSetsAndValidates) {
  ConfigMenu menu;
  std::ostringstream out;
  menu.apply("reliable on", out);
  menu.apply("reliable retries 4", out);
  menu.apply("reliable backoff 75000 1.5 1200000", out);
  menu.apply("reliable ack-flush 35000", out);
  menu.apply("reliable deadline 9000000", out);
  const auto& r = menu.current().reliable;
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.max_retries, 4);
  EXPECT_EQ(r.backoff.base, 75'000);
  EXPECT_DOUBLE_EQ(r.backoff.factor, 1.5);
  EXPECT_EQ(r.backoff.cap, 1'200'000);
  EXPECT_EQ(r.ack_flush_ticks, 35'000);
  EXPECT_EQ(r.send_deadline, 9'000'000);
  // Invalid values are rejected wholesale, leaving the committed knobs.
  menu.apply("reliable backoff 0 1.5 1000", out);
  EXPECT_EQ(menu.current().reliable.backoff.base, 75'000);
  EXPECT_NE(out.str().find("error: reliable backoff"), std::string::npos);
  menu.apply("reliable retries -2", out);
  EXPECT_EQ(menu.current().reliable.max_retries, 4);
  menu.apply("reliable off", out);
  EXPECT_FALSE(menu.current().reliable.enabled);
  menu.apply("reliable", out);
  EXPECT_NE(out.str().find("usage: reliable"), std::string::npos);
}

TEST(Menu, FaultBusRejectsProbabilitySumsAboveOne) {
  ConfigMenu menu;
  std::ostringstream out;
  // A committed plan first, so rejection observably leaves it untouched.
  menu.apply("fault bus 0.1 0.05 0.2 40000", out);
  EXPECT_DOUBLE_EQ(menu.current().faults.bus_loss, 0.1);
  // Sum above one: one draw per transfer picks at most one fault, so the
  // three probabilities share a unit budget. The error names each
  // component and the offending sum.
  menu.apply("fault bus 0.5 0.4 0.3 40000", out);
  EXPECT_NE(out.str().find("must sum to <= 1"), std::string::npos);
  EXPECT_NE(out.str().find("loss 0.5 + dup 0.4 + delay-prob 0.3 = 1.2"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(menu.current().faults.bus_loss, 0.1);
  EXPECT_DOUBLE_EQ(menu.current().faults.bus_duplication, 0.05);
  // Individual probabilities outside [0, 1] are rejected too.
  menu.apply("fault bus 1.5 0 0 0", out);
  EXPECT_NE(out.str().find("must be in [0, 1]"), std::string::npos);
  EXPECT_DOUBLE_EQ(menu.current().faults.bus_loss, 0.1);
  // The usage text explains how duplication and loss compose with retries.
  std::ostringstream usage;
  menu.apply("fault bus", usage);
  EXPECT_NE(usage.str().find("sum to <= 1"), std::string::npos);
  EXPECT_NE(usage.str().find("compose across retries"), std::string::npos);
}

TEST(Menu, MalformedCommandsChangeNothing) {
  // A configuration where every knob a command can touch is set and shown,
  // so a partial assignment is visible in `show`.
  ConfigMenu menu;
  std::ostringstream setup;
  for (const char* line :
       {"name base run", "cluster 1", "primary 1 3", "slots 1 4",
        "secondaries 1 7-9", "place 1 least-loaded", "terminal 1",
        "cluster 2", "primary 2 4", "timelimit 123456789", "heap 65536",
        "fanout 5", "topology hier pes-per-cluster 8", "trace LOCK on",
        "fault seed 7", "fault halt 4 2500000", "fault bus 0.1 0.05 0.2 40000",
        "fault heap 1000 2000", "fault disk 0.3", "fault slow 3 10 20 1.5",
        "fault partition 1 2 500 1500", "fault recover 4 3000000",
        "supervise on", "supervise restarts 5",
        "supervise backoff 1000 2.5 90000", "supervise migrate off",
        "reliable on", "reliable retries 4", "reliable backoff 100 1.5 900",
        "reliable ack-flush 300", "reliable deadline 9000"}) {
    ASSERT_TRUE(menu.apply(line, setup));
  }
  ASSERT_EQ(setup.str(), "") << "the setup lines are all well formed";
  EXPECT_EQ(menu.current().name, "base run");

  const char* malformed[] = {
      "name", "cluster", "cluster x", "cluster 1 2", "primary 1",
      "primary 1 4x", "secondaries x 7", "secondaries 1 7-x",
      "secondaries 1 9-7", "secondaries 1 7-999999999", "place 1",
      "place 1 bogus", "place 1 primary extra", "slots 1", "slots 1 2 3",
      "terminal", "terminal x", "terminal 2 junk", "timelimit",
      "timelimit abc", "timelimit 5 6", "heap 4096junk", "heap -1",
      "fanout 1", "fanout 3 4", "topology", "topology mesh",
      "topology hier pes-per-cluster", "topology hier pes-per-cluster x",
      "topology hier pes-per-cluster 0", "topology numa wormholes 3",
      "trace LOCK", "trace LOCK maybe", "trace NOPE on", "trace LOCK off now",
      "fault", "fault frob", "fault seed zz", "fault seed 8 9",
      "fault halt 4", "fault halt 4 5 6", "fault bus 0.1 0.1 0.1",
      "fault bus 0.5 0.4 0.3 40000", "fault bus 1.5 0 0 0",
      "fault bus 0.1 0.1 0.1 5x", "fault heap 1", "fault disk x",
      "fault slow 3 1 2", "fault partition 1 2 3", "fault recover 4",
      "fault clear now", "supervise", "supervise frob", "supervise on now",
      "supervise off now", "supervise restarts x",
      "supervise backoff 2000 x 9", "supervise backoff 2000 2",
      "supervise migrate maybe", "reliable", "reliable frob",
      "reliable off now", "reliable retries -2", "reliable retries 3x",
      "reliable backoff 0 1.5 1000", "reliable backoff 100 1.5",
      "reliable ack-flush 0", "reliable deadline -1", "show extra",
      "validate now", "done now"};
  for (const char* line : malformed) {
    std::ostringstream before;
    std::ostringstream after;
    std::ostringstream out;
    menu.apply("show", before);
    EXPECT_TRUE(menu.apply(line, out)) << line;
    menu.apply("show", after);
    EXPECT_EQ(after.str(), before.str()) << line;
    EXPECT_NE(out.str().find("error: "), std::string::npos) << line << "\n" << out.str();
  }
}

TEST(Menu, TopologyCommandSetsAndValidates) {
  ConfigMenu menu;
  std::ostringstream out;
  menu.apply("topology hier pes-per-cluster 8 backbone-access 10", out);
  EXPECT_EQ(menu.current().topology.kind, flex::Topology::hier);
  EXPECT_EQ(menu.current().topology.pes_per_cluster, 8);
  EXPECT_EQ(menu.current().topology.backbone_access, 10);
  // Unknown kinds and options are reported; an invalid value is rejected
  // wholesale and leaves the committed spec untouched.
  menu.apply("topology mesh", out);
  EXPECT_NE(out.str().find("unknown topology 'mesh'"), std::string::npos);
  menu.apply("topology hier pes-per-cluster 0", out);
  EXPECT_EQ(menu.current().topology.pes_per_cluster, 8);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  menu.apply("topology hier wormholes 3", out);
  EXPECT_NE(out.str().find("unknown topology option"), std::string::npos);
  menu.apply("topology shared", out);
  EXPECT_EQ(menu.current().topology.kind, flex::Topology::shared);
}

/// A valid configuration drawn from `seed`: clusters with placement and
/// secondaries, a topology, trace flags, every fault family, supervision and
/// the reliable transport, with doubles that need max_digits10 to round-trip.
Configuration random_config(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  auto pick_int = [&pick](int lo, int hi) { return static_cast<int>(pick(lo, hi)); };
  auto unit = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  auto coin = [&rng] { return rng() % 2 == 0; };
  const flex::MachineSpec spec = nasa_spec();
  const int first = spec.first_mmos_pe();

  Configuration cfg;
  cfg.name = "random " + std::to_string(seed) + (coin() ? " run" : "");
  cfg.time_limit = pick(1, 1'000'000'000);
  cfg.accept_default_timeout = pick(0, 5'000'000);
  cfg.message_heap_bytes = static_cast<std::size_t>(pick(4096, 2'359'296));
  cfg.loadfile.name = "job" + std::to_string(pick(0, 99)) + ".load";
  cfg.loadfile.user_code_bytes = static_cast<std::size_t>(pick(0, 1 << 20));
  std::vector<int> pes;
  for (int pe = first; pe <= spec.pe_count; ++pe) pes.push_back(pe);
  std::shuffle(pes.begin(), pes.end(), rng);
  const int n = pick_int(1, 6);
  for (int i = 0; i < n; ++i) {
    ClusterConfig& c = cfg.clusters.emplace_back();
    c.number = 2 * i + pick_int(0, 1);
    c.primary_pe = pes[static_cast<std::size_t>(i)];
    c.slots = pick_int(1, 8);
    c.place = static_cast<PlacePolicy>(pick_int(0, 2));
    for (int pe : pes) {
      if (pe != c.primary_pe && pick(0, 3) == 0) c.secondary_pes.push_back(pe);
    }
  }
  cfg.clusters[static_cast<std::size_t>(pick_int(0, n - 1))].has_terminal = true;
  cfg.collective_fanout = pick_int(2, 16);
  cfg.topology.kind = static_cast<flex::Topology>(pick_int(0, 2));
  cfg.topology.pes_per_cluster = pick_int(1, 20);
  cfg.topology.backbone_access = pick(0, 50);
  cfg.topology.backbone_per_word = pick(0, 10);
  cfg.topology.numa_hop_per_word = pick(0, 10);
  for (bool& on : cfg.trace.kind_on) on = coin();

  auto& f = cfg.faults;
  f.seed = rng();
  for (int i = pick_int(0, 2); i > 0; --i) {
    const flex::FaultPlan::PeHalt h{pick_int(first, spec.pe_count), pick(0, 100'000'000)};
    f.pe_halts.push_back(h);
    if (coin()) f.pe_recoveries.push_back({h.pe, h.at + pick(1, 1'000'000)});
  }
  f.bus_loss = unit() / 3;
  f.bus_duplication = unit() / 3;
  f.bus_delay_probability = unit() / 3;
  f.bus_delay_ticks = pick(0, 1'000'000);
  for (sim::Tick from = pick(0, 1000); from < 5000; from += pick(1, 2000)) {
    const sim::Tick until = from + pick(1, 1000);
    f.heap_outages.push_back({from, until});
    from = until;
  }
  f.disk_error = unit();
  for (int i = pick_int(0, 2); i > 0; --i) {
    const sim::Tick from = pick(0, 1'000'000);
    f.pe_slowdowns.push_back(
        {pick_int(first, spec.pe_count), from, from + pick(1, 1'000'000), 0.5 + 3 * unit()});
  }
  if (n >= 3) {  // clusters past the first have numbers >= 2
    const sim::Tick from = pick(0, 1'000'000);
    f.bus_partitions.push_back(
        {cfg.clusters[1].number, cfg.clusters[2].number, from, from + pick(1, 1'000'000)});
  }

  auto& s = cfg.supervision;
  s.enabled = coin();
  s.max_restarts = pick_int(0, 10);
  s.backoff.base = pick(1, 1'000'000);
  s.backoff.factor = 1 + 3 * unit();
  s.backoff.cap = s.backoff.base + pick(0, 10'000'000);
  s.migrate = coin();
  auto& rel = cfg.reliable;
  rel.enabled = coin();
  rel.max_retries = pick_int(0, 10);
  rel.backoff.base = pick(1, 1'000'000);
  rel.backoff.factor = 1 + 3 * unit();
  rel.backoff.cap = rel.backoff.base + pick(0, 10'000'000);
  rel.ack_flush_ticks = pick(1, 100'000);
  rel.send_deadline = pick(0, 10'000'000);
  return cfg;
}

std::string saved(const Configuration& cfg) {
  std::ostringstream out;
  cfg.save(out);
  return out.str();
}

Configuration loaded(const std::string& text) {
  std::istringstream in(text);
  return Configuration::load(in);
}

TEST(Persistence, SaveLoadIsIdentityOverRandomConfigs) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Configuration cfg = random_config(seed);
    const auto problems = cfg.validate(nasa_spec());
    ASSERT_TRUE(problems.empty()) << problems.front();
    const std::string text = saved(cfg);
    EXPECT_EQ(saved(loaded(text)), text);
  }
}

TEST(Persistence, MutatedFilesThrowWithTheirLineOrLoadCanonically) {
  // Each mutant of a saved file either throws naming a line of the file, or
  // loads to a configuration that save and load leave unchanged; none is
  // read in part. A file that lost its `end` line must throw.
  std::vector<std::string> bases = {saved(Configuration::section9_example())};
  for (std::uint64_t seed : {1, 2, 3}) {
    Configuration cfg = random_config(seed);
    cfg.supervision.enabled = cfg.reliable.enabled = true;
    bases.push_back(saved(cfg));
  }
  std::mt19937_64 rng(2024);
  int threw = 0;
  int total = 0;
  for (const std::string& base : bases) {
    for (int i = 0; i < 400; ++i, ++total) {
      const std::string mutant = mutation::mutate(base, rng);
      SCOPED_TRACE(mutant);
      bool has_end = false;
      for (const auto& line : mutation::split(mutant, '\n')) {
        std::istringstream tokens(line);
        std::string first;
        std::string more;
        tokens >> first;
        has_end = has_end || (first == "end" && !(tokens >> more));
      }
      try {
        const std::string once = saved(loaded(mutant));
        EXPECT_TRUE(has_end) << "loaded without its end line";
        EXPECT_EQ(saved(loaded(once)), once);
      } catch (const std::runtime_error& e) {
        ++threw;
        const int line = mutation::named_line(e.what());
        EXPECT_GE(line, 1) << e.what();
        EXPECT_LE(line, static_cast<int>(mutation::split(mutant, '\n').size()) + 1)
            << e.what();
      }
    }
  }
  // Both outcomes occur: the sweep is not vacuous either way.
  EXPECT_GT(threw, total / 4);
  EXPECT_LT(threw, total);
}

TEST(Persistence, LoadRefusesFilesItUsedToReadInPart) {
  // Each of these files used to load, in part or with a value changed. Now
  // each throws, naming its line.
  auto file = [](const std::string& body) { return "pisces-config v1\n" + body + "end\n"; };
  auto cfg = Configuration::simple(2);
  cfg.reliable.enabled = true;
  const std::string text = saved(cfg);
  // Dropping the last two lines (`reliable ...`, `end`) used to load with
  // the reliable transport silently off.
  const std::string cut = text.substr(0, text.rfind("reliable "));
  const struct {
    std::string file;
    int line;
    const char* what;
  } bad[] = {
      {cut, static_cast<int>(mutation::split(cut, '\n').size()) + 1, "missing 'end'"},
      {file("cluster 1 primary 3 slots 4 terminal 7 secondaries\n"), 2, "'7'"},
      {file("supervision 3 250000 2 16000000 9\n"), 2, "'9'"},
      {file("trace 1 0 5\n"), 2, "'5'"},
      {file("cluster 1 primary 3 primary 4 slots 4 terminal 1 secondaries\n"), 2,
       "repeated cluster field 'primary'"},
      {file("cluster 1 secondaries\n"), 2, "missing 'primary'"},
      {file("cluster 1 primary 3 terminal 1 secondaries\n"), 2, "missing 'slots'"},
      {file("cluster 1 primary 3 slots 4 secondaries\n"), 2, "missing 'terminal'"},
      {file("cluster 1 primary 3 slots 4 terminal 1\n"), 2, "missing 'secondaries'"},
      {file("timelimit 5\nheap 8192\ntimelimit 6\n"), 4, "repeated key 'timelimit'"},
      {file("name a\nname b\n"), 3, "repeated key 'name'"},
      {file("reliable 6 150000 2 2000000 20000 0\nreliable 6 150000 2 2000000 20000 0\n"),
       3, "repeated key 'reliable'"},
  };
  for (const auto& c : bad) {
    SCOPED_TRACE(c.file);
    try {
      (void)loaded(c.file);
      ADD_FAILURE() << "loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line " + std::to_string(c.line) + ":"), std::string::npos)
          << what;
      EXPECT_NE(what.find(c.what), std::string::npos) << what;
    }
  }
  // A name holding a line break would save as two lines: validate says so.
  Configuration broken = Configuration::simple(1);
  broken.name = "two\nlines";
  const auto problems = broken.validate(nasa_spec());
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "name must be one line");
  // Cluster lines and fault-* lines may repeat, and the short legacy trace
  // line still loads.
  const Configuration ok = loaded(file(
      "cluster 1 primary 3 slots 4 terminal 1 secondaries\n"
      "cluster 2 primary 4 slots 4 terminal 0 secondaries 7 8\n"
      "fault-halt 4 100\nfault-halt 5 200\ntrace 0 1\n"));
  EXPECT_EQ(ok.clusters.size(), 2u);
  EXPECT_EQ(ok.faults.pe_halts.size(), 2u);
  EXPECT_TRUE(ok.trace.get(trace::EventKind::task_term));
}

// Only the list keys (cluster, fault-halt, fault-heap, fault-slow,
// fault-partition, fault-recover) may repeat. A second fault-seed, fault-bus
// or fault-disk line used to win over the first.
TEST(Persistence, LoadRefusesARepeatedSingleValuedFaultKey) {
  for (const std::string line :
       {"fault-seed 7\n", "fault-bus 0.1 0 0 50000\n", "fault-disk 0.25\n"}) {
    const std::string key = line.substr(0, line.find(' '));
    SCOPED_TRACE(key);
    try {
      (void)loaded("pisces-config v1\n" + line + line + "end\n");
      ADD_FAILURE() << "loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3: repeated key '" + key + "'"), std::string::npos)
          << what;
    }
  }
  const Configuration lists = loaded(
      "pisces-config v1\nfault-heap 1 2\nfault-heap 3 4\nfault-slow 3 1 2 2\n"
      "fault-slow 3 5 6 2\nfault-partition 1 2 1 2\nfault-partition 1 2 3 4\n"
      "fault-recover 3 10\nfault-recover 3 20\nend\n");
  EXPECT_EQ(lists.faults.heap_outages.size(), 2u);
  EXPECT_EQ(lists.faults.pe_slowdowns.size(), 2u);
  EXPECT_EQ(lists.faults.bus_partitions.size(), 2u);
  EXPECT_EQ(lists.faults.pe_recoveries.size(), 2u);
}

// `end` is the last line that holds a token; text after it used to be
// ignored.
TEST(Persistence, LoadRefusesTextAfterEnd) {
  try {
    (void)loaded("pisces-config v1\nname x\nend\n\ngarbage here\n");
    ADD_FAILURE() << "loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5: 'garbage' after 'end'"), std::string::npos) << what;
  }
  EXPECT_EQ(loaded("pisces-config v1\nname x\nend\n\n  \n").name, "x");
}

TEST(Menu, RefusesValuesValidateReports) {
  ConfigMenu menu;
  std::ostringstream setup;
  for (const char* line : {"cluster 1", "primary 1 3", "terminal 1"}) {
    menu.apply(line, setup);
  }
  ASSERT_EQ(setup.str(), "");
  const struct {
    const char* line;
    std::vector<std::string> problems;
    const char* usage;
  } refused[] = {
      {"heap 100", {"message heap under 4 KB is unusable"}, "heap <bytes>"},
      {"timelimit 0", {"time limit must be positive"}, "timelimit <ticks>"},
      {"supervise restarts -1",
       {"supervision restart budget must be >= 0"},
       "supervise restarts <n>"},
      {"supervise backoff 0 0.5 1",
       {"supervision backoff base must be > 0", "supervision backoff factor must be >= 1"},
       "supervise backoff <base> <factor> <cap>"},
      {"fault halt 1 0", {"fault-halt PE 1 is not an MMOS PE"}, "fault halt <pe> <tick>"},
      {"fault slow 3 10 5 2",
       {"fault-slow window must have 0 <= from < until"},
       "fault slow <pe> <from> <until> <factor>"},
      // Negative cluster numbers are refused like any other bad value.
      {"cluster -1", {"cluster numbers must be non-negative"}, "cluster <n>"},
      {"slots -2 4", {"cluster numbers must be non-negative"}, "slots <cluster> <count>"},
  };
  for (const auto& c : refused) {
    SCOPED_TRACE(c.line);
    std::ostringstream before;
    std::ostringstream after;
    std::ostringstream out;
    menu.apply("show", before);
    EXPECT_TRUE(menu.apply(c.line, out));
    menu.apply("show", after);
    EXPECT_EQ(after.str(), before.str());
    std::string expected;
    for (const auto& p : c.problems) expected += "error: " + p + "\n";
    EXPECT_EQ(out.str(), expected + "usage: " + c.usage + "\n");
  }

  // The cluster table's rules wait for `validate`: a first cluster has no
  // terminal yet, and a partition may name a cluster not yet configured.
  ConfigMenu fresh;
  std::ostringstream out;
  EXPECT_TRUE(fresh.apply("cluster 1", out));
  EXPECT_TRUE(fresh.apply("fault partition 1 2 500 1500", out));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(fresh.current().cluster_count(), 1);
  EXPECT_EQ(fresh.current().faults.bus_partitions.size(), 1u);

  // Only new problems refuse: a knob that was already bad does not block
  // an edit of another one.
  Configuration bad = Configuration::simple(1);
  bad.reliable.max_retries = -1;
  ConfigMenu editor;
  editor.edit(bad);
  EXPECT_TRUE(editor.apply("reliable ack-flush 300", out));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(editor.current().reliable.ack_flush_ticks, 300);
  EXPECT_EQ(editor.current().reliable.max_retries, -1);
}

}  // namespace
}  // namespace pisces::config
