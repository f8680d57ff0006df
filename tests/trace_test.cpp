// Tests of the tracing subsystem (Section 12): filters per kind and per
// task, sinks, trace-line formatting, file round trips, and the analyzer.
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "text_mutations.hpp"
#include "trace/analyzer.hpp"

namespace pisces::trace {
namespace {

Record make(EventKind k, sim::Tick at, rt::TaskId task, std::uint64_t seq = 0,
            rt::TaskId other = {}) {
  Record r;
  r.kind = k;
  r.at = at;
  r.pe = 3;
  r.task = task;
  r.other = other;
  r.seq = seq;
  return r;
}

TEST(Tracer, KindFilterGatesSinks) {
  Tracer t;
  MemorySink sink;
  t.add_sink(&sink);
  const rt::TaskId id{1, 3, 1};
  t.record(make(EventKind::msg_send, 10, id));
  EXPECT_TRUE(sink.records().empty());
  t.set_kind(EventKind::msg_send, true);
  t.record(make(EventKind::msg_send, 20, id));
  EXPECT_EQ(sink.records().size(), 1u);
  // Counters see everything regardless of filters.
  EXPECT_EQ(t.count(EventKind::msg_send), 2u);
}

TEST(Tracer, PerTaskOverrideBeatsKindDefault) {
  Tracer t;
  const rt::TaskId loud{1, 3, 1};
  const rt::TaskId quiet{1, 4, 2};
  t.set_kind(EventKind::lock, true);
  t.set_task(quiet, EventKind::lock, false);
  EXPECT_TRUE(t.enabled(EventKind::lock, loud));
  EXPECT_FALSE(t.enabled(EventKind::lock, quiet));
  // And the other direction: kind off, one task on.
  t.set_kind(EventKind::barrier_enter, false);
  t.set_task(loud, EventKind::barrier_enter, true);
  EXPECT_TRUE(t.enabled(EventKind::barrier_enter, loud));
  EXPECT_FALSE(t.enabled(EventKind::barrier_enter, quiet));
  t.clear_task(loud);
  EXPECT_FALSE(t.enabled(EventKind::barrier_enter, loud));
}

TEST(Tracer, SetAllTogglesEveryKind) {
  Tracer t;
  t.set_all(true);
  for (int k = 0; k < kEventKindCount; ++k) {
    EXPECT_TRUE(t.enabled(static_cast<EventKind>(k), {}));
  }
}

TEST(Record, FormatContainsTheSectionTwelveFields) {
  Record r = make(EventKind::msg_send, 1234, rt::TaskId{2, 5, 17}, 99,
                  rt::TaskId{1, 3, 4});
  r.info = "rows";
  const std::string line = r.format();
  // "Type of event. Taskid ... Clock reading (PE number and ticks count)."
  EXPECT_NE(line.find("MSG-SEND"), std::string::npos);
  EXPECT_NE(line.find("t=1234"), std::string::npos);
  EXPECT_NE(line.find("pe=3"), std::string::npos);
  EXPECT_NE(line.find("task=2:5:17"), std::string::npos);
  EXPECT_NE(line.find("other=1:3:4"), std::string::npos);
  EXPECT_NE(line.find("seq=99"), std::string::npos);
  EXPECT_NE(line.find("info=rows"), std::string::npos);
}

TEST(Record, FormatWritesExactLines) {
  // Whole lines, byte for byte (trace files and the trace-line hashes pinned
  // elsewhere depend on them): every kind name, the default taskid, an
  // invalid `other` left out, the widest numbers, and an empty info left out.
  constexpr std::uint64_t kMax = UINT64_MAX;
  const rt::TaskId a{2, 5, 17};
  const rt::TaskId b{1, 3, 4};
  const rt::TaskId widest{INT32_MIN, INT32_MAX, kMax};
  const rt::TaskId invalid{4, 6, 0};
  const auto record = [](EventKind k, sim::Tick at, int pe, rt::TaskId task,
                         rt::TaskId other, std::uint64_t seq, std::string info) {
    return Record{k, at, pe, task, other, seq, std::move(info)};
  };
  const std::vector<std::pair<Record, std::string>> cases = {
      {Record{}, "TRACE TASK-INIT t=0 pe=0 task=0:-1:0"},
      {record(EventKind::task_term, sim::kForever, 3, a, {}, 0, ""),
       "TRACE TASK-TERM t=9223372036854775807 pe=3 task=2:5:17"},
      {record(EventKind::msg_send, 1234, 3, a, b, 99, "rows"),
       "TRACE MSG-SEND t=1234 pe=3 task=2:5:17 other=1:3:4 seq=99 info=rows"},
      {record(EventKind::msg_accept, 0, 0, b, invalid, kMax, ""),
       "TRACE MSG-ACCEPT t=0 pe=0 task=1:3:4 seq=18446744073709551615"},
      {record(EventKind::lock, 7, -1, widest, {}, 0, "L"),
       "TRACE LOCK t=7 pe=-1 task=-2147483648:2147483647:18446744073709551615"
       " info=L"},
      {record(EventKind::unlock, 8, INT32_MAX, a, widest, 1, ""),
       "TRACE UNLOCK t=8 pe=2147483647 task=2:5:17"
       " other=-2147483648:2147483647:18446744073709551615 seq=1"},
      {record(EventKind::barrier_enter, -5, 1, {}, {}, 0, "a b=c  d= "),
       "TRACE BARRIER t=-5 pe=1 task=0:-1:0 info=a b=c  d= "},
      {record(EventKind::force_split, 100, 2, a, {}, 0, "members=3"),
       "TRACE FORCE-SPLIT t=100 pe=2 task=2:5:17 info=members=3"},
      {record(EventKind::dead_letter, 200, 4, b, a, 12, "ping"),
       "TRACE DEAD-LETTER t=200 pe=4 task=1:3:4 other=2:5:17 seq=12 info=ping"},
      {record(EventKind::fault, 300, 7, {}, invalid, 0, "pe-halt pe 7"),
       "TRACE FAULT t=300 pe=7 task=0:-1:0 info=pe-halt pe 7"},
      {record(EventKind::child_term, 400, 1, b, a, 0, "killed"),
       "TRACE CHILD-TERM t=400 pe=1 task=1:3:4 other=2:5:17 info=killed"},
      {record(EventKind::collective, 500, 2, a, {}, 0, "barrier members=3 k=4"),
       "TRACE COLLECTIVE t=500 pe=2 task=2:5:17 info=barrier members=3 k=4"},
      {record(EventKind::supervision, 600, 0, a, b, 0, "restart 1"),
       "TRACE SUPERVISION t=600 pe=0 task=2:5:17 other=1:3:4 info=restart 1"},
      {record(EventKind::retransmit, 700, 3, a, b, 5, "unit #2"),
       "TRACE RETRANSMIT t=700 pe=3 task=2:5:17 other=1:3:4 seq=5 info=unit #2"},
      {record(EventKind::ack, 800, 4, {}, {}, 6, "chan 3->4"),
       "TRACE ACK t=800 pe=4 task=0:-1:0 seq=6 info=chan 3->4"},
      {record(EventKind::dup_drop, 900, 4, b, a, kMax, "unit"),
       "TRACE DUP-DROP t=900 pe=4 task=1:3:4 other=2:5:17"
       " seq=18446744073709551615 info=unit"},
  };
  std::set<EventKind> kinds;
  for (const auto& [r, line] : cases) {
    EXPECT_EQ(r.format(), line);
    kinds.insert(r.kind);
  }
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kEventKindCount));
}

TEST(Analyzer, ParseRoundTripsFormattedLines) {
  std::vector<Record> records = {
      make(EventKind::task_init, 100, rt::TaskId{1, 3, 1}),
      make(EventKind::msg_send, 150, rt::TaskId{1, 3, 1}, 7, rt::TaskId{2, 3, 2}),
      make(EventKind::msg_accept, 300, rt::TaskId{2, 3, 2}, 7),
      make(EventKind::retransmit, 420, rt::TaskId{1, 3, 1}, 9, rt::TaskId{2, 3, 2}),
      make(EventKind::fault, 460, rt::TaskId{0, -1, 0}),
      make(EventKind::task_term, 500, rt::TaskId{1, 3, 1}),
  };
  records[1].info = "rows";
  records[3].info = "unit #2";  // retransmit, slowdown and partition infos hold spaces
  records[4].pe = 7;
  records[4].info = "pe-slow pe 7 x1.5  until 9000 ";
  std::stringstream ss;
  ss << "PISCES FAULT: not a trace line\n\n";
  StreamSink sink(ss);
  for (const auto& r : records) sink.emit(r);
  auto parsed = Analyzer::parse(ss);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, records[i].kind);
    EXPECT_EQ(parsed[i].at, records[i].at);
    EXPECT_EQ(parsed[i].pe, records[i].pe);
    EXPECT_EQ(parsed[i].task, records[i].task);
    EXPECT_EQ(parsed[i].other, records[i].other);
    EXPECT_EQ(parsed[i].seq, records[i].seq);
    EXPECT_EQ(parsed[i].info, records[i].info);
    EXPECT_EQ(parsed[i].format(), records[i].format());
  }
}

TEST(Analyzer, ParseRejectsMalformedTraceLinesWithTheirLocation) {
  const std::pair<std::string, std::string> cases[] = {
      {"TRACE MSG-SEND t=12x pe=3 task=1:3:1", "'t=12x'"},
      {"TRACE MSG-SEND t=abc pe=3 task=1:3:1", "'t=abc'"},
      {"TRACE MSG-SEND t=12 pe=3 task=garbage", "'task=garbage'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3", "'task=1:3'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:1:4", "'task=1:3:1:4'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:-1", "'task=1:3:-1'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:1 seq=", "'seq='"},
      {"TRACE MSG-SEND t=12 pe=3x task=1:3:1", "'pe=3x'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:1 other=2:3", "'other=2:3'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:1 stray", "'stray'"},
      {"TRACE MSG-SEND t=12 pe=3 task=1:3:1 color=red", "'color=red'"},
      {"TRACE MSG-SEND t=12 t=13 pe=3 task=1:3:1", "'t=13'"},
      {"TRACE MSG-SEND t=12 pe=3", "'task='"},
      {"TRACE MSG-SEND", "'t='"},
      {"TRACE NO-SUCH-KIND t=12 pe=3 task=1:3:1", "'NO-SUCH-KIND'"},
      {"TRACE", "unknown event kind ''"},
  };
  for (const auto& [bad, token] : cases) {
    // A good line and a skipped one first, so the bad line is line 3.
    std::stringstream ss("TRACE LOCK t=1 pe=3 task=1:3:1\nnot a trace line\n" + bad +
                         "\n");
    try {
      Analyzer::parse(ss);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(token), std::string::npos) << what;
    }
  }
}

/// `records` as a trace file: one formatted line each.
std::string formatted(const std::vector<Record>& records) {
  std::string text;
  for (const auto& r : records) text += r.format() + "\n";
  return text;
}

std::vector<Record> parsed(const std::string& text) {
  std::istringstream in(text);
  return Analyzer::parse(in);
}

TEST(Analyzer, MutatedTraceFilesThrowWithTheirLineOrParseCanonically) {
  // Each mutant of a formatted trace file either throws naming a line of
  // the file, or parses to records whose formatted text parses back to the
  // same text; none is read in part.
  std::vector<Record> records = {
      make(EventKind::task_init, 100, rt::TaskId{1, 3, 1}),
      make(EventKind::msg_send, 150, rt::TaskId{1, 3, 1}, 7, rt::TaskId{2, 3, 2}),
      make(EventKind::msg_accept, 300, rt::TaskId{2, 3, 2}, 7),
      make(EventKind::retransmit, 420, rt::TaskId{1, 3, 1}, 9, rt::TaskId{2, 3, 2}),
      make(EventKind::fault, 460, rt::TaskId{0, -1, 0}),
      make(EventKind::force_split, 480, rt::TaskId{3, 5, 11}),
      make(EventKind::task_term, 500, rt::TaskId{1, 3, 1}),
  };
  records[1].info = "rows";
  records[3].info = "unit #2";
  records[4].info = "pe-slow pe 7 x1.5 until 9000";
  const std::string base = "PISCES FAULT: not a trace line\n" + formatted(records);
  std::mt19937_64 rng(2024);
  int threw = 0;
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    const std::string mutant = mutation::mutate(base, rng);
    SCOPED_TRACE(mutant);
    try {
      const std::string once = formatted(parsed(mutant));
      EXPECT_EQ(formatted(parsed(once)), once);
    } catch (const std::runtime_error& e) {
      ++threw;
      const int line = mutation::named_line(e.what());
      EXPECT_GE(line, 1) << e.what();
      EXPECT_LE(line, static_cast<int>(mutation::split(mutant, '\n').size())) << e.what();
    }
  }
  // Both outcomes occur: the sweep is not vacuous either way.
  EXPECT_GT(threw, total / 10);
  EXPECT_LT(threw, total);
}

TEST(Analyzer, TaskLifetimesAndMessageLatencies) {
  std::vector<Record> records = {
      make(EventKind::task_init, 100, rt::TaskId{1, 3, 1}),
      make(EventKind::task_term, 600, rt::TaskId{1, 3, 1}),
      make(EventKind::msg_send, 200, rt::TaskId{1, 3, 1}, 1, rt::TaskId{2, 3, 2}),
      make(EventKind::msg_accept, 260, rt::TaskId{2, 3, 2}, 1),
      make(EventKind::msg_send, 300, rt::TaskId{1, 3, 1}, 2, rt::TaskId{2, 3, 2}),
      make(EventKind::msg_accept, 440, rt::TaskId{2, 3, 2}, 2),
      make(EventKind::msg_send, 500, rt::TaskId{1, 3, 1}, 3),  // never accepted
  };
  Analyzer an(records);
  auto tasks = an.task_timings();
  ASSERT_EQ(tasks.size(), 1u);  // only init/term events define task timings
  bool found = false;
  for (const auto& t : tasks) {
    if (t.lifetime().has_value()) {
      EXPECT_EQ(*t.lifetime(), 500);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  auto msgs = an.message_timings();
  ASSERT_EQ(msgs.size(), 2u);  // seq 3 unmatched
  EXPECT_EQ(msgs[0].latency(), 60);
  EXPECT_EQ(msgs[1].latency(), 140);
  EXPECT_DOUBLE_EQ(an.mean_message_latency(), 100.0);
  EXPECT_EQ(an.count(EventKind::msg_send), 3u);
  EXPECT_NE(an.report().find("matched messages: 2"), std::string::npos);
}

TEST(Analyzer, MatchesAMessageSentAtTickZero) {
  // A user's INITIATE is sent at tick 0; a zero tick is not a missing half.
  std::vector<Record> records = {
      make(EventKind::msg_send, 0, rt::TaskId{1, 1, 2}, 1, rt::TaskId{1, 0, 1}),
      make(EventKind::msg_accept, 975, rt::TaskId{1, 0, 1}, 1),
      make(EventKind::msg_accept, 0, rt::TaskId{1, 0, 1}, 2),  // never sent
  };
  Analyzer an(records);
  const auto msgs = an.message_timings();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].seq, 1u);
  EXPECT_EQ(msgs[0].sent, 0);
  EXPECT_EQ(msgs[0].latency(), 975);
  EXPECT_DOUBLE_EQ(an.mean_message_latency(), 975.0);
}

TEST(Analyzer, ReportCountsEveryKind) {
  std::vector<Record> records;
  for (int k = 0; k < kEventKindCount; ++k) {
    records.push_back(make(static_cast<EventKind>(k), k, rt::TaskId{1, 3, 1}));
  }
  const std::string report = Analyzer(records).report();
  for (int k = 0; k < kEventKindCount; ++k) {
    const std::string line =
        "  " + std::string(kind_name(static_cast<EventKind>(k))) + ": 1\n";
    EXPECT_NE(report.find(line), std::string::npos) << line;
  }
}

TEST(Analyzer, BarrierEntriesPerTask) {
  std::vector<Record> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(make(EventKind::barrier_enter, 10 * i, rt::TaskId{1, 3, 1}));
  }
  records.push_back(make(EventKind::barrier_enter, 99, rt::TaskId{1, 4, 2}));
  Analyzer an(records);
  auto entries = an.barrier_entries();
  EXPECT_EQ(entries[(rt::TaskId{1, 3, 1})], 4u);
  EXPECT_EQ(entries[(rt::TaskId{1, 4, 2})], 1u);
}

TEST(Analyzer, MessageTypeCountsFromSendInfo) {
  std::vector<Record> records;
  auto send = [&](const char* type) {
    Record r = make(EventKind::msg_send, 1, rt::TaskId{1, 3, 1}, 0);
    r.info = type;
    records.push_back(r);
  };
  send("rows");
  send("rows");
  send("done");
  records.push_back(make(EventKind::msg_accept, 2, rt::TaskId{1, 3, 1}));
  Analyzer an(records);
  auto counts = an.message_type_counts();
  EXPECT_EQ(counts["rows"], 2u);
  EXPECT_EQ(counts["done"], 1u);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(Analyzer, PeActivityProfile) {
  std::vector<Record> records;
  for (int i = 0; i < 3; ++i) {
    Record r = make(EventKind::lock, i, rt::TaskId{1, 3, 1});
    r.pe = 5;
    records.push_back(r);
  }
  Record other = make(EventKind::unlock, 9, rt::TaskId{1, 3, 1});
  other.pe = 7;
  records.push_back(other);
  Analyzer an(records);
  auto activity = an.pe_activity();
  EXPECT_EQ(activity[5], 3u);
  EXPECT_EQ(activity[7], 1u);
}

TEST(Sinks, FileSinkWritesParseableTrace) {
  const std::string path = "/tmp/pisces_trace_test.log";
  {
    FileSink sink(path);
    sink.emit(make(EventKind::force_split, 42, rt::TaskId{1, 3, 9}));
    sink.flush();
  }
  std::ifstream in(path);
  auto parsed = Analyzer::parse(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, EventKind::force_split);
  EXPECT_EQ(parsed[0].at, 42);
}

}  // namespace
}  // namespace pisces::trace
