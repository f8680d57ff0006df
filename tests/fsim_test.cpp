// Unit tests for the simulated file system: the array store, rectangle
// copy/paste helpers, and the overlap-aware read/write scheduler that file
// controllers use (paper Section 8).
#include <gtest/gtest.h>

#include "fsim/file_store.hpp"
#include "fsim/rw_scheduler.hpp"

namespace pisces::fsim {
namespace {

TEST(FileStore, CreateListAndLookup) {
  FileStore fs;
  EXPECT_FALSE(fs.exists("a"));
  fs.create("a", 4, 4, 1.5);
  fs.create("b", rt::Matrix(2, 3));
  EXPECT_TRUE(fs.exists("a"));
  EXPECT_EQ(fs.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fs.get("a").at(3, 3), 1.5);
  EXPECT_EQ(fs.get("b").rows(), 2);
  EXPECT_THROW((void)fs.get("missing"), std::out_of_range);
  EXPECT_EQ(fs.total_bytes(), (16 + 6) * sizeof(double));
}

TEST(FileStore, CreateReplacesExistingFile) {
  FileStore fs;
  fs.create("a", 2, 2, 1.0);
  fs.create("a", 8, 8, 2.0);
  EXPECT_EQ(fs.get("a").rows(), 8);
  EXPECT_EQ(fs.get("a").at(0, 0), 2.0);
}

TEST(RectOps, CopyAndPasteRoundTrip) {
  rt::Matrix m(6, 6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) m.at(i, j) = 10.0 * i + j;
  }
  const rt::Rect r{2, 1, 3, 4};
  rt::Matrix part = copy_rect(m, r);
  EXPECT_EQ(part.at(0, 0), 21.0);
  EXPECT_EQ(part.at(2, 3), 44.0);
  for (auto& x : part.data()) x += 100.0;
  paste_rect(m, r, part);
  EXPECT_EQ(m.at(2, 1), 121.0);
  EXPECT_EQ(m.at(0, 0), 0.0);  // outside the rect untouched
}

TEST(RectOps, BoundsAndShapeChecks) {
  rt::Matrix m(4, 4);
  EXPECT_THROW(copy_rect(m, rt::Rect{2, 2, 3, 3}), std::out_of_range);
  EXPECT_THROW(copy_rect(m, rt::Rect{0, 0, 0, 1}), std::out_of_range);
  EXPECT_THROW(paste_rect(m, rt::Rect{0, 0, 2, 2}, rt::Matrix(3, 2)),
               std::invalid_argument);
  EXPECT_THROW(paste_rect(m, rt::Rect{3, 3, 2, 2}, rt::Matrix(2, 2)),
               std::out_of_range);
}

TEST(FileStore, ReadWriteRectDelegates) {
  FileStore fs;
  fs.create("a", 8, 8, 0.0);
  fs.write_rect("a", rt::Rect{1, 1, 2, 2}, rt::Matrix(2, 2, 7.0));
  rt::Matrix back = fs.read_rect("a", rt::Rect{0, 0, 3, 3});
  EXPECT_EQ(back.at(1, 1), 7.0);
  EXPECT_EQ(back.at(0, 0), 0.0);
}

// ---- RwScheduler ----

TEST(RwScheduler, ReadsOverlapFreely) {
  RwScheduler s;
  const rt::Rect r{0, 0, 4, 4};
  EXPECT_EQ(s.earliest_start(r, false, 100), 100);
  s.record(r, false, 100, 500);
  // Another read of the same region may start immediately.
  EXPECT_EQ(s.earliest_start(r, false, 200), 200);
  EXPECT_EQ(s.reads(), 1u);
}

TEST(RwScheduler, WriteWaitsForOverlappingRead) {
  RwScheduler s;
  s.record(rt::Rect{0, 0, 4, 4}, false, 100, 500);
  EXPECT_EQ(s.earliest_start(rt::Rect{2, 2, 4, 4}, true, 200), 500);
  // Disjoint write unaffected.
  EXPECT_EQ(s.earliest_start(rt::Rect{10, 10, 2, 2}, true, 200), 200);
}

TEST(RwScheduler, ReadWaitsForOverlappingWrite) {
  RwScheduler s;
  s.record(rt::Rect{0, 0, 4, 4}, true, 100, 900);
  EXPECT_EQ(s.earliest_start(rt::Rect{3, 3, 2, 2}, false, 200), 900);
  EXPECT_EQ(s.earliest_start(rt::Rect{4, 4, 2, 2}, false, 200), 200);  // disjoint
  EXPECT_EQ(s.writes(), 1u);
}

TEST(RwScheduler, ChainedWritesSerialize) {
  RwScheduler s;
  const rt::Rect r{0, 0, 2, 2};
  sim::Tick now = 0;
  sim::Tick completes = 100;
  for (int i = 0; i < 4; ++i) {
    const sim::Tick start = s.earliest_start(r, true, now);
    EXPECT_EQ(start, i * 100);
    s.record(r, true, now, start + 100);
    completes = start + 100;
  }
  EXPECT_EQ(completes, 400);
}

TEST(RwScheduler, CompletedOpsStopConstraining) {
  RwScheduler s;
  s.record(rt::Rect{0, 0, 4, 4}, true, 0, 300);
  // Request arriving after completion is unconstrained.
  EXPECT_EQ(s.earliest_start(rt::Rect{0, 0, 4, 4}, true, 400), 400);
  EXPECT_EQ(s.in_flight(100), 1u);
  EXPECT_EQ(s.in_flight(350), 0u);
}

TEST(RwScheduler, PruneKeepsLiveOps) {
  RwScheduler s;
  s.record(rt::Rect{0, 0, 2, 2}, true, 0, 1000);    // long write
  s.record(rt::Rect{8, 8, 2, 2}, false, 10, 20);    // short disjoint read
  // Recording at now=500 prunes the finished read but must keep the write.
  s.record(rt::Rect{4, 4, 2, 2}, false, 500, 600);
  EXPECT_EQ(s.earliest_start(rt::Rect{1, 1, 1, 1}, false, 500), 1000);
}

}  // namespace
}  // namespace pisces::fsim
