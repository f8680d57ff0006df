// Unit tests for the FLEX/32 machine model: memory accounting, the shared
// message heap, the bus, and disks.
#include "flex/machine.hpp"

#include <gtest/gtest.h>

#include "flex/shared_heap.hpp"
#include "sim/random.hpp"

namespace pisces::flex {
namespace {

TEST(MachineSpec, DefaultsMatchNasaLangleyFlex32) {
  sim::Engine eng;
  Machine m(eng);
  EXPECT_EQ(m.pe_count(), 20);
  EXPECT_EQ(m.local_memory(3).capacity(), 1u << 20);
  EXPECT_EQ(m.shared_memory().capacity(), 2359296u);  // 2.25 MB
  EXPECT_TRUE(m.is_unix_pe(1));
  EXPECT_TRUE(m.is_unix_pe(2));
  EXPECT_FALSE(m.is_unix_pe(3));
  EXPECT_TRUE(m.is_mmos_pe(3));
  EXPECT_TRUE(m.is_mmos_pe(20));
  EXPECT_FALSE(m.is_mmos_pe(21));
  EXPECT_TRUE(m.has_disk(1));
  EXPECT_TRUE(m.has_disk(2));
  EXPECT_FALSE(m.has_disk(3));
}

TEST(Machine, RejectsBadPeNumbers) {
  sim::Engine eng;
  Machine m(eng);
  EXPECT_THROW((void)m.local_memory(0), std::out_of_range);
  EXPECT_THROW((void)m.local_memory(21), std::out_of_range);
  EXPECT_THROW((void)m.disk(3), std::logic_error);
}

TEST(Machine, RejectsBadSpecs) {
  sim::Engine eng;
  MachineSpec spec;
  spec.unix_pe_count = 20;
  EXPECT_THROW(Machine(eng, spec), std::invalid_argument);
}

TEST(MemoryArena, AccountsByLabel) {
  MemoryArena mem("local", 1000);
  EXPECT_EQ(mem.allocate_static(100, "kernel"), 0u);
  EXPECT_EQ(mem.allocate_static(50, "pisces"), 100u);
  mem.allocate_static(25, "pisces");
  EXPECT_EQ(mem.used(), 175u);
  EXPECT_EQ(mem.free_bytes(), 825u);
  EXPECT_EQ(mem.used_by("pisces"), 75u);
  EXPECT_EQ(mem.used_by("kernel"), 100u);
  EXPECT_EQ(mem.used_by("absent"), 0u);
  EXPECT_NEAR(mem.used_fraction(), 0.175, 1e-12);
}

TEST(MemoryArena, ThrowsWhenExhausted) {
  MemoryArena mem("local", 64);
  mem.allocate_static(64, "all");
  EXPECT_THROW(mem.allocate_static(1, "more"), OutOfMemory);
}

TEST(SharedHeap, AllocatesAndReleases) {
  SharedHeap heap(1024);
  auto a = heap.allocate(100);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(heap.in_use(), SharedHeap::round_up(100));
  heap.release(*a);
  EXPECT_EQ(heap.in_use(), 0u);
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_EQ(heap.largest_free_block(), 1024u);
}

TEST(SharedHeap, PeakTracksHighWaterMark) {
  SharedHeap heap(1024);
  auto a = heap.allocate(256);
  auto b = heap.allocate(256);
  heap.release(*a);
  heap.release(*b);
  EXPECT_EQ(heap.in_use(), 0u);
  EXPECT_EQ(heap.peak_in_use(), 512u);
}

TEST(SharedHeap, FailsWhenFull) {
  SharedHeap heap(64);
  auto a = heap.allocate(64);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(heap.allocate(8).has_value());
  EXPECT_EQ(heap.failed_allocations(), 1u);
  heap.release(*a);
  EXPECT_TRUE(heap.allocate(8).has_value());
}

TEST(SharedHeap, CoalescesAdjacentFreeBlocks) {
  SharedHeap heap(1024);
  auto a = heap.allocate(128);
  auto b = heap.allocate(128);
  auto c = heap.allocate(128);
  ASSERT_TRUE(a && b && c);
  heap.release(*a);
  heap.release(*c);
  EXPECT_EQ(heap.free_block_count(), 2u);  // [a] and [c..end]
  heap.release(*b);                        // joins everything
  EXPECT_EQ(heap.free_block_count(), 1u);
  EXPECT_EQ(heap.largest_free_block(), 1024u);
  EXPECT_NEAR(heap.fragmentation(), 0.0, 1e-12);
}

TEST(SharedHeap, ReleaseOfUnknownOffsetThrows) {
  SharedHeap heap(256);
  auto a = heap.allocate(16);
  ASSERT_TRUE(a.has_value());
  EXPECT_THROW(heap.release(*a + 4), std::logic_error);
  heap.release(*a);
  EXPECT_THROW(heap.release(*a), std::logic_error);
}

TEST(SharedHeap, ZeroByteRequestStillGetsGranule) {
  SharedHeap heap(64);
  auto a = heap.allocate(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(heap.block_size(*a), SharedHeap::kGranule);
}

// Property: a random alloc/free workload never corrupts the heap — blocks
// never overlap, accounting balances, and freeing everything restores a
// single maximal free block.
class SharedHeapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedHeapPropertyTest, RandomWorkloadPreservesInvariants) {
  SharedHeap heap(16 * 1024);
  sim::Rng rng(2 * GetParam() + 1);  // odd, so seeds 2 and 3 stay distinct
  std::map<std::size_t, std::size_t> live;  // offset -> requested size
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.below(100) < 60) {
      const std::size_t want = 1 + rng.below(300);
      auto got = heap.allocate(want);
      if (got.has_value()) {
        const std::size_t size = heap.block_size(*got);
        EXPECT_GE(size, want);
        // No overlap with any live block.
        for (const auto& [off, sz] : live) {
          const std::size_t other = heap.block_size(off);
          EXPECT_TRUE(*got + size <= off || off + other <= *got)
              << "overlap at step " << step;
        }
        live[*got] = want;
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      heap.release(it->first);
      live.erase(it);
    }
  }
  for (const auto& [off, sz] : live) heap.release(off);
  EXPECT_EQ(heap.in_use(), 0u);
  EXPECT_EQ(heap.free_block_count(), 1u);
  EXPECT_EQ(heap.largest_free_block(), heap.capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedHeapPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 12345u));

// Pins which block every allocation gets (exact best fit, lowest offset on
// ties): a fingerprint of each offset a seeded alloc/release sequence
// returns, and of the free list's shape after every step. The value was
// recorded with the earlier allocator that searched 48 power-of-two size
// classes, so any allocator that picks differently fails here.
TEST(SharedHeap, SeededPicksArePinned) {
  std::uint64_t fingerprint = 0xcbf29ce484222325ull;  // FNV-1a over words
  auto mix = [&fingerprint](std::uint64_t v) {
    fingerprint = (fingerprint ^ v) * 0x100000001b3ull;
  };
  for (std::uint64_t seed : {1u, 2u, 1987u}) {  // distinct after Rng's seed | 1
    SharedHeap heap(256 * 1024);
    sim::Rng rng(seed);
    std::vector<std::size_t> live;
    for (int step = 0; step < 20'000; ++step) {
      if (live.empty() || rng.below(100) < 55) {
        // Log-uniform sizes from 1 byte to 64 KiB: small and large requests
        // mix, and the large ones meet a fragmented heap.
        auto got = heap.allocate(1 + rng.below(std::uint64_t{1} << rng.below(17)));
        mix(got.value_or(~std::size_t{0}));
        if (got.has_value()) live.push_back(*got);
      } else {
        const std::size_t i = rng.below(live.size());
        heap.release(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
      mix(heap.largest_free_block());
      mix(heap.free_block_count());
    }
    mix(heap.failed_allocations());
  }
  EXPECT_EQ(fingerprint, 13173753075212371830ull);
}

TEST(Bus, SerializesOverlappingTransfers) {
  Bus bus;
  EXPECT_EQ(bus.transfer(0, 10), 10);
  EXPECT_EQ(bus.transfer(0, 10), 20);  // queued behind the first
  EXPECT_EQ(bus.transfer(5, 10), 30);
  EXPECT_EQ(bus.wait_ticks(), 10 + 15);
  EXPECT_EQ(bus.busy_ticks(), 30);
  EXPECT_EQ(bus.transfers(), 3u);
}

TEST(Bus, IdleBusStartsImmediately) {
  Bus bus;
  bus.transfer(0, 10);
  EXPECT_EQ(bus.transfer(100, 5), 105);
  EXPECT_EQ(bus.wait_ticks(), 0);
}

// Regression: stall() occupied the bus but never accrued the time spent
// queued behind earlier traffic into wait_ticks_, so contention was
// underreported whenever fault injection stalled a busy bus.
TEST(Bus, StallAccruesWaitAndBusy) {
  Bus bus;
  bus.transfer(0, 10);    // bus busy until 10
  bus.stall(4, 20);       // queues 6 ticks behind the transfer
  EXPECT_EQ(bus.wait_ticks(), 6);
  EXPECT_EQ(bus.busy_ticks(), 30);
  EXPECT_EQ(bus.busy_until(), 30);
  EXPECT_EQ(bus.transfers(), 1u);  // a stall is not a completed transfer
  EXPECT_EQ(bus.faulted_transfers(), 1u);
  bus.stall(40, 5);  // idle bus: no extra wait
  EXPECT_EQ(bus.wait_ticks(), 6);
  EXPECT_EQ(bus.busy_until(), 45);
}

TEST(Machine, SharedTransferChargesBusAndLatency) {
  sim::Engine eng;
  Machine m(eng);
  const auto& c = m.costs();
  // 100 bytes = 25 words.
  const sim::Tick done = m.shared_transfer(0, 100);
  EXPECT_EQ(done, c.shared_access + 25 * c.bus_per_word);
  // A second transfer at the same time queues.
  const sim::Tick done2 = m.shared_transfer(0, 4);
  EXPECT_EQ(done2, done + c.shared_access + 1 * c.bus_per_word);
}

TEST(Disk, ChargesSeekPlusTransferAndSerializes) {
  sim::Engine eng;
  Machine m(eng);
  auto& d = m.disk(1);
  const auto& c = m.costs();
  const sim::Tick t1 = d.transfer(0, 400);  // 100 words
  EXPECT_EQ(t1, c.disk_seek + 100 * c.disk_per_word);
  const sim::Tick t2 = d.transfer(0, 4);
  EXPECT_EQ(t2, t1 + c.disk_seek + 1 * c.disk_per_word);
  EXPECT_EQ(d.bytes_moved(), 404u);
}

}  // namespace
}  // namespace pisces::flex
