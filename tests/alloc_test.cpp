// Host allocation ceilings on the message path: the shared message heap in
// steady state, and a two-cluster ping-pong's send+accept. This suite
// replaces the global operator new and delete to count calls, so it is an
// executable of its own. Counts depend on the standard library, so each
// bound is a ceiling, and only the loop under test is counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/runtime.hpp"
#include "flex/shared_heap.hpp"
#include "sim/random.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_malloc(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// The library's array forms call these (a sanitizer runtime keeps its own
// matched pair). All are out of line: GCC's -Wmismatched-new-delete fires
// when it inlines one of them and sees `malloc` or `free` meet the other's
// operator.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pisces {
namespace {

/// operator new calls made while `fn` runs, on any thread.
template <typename Fn>
std::uint64_t news_during(Fn&& fn) {
  const std::uint64_t before = g_news.load();
  fn();
  return g_news.load() - before;
}

TEST(Allocations, SharedHeapMakesNoneInSteadyState) {
  constexpr std::size_t kMaxLive = 64;
  flex::SharedHeap heap(1024 * 1024);  // never full: 64 blocks of <= 4 KiB
  sim::Rng rng(21);
  std::vector<std::size_t> live;
  live.reserve(kMaxLive);
  auto step = [&] {
    if (live.size() < kMaxLive && (live.empty() || rng.below(100) < 55)) {
      live.push_back(*heap.allocate(1 + rng.below(4096)));
    } else {
      const std::size_t i = rng.below(live.size());
      heap.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  };
  while (live.size() < kMaxLive) step();  // warm up to the live-block cap
  const std::uint64_t allocs_before = heap.total_allocations();
  const std::uint64_t news = news_during([&] {
    for (int i = 0; i < 10'000; ++i) step();
  });
  EXPECT_GT(heap.total_allocations() - allocs_before, 4'000u);
  EXPECT_EQ(news, 0u);
}

// Per message: the sender's argument vector, the receiver's AcceptSpec type
// list and its AcceptResult count node. Heap blocks, queue slots, engine
// events, dispatches and the spec's trip into accept() make none.
TEST(Allocations, PingPongMakesAtMostThreePerMessage) {
  constexpr int kWarmup = 100;
  constexpr int kRounds = 2'000;
  constexpr std::uint64_t kMessages = 2 * kRounds;
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  rt::Runtime rt(sys, config::Configuration::simple(2));
  std::uint64_t news = 0;
  int rounds = 0;
  int mismatches = 0;
  // One round past the counted ones keeps the echo's exit out of the count.
  rt.register_tasktype("echo", [](rt::TaskContext& ctx) {
    std::int64_t v = 0;
    ctx.on_message("ping", [&v](rt::TaskContext&, const rt::Message& m) {
      v = m.args.at(0).as_int();
    });
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    for (int i = 0; i < kWarmup + kRounds + 1; ++i) {
      ctx.accept(rt::AcceptSpec{}.of("ping").forever());
      ctx.send(rt::Dest::Parent(), "pong", {rt::Value(v + 1)});
    }
  });
  rt.register_tasktype("master", [&](rt::TaskContext& ctx) {
    rt::TaskId peer{};
    std::int64_t got = 0;
    ctx.on_message("hello", [&peer](rt::TaskContext&, const rt::Message& m) {
      peer = m.args.at(0).as_taskid();
    });
    ctx.on_message("pong", [&got](rt::TaskContext&, const rt::Message& m) {
      got = m.args.at(0).as_int();
    });
    ctx.initiate(rt::Where::Cluster(2), "echo");
    ctx.accept(rt::AcceptSpec{}.of("hello").forever());
    auto round = [&](std::int64_t v) {
      ctx.send(rt::Dest::To(peer), "ping", {rt::Value(v)});
      ctx.accept(rt::AcceptSpec{}.of("pong").forever());
      if (got != v + 1) ++mismatches;
      ++rounds;
    };
    for (int i = 0; i < kWarmup; ++i) round(i);
    news = news_during([&] {
      for (int i = 0; i < kRounds; ++i) round(kWarmup + i);
    });
    round(kWarmup + kRounds);
  });
  rt.boot();
  rt.user_initiate(1, "master");
  rt.run();
  EXPECT_EQ(rounds, kWarmup + kRounds + 1);
  EXPECT_EQ(mismatches, 0);
  EXPECT_LE(news, 3 * kMessages);
}

}  // namespace
}  // namespace pisces
