// Tests of sim::Backoff, the one exponential backoff behind reliable
// retransmits, supervisor restarts, heap-outage retries and window-request
// patience: the delays each of the four schedules produces, saturation at
// the cap, and agreement with multiplying on and clamping at the end.
#include <gtest/gtest.h>

#include <vector>

#include "config/configuration.hpp"
#include "core/transport.hpp"
#include "session/supervisor.hpp"
#include "sim/backoff.hpp"

namespace pisces {
namespace {

std::vector<sim::Tick> delays(const sim::Backoff& b, int attempts) {
  std::vector<sim::Tick> out;
  for (int n = 1; n <= attempts; ++n) out.push_back(b.delay(n));
  return out;
}

TEST(Backoff, PinsTheFourSchedules) {
  // Reliable retransmit, from the ReliableConfig defaults: saturates at 2M.
  const config::ReliableConfig rel;
  EXPECT_EQ(delays({rel.backoff.base, rel.backoff.factor, rel.backoff.cap}, 7),
            (std::vector<sim::Tick>{150'000, 300'000, 600'000, 1'200'000,
                                    2'000'000, 2'000'000, 2'000'000}));
  // Supervisor restart, from the RestartPolicy defaults: saturates at 16M.
  const session::RestartPolicy pol;
  EXPECT_EQ(delays({pol.backoff.base, pol.backoff.factor, pol.backoff.cap}, 9),
            (std::vector<sim::Tick>{250'000, 500'000, 1'000'000, 2'000'000,
                                    4'000'000, 8'000'000, 16'000'000,
                                    16'000'000, 16'000'000}));
  // Heap-outage retry: one wait per denial before the last, which gives up.
  // The doubling never reaches its cap.
  EXPECT_EQ(delays(rt::Transport::kHeapOutageBackoff,
                   rt::Transport::kHeapOutageAttempts - 1),
            (std::vector<sim::Tick>{25'000, 50'000, 100'000, 200'000, 400'000,
                                    800'000, 1'600'000}));
  // Window-request patience: doubles from the ACCEPT default over the four
  // attempts made under fault injection; its cap is never reached either.
  const config::Configuration cfg;
  EXPECT_EQ(delays({cfg.accept_default_timeout, 2.0}, 4),
            (std::vector<sim::Tick>{2'000'000, 4'000'000, 8'000'000,
                                    16'000'000}));
}

TEST(Backoff, FractionalFactorSaturatesExactlyAtCap) {
  // 100k · 1.5^(n-1): 100k, 150k, 225k, 337.5k, then the 400k cap.
  EXPECT_EQ(delays({100'000, 1.5, 400'000}, 6),
            (std::vector<sim::Tick>{100'000, 150'000, 225'000, 337'500,
                                    400'000, 400'000}));
  // A cap equal to the base holds every delay at the base.
  EXPECT_EQ(delays({70'000, 3.0, 70'000}, 3),
            (std::vector<sim::Tick>{70'000, 70'000, 70'000}));
}

TEST(Backoff, StoppingAtTheCapMatchesClampingAtTheEnd) {
  // The retransmit loop used to stop multiplying at the cap and the restart
  // loop to multiply on and clamp; with factor >= 1 and cap >= base (all
  // validate() admits) both give the same delays.
  const sim::Backoff cases[] = {{1, 1.0, 1},          {3, 1.1, 1'000},
                                {250'000, 2.0, 16'000'000},
                                {150'000, 1.75, 2'000'000},
                                {7, 10.0, 1'000'000'007}};
  for (const sim::Backoff& b : cases) {
    for (int n = 1; n <= 40; ++n) {
      double d = static_cast<double>(b.base);
      for (int i = 1; i < n; ++i) d *= b.factor;
      const auto cap = static_cast<double>(b.cap);
      EXPECT_EQ(b.delay(n), static_cast<sim::Tick>(d > cap ? cap : d))
          << "base=" << b.base << " factor=" << b.factor << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace pisces
