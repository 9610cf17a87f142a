// Tests for the discrete-event kernel, its inline callback type and the
// deterministic RNG.

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/time.h"

namespace dcg::sim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Millis(30));
}

TEST(EventLoopTest, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired_at = -1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAfter(Millis(5), [&] { fired_at = loop.Now(); });
  });
  loop.RunAll();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  Time fired_at = -1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAt(Millis(1), [&] { fired_at = loop.Now(); });
  });
  loop.RunAll();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(Millis(10), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel is a no-op
  loop.RunAll();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelUnknownIdReturnsFalse) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(12345));
}

TEST(EventLoopTest, RunUntilStopsAtHorizonInclusive) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(Millis(10), [&] { ++count; });
  loop.ScheduleAt(Millis(20), [&] { ++count; });
  loop.ScheduleAt(Millis(21), [&] { ++count; });
  EXPECT_EQ(loop.RunUntil(Millis(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.Now(), Millis(20));
  EXPECT_EQ(loop.RunUntil(Millis(25)), 1u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(loop.Now(), Millis(25));  // advances to horizon
}

TEST(EventLoopTest, PendingEventsTracksLiveEvents) {
  EventLoop loop;
  const EventId a = loop.ScheduleAt(Millis(1), [] {});
  loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(loop.PendingEvents(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.PendingEvents(), 1u);
  loop.RunAll();
  EXPECT_EQ(loop.PendingEvents(), 0u);
}

TEST(EventLoopTest, EventsScheduledDuringRunAreExecuted) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.ScheduleAfter(Micros(1), recurse);
  };
  loop.ScheduleAfter(0, recurse);
  loop.RunAll();
  EXPECT_EQ(depth, 100);
}

// --- sim::Callback and in-place firing ------------------------------------

/// Live-instance and call counts shared by every copy of a Counted.
struct Counters {
  int live = 0;
  int calls = 0;
};

/// A callable that counts its live instances (moves included), so a
/// callable destroyed twice drives `live` below zero and one leaked keeps
/// it above. `kPad` picks inline or heap storage.
template <size_t kPad>
struct Counted {
  explicit Counted(Counters* counters) : c(counters) { ++c->live; }
  Counted(const Counted& other) : c(other.c) { ++c->live; }
  Counted(Counted&& other) noexcept : c(other.c) { ++c->live; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --c->live; }
  void operator()() { ++c->calls; }

  Counters* c;
  std::array<unsigned char, kPad> pad{};
};
using InlineCounted = Counted<8>;
using HeapCounted = Counted<96>;
static_assert(Callback::StoresInline<InlineCounted>());
static_assert(!Callback::StoresInline<HeapCounted>());

template <typename T>
class CallbackLifetimeTest : public ::testing::Test {};
using CallableSizes = ::testing::Types<InlineCounted, HeapCounted>;
TYPED_TEST_SUITE(CallbackLifetimeTest, CallableSizes);

TYPED_TEST(CallbackLifetimeTest, FiredCallbackRunsOnceAndIsDestroyedOnce) {
  Counters c;
  {
    EventLoop loop;
    loop.ScheduleAt(Millis(1), TypeParam(&c));  // built in its slot
    Callback wrapped = TypeParam(&c);           // moved into its slot
    loop.ScheduleAt(Millis(2), std::move(wrapped));
    EXPECT_EQ(c.live, 2);
    loop.RunAll();
    EXPECT_EQ(c.calls, 2);
    EXPECT_EQ(c.live, 0);  // dropped as each fired, not at loop teardown
  }
  EXPECT_EQ(c.live, 0);
}

TYPED_TEST(CallbackLifetimeTest, CancelledCallbackNeverRunsAndIsDestroyedOnce) {
  Counters c;
  {
    EventLoop loop;
    const EventId id = loop.ScheduleAt(Millis(1), TypeParam(&c));
    EXPECT_EQ(c.live, 1);
    EXPECT_TRUE(loop.Cancel(id));
    EXPECT_EQ(c.live, 0);  // captured state goes at the cancel
    loop.RunAll();
    EXPECT_EQ(c.calls, 0);
  }
  EXPECT_EQ(c.live, 0);
}

TYPED_TEST(CallbackLifetimeTest, PendingCallbackIsDestroyedWithTheLoop) {
  Counters c;
  {
    EventLoop loop;
    for (int i = 0; i < 300; ++i) loop.ScheduleAt(Millis(1), TypeParam(&c));
    loop.ScheduleAt(0, TypeParam(&c));
    EXPECT_EQ(loop.RunUntil(0), 1u);
    EXPECT_EQ(c.live, 300);
  }
  EXPECT_EQ(c.calls, 1);
  EXPECT_EQ(c.live, 0);
}

TYPED_TEST(CallbackLifetimeTest, MovesAndResetKeepExactlyOneInstance) {
  Counters c;
  Callback empty = nullptr;
  EXPECT_FALSE(empty);
  Callback a = TypeParam(&c);
  Callback b = std::move(a);
  EXPECT_FALSE(a);
  EXPECT_EQ(c.live, 1);
  b();
  a = std::move(b);
  EXPECT_FALSE(b);
  a();
  EXPECT_EQ(c.live, 1);
  a.Reset();
  EXPECT_FALSE(a);
  EXPECT_EQ(c.live, 0);
  EXPECT_EQ(c.calls, 2);
}

TEST(CallbackTest, MoveOnlyCapturesWork) {
  EventLoop loop;
  int seen = 0;
  auto small = std::make_unique<int>(7);
  loop.ScheduleAfter(1, [p = std::move(small), &seen] { seen += *p; });
  // A move-only capture in a closure too large to store inline.
  auto large = std::make_unique<int>(9);
  std::array<int, 32> padding{};
  padding[0] = 100;
  loop.ScheduleAfter(2, [p = std::move(large), padding, &seen] {
    seen += *p + padding[0];
  });
  loop.RunAll();
  EXPECT_EQ(seen, 116);

  UniqueFunction<int(std::unique_ptr<int>)> take =
      [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(take(std::make_unique<int>(3)), 3);
}

TEST(EventLoopTest, CallbackCancellingItsOwnIdGetsFalse) {
  EventLoop loop;
  EventId self = 0;
  bool cancelled = true;
  self = loop.ScheduleAt(Millis(1), [&] { cancelled = loop.Cancel(self); });
  loop.RunAll();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(loop.PendingEvents(), 0u);
}

TEST(EventLoopTest, CallbackSchedulingDuringItsRunGetsAWorkingSlot) {
  // The running callback stays in its slot while it schedules enough new
  // events to grow the slab; its own captures must survive that, and the
  // new events fire in (time, seq) order after those already queued.
  EventLoop loop;
  std::vector<int> order;
  int fan_out = 0;
  loop.ScheduleAt(Millis(1), [&loop, &order, &fan_out,
                              tag = std::vector<int>{10, 11, 12}] {
    order.push_back(0);
    loop.ScheduleAt(Millis(1), [&order] { order.push_back(2); });
    const EventId dropped =
        loop.ScheduleAt(Millis(1), [&order] { order.push_back(-1); });
    loop.ScheduleAt(Millis(1), [&order] { order.push_back(3); });
    EXPECT_TRUE(loop.Cancel(dropped));
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAt(Millis(3), [&fan_out] { ++fan_out; });
    }
    order.push_back(tag[2]);
  });
  loop.ScheduleAt(Millis(1), [&order] { order.push_back(1); });
  loop.ScheduleAt(Millis(2), [&order] { order.push_back(4); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 12, 1, 2, 3, 4}));
  EXPECT_EQ(fan_out, 1000);
  EXPECT_EQ(loop.PendingEvents(), 0u);
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(1.5), 1'500'000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_EQ(FormatTime(Seconds(61) + Millis(250)), "01:01.250");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(7);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.NextU64() == c2.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.UniformInt(5, 8);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 8);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalHasRequestedLinearMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.LogNormal(4.0, 0.3);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

}  // namespace
}  // namespace dcg::sim
