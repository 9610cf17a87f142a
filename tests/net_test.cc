// Tests for the point-to-point network model: delay sampling, ping RTTs,
// and the fault hooks (drop probability, partitions, link degradation).

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/event_loop.h"
#include "sim/random.h"

namespace dcg {
namespace {

struct NetFixture {
  sim::EventLoop loop;
  net::Network network{&loop, sim::Rng(123)};
  net::HostId a, b;

  NetFixture(sim::Duration base_rtt = sim::Millis(1.0),
             sim::Duration jitter = sim::Micros(40)) {
    a = network.AddHost("a");
    b = network.AddHost("b");
    network.SetLink(a, b, base_rtt, jitter);
  }
};

TEST(NetworkTest, OneWayDelayRespectsBaseRttFloor) {
  NetFixture net;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(net.network.SampleOneWay(net.a, net.b), sim::Millis(0.5));
  }
}

TEST(NetworkTest, SelfDelayIsZero) {
  NetFixture net;
  EXPECT_EQ(net.network.SampleOneWay(net.a, net.a), 0);
}

TEST(NetworkTest, JitterMeanConvergesUnderFixedSeed) {
  const sim::Duration jitter = sim::Micros(100);
  NetFixture net(sim::Millis(1.0), jitter);
  double total_extra = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    total_extra += static_cast<double>(net.network.SampleOneWay(net.a, net.b) -
                                       sim::Millis(0.5));
  }
  const double mean = total_extra / samples;
  // Exponential jitter: the sample mean must converge to the configured
  // mean (within 5% at 100k samples).
  EXPECT_NEAR(mean, static_cast<double>(jitter),
              0.05 * static_cast<double>(jitter));
}

TEST(NetworkTest, PingRttAtLeastBaseRtt) {
  NetFixture net;
  int completed = 0;
  for (int i = 0; i < 1000; ++i) {
    net.network.Ping(net.a, net.b, [&](sim::Duration rtt) {
      EXPECT_GE(rtt, sim::Millis(1.0));
      ++completed;
    });
  }
  net.loop.RunAll();
  EXPECT_EQ(completed, 1000);
}

TEST(NetworkTest, SendDeliversInTimeOrder) {
  NetFixture net;
  int delivered = 0;
  sim::Time last = 0;
  for (int i = 0; i < 100; ++i) {
    net.network.Send(net.a, net.b, [&] {
      EXPECT_GE(net.loop.Now(), last);
      last = net.loop.Now();
      ++delivered;
    });
  }
  net.loop.RunAll();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.network.messages_delivered(), 100u);
  EXPECT_EQ(net.network.messages_dropped(), 0u);
}

TEST(NetworkTest, DropProbabilityIsHonoured) {
  NetFixture net;
  net::Network::LinkFault fault;
  fault.drop_probability = 0.3;
  net.network.SetLinkFault(net.a, net.b, fault);
  int delivered = 0;
  const int sent = 20000;
  for (int i = 0; i < sent; ++i) {
    net.network.Send(net.a, net.b, [&] { ++delivered; });
  }
  net.loop.RunAll();
  const double drop_rate = 1.0 - static_cast<double>(delivered) / sent;
  EXPECT_NEAR(drop_rate, 0.3, 0.02);
  EXPECT_EQ(net.network.messages_dropped(),
            static_cast<uint64_t>(sent - delivered));
}

TEST(NetworkTest, DropIsDirectional) {
  NetFixture net;
  net::Network::LinkFault fault;
  fault.drop_probability = 1.0;
  net.network.SetLinkFault(net.a, net.b, fault);
  int forward = 0, backward = 0;
  for (int i = 0; i < 100; ++i) {
    net.network.Send(net.a, net.b, [&] { ++forward; });
    net.network.Send(net.b, net.a, [&] { ++backward; });
  }
  net.loop.RunAll();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(backward, 100);
}

TEST(NetworkTest, ClearLinkFaultRestoresDelivery) {
  NetFixture net;
  net::Network::LinkFault fault;
  fault.drop_probability = 1.0;
  net.network.SetLinkFault(net.a, net.b, fault);
  net.network.ClearLinkFault(net.a, net.b);
  int delivered = 0;
  net.network.Send(net.a, net.b, [&] { ++delivered; });
  net.loop.RunAll();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, ExtraDelayAndMultiplierApplied) {
  NetFixture net;
  net::Network::LinkFault fault;
  fault.extra_delay = sim::Millis(10);
  fault.delay_multiplier = 3.0;
  net.network.SetLinkFault(net.a, net.b, fault);
  for (int i = 0; i < 1000; ++i) {
    // Healthy floor is base/2 = 0.5 ms; degraded floor is 3x that + 10 ms.
    EXPECT_GE(net.network.SampleOneWay(net.a, net.b),
              sim::Millis(1.5) + sim::Millis(10));
  }
}

TEST(NetworkTest, PartitionBlocksBothDirections) {
  NetFixture net;
  net.network.BlockPair(net.a, net.b);
  EXPECT_FALSE(net.network.Reachable(net.a, net.b));
  int delivered = 0;
  net.network.Send(net.a, net.b, [&] { ++delivered; });
  net.network.Send(net.b, net.a, [&] { ++delivered; });
  bool pinged = false;
  net.network.Ping(net.a, net.b, [&](sim::Duration) { pinged = true; });
  net.loop.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(pinged);
  EXPECT_EQ(net.network.messages_dropped(), 3u);
}

TEST(NetworkTest, OverlappingBlocksCompose) {
  NetFixture net;
  net.network.BlockPair(net.a, net.b);
  net.network.BlockPair(net.b, net.a);  // same pair, other order
  net.network.UnblockPair(net.a, net.b);
  // One block still outstanding.
  EXPECT_FALSE(net.network.Reachable(net.a, net.b));
  net.network.UnblockPair(net.b, net.a);
  EXPECT_TRUE(net.network.Reachable(net.a, net.b));
}

TEST(NetworkTest, FaultFreePathConsumesNoExtraRandomness) {
  // Two identically-seeded networks, one of which installs and clears a
  // fault on an *unrelated* pair, must sample identical delays: fault
  // checks on healthy links must not consume RNG draws (determinism
  // depends on it).
  sim::EventLoop loop1, loop2;
  net::Network n1(&loop1, sim::Rng(9)), n2(&loop2, sim::Rng(9));
  const net::HostId a1 = n1.AddHost("a"), b1 = n1.AddHost("b");
  const net::HostId c1 = n1.AddHost("c");
  const net::HostId a2 = n2.AddHost("a"), b2 = n2.AddHost("b");
  n2.AddHost("c");
  n1.SetLink(a1, b1, sim::Millis(1.0), sim::Micros(40));
  n2.SetLink(a2, b2, sim::Millis(1.0), sim::Micros(40));
  net::Network::LinkFault fault;
  fault.drop_probability = 0.5;
  n1.SetLinkFault(a1, c1, fault);  // unrelated directed pair
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(n1.SampleOneWay(a1, b1), n2.SampleOneWay(a2, b2));
    EXPECT_FALSE(n1.ShouldDrop(a1, b1));
  }
}

}  // namespace
}  // namespace dcg
