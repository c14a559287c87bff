#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::net {
namespace {

using util::Bytes;
using util::TimeNs;

struct FabricFixture {
  FabricFixture(int compute = 4, int racks = 2, TopologyConfig config = {})
      : cluster(cluster::make_testbed(compute, 0, 0, racks)),
        topology(cluster, config),
        fabric(sim, topology) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  Topology topology;
  Fabric fabric;
};

TEST(Fabric, SingleFlowGetsFullHostLink) {
  FabricFixture f;
  const Bytes bytes = 1250 * util::kMiB;  // 1.25e9 B/s link -> ~1.048s
  TimeNs done = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done = f.sim.now(); });
  f.sim.run();
  ASSERT_GT(done, 0);
  const double expected_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.001);
}

TEST(Fabric, ZeroByteTransferCompletesAfterLatency) {
  FabricFixture f;
  TimeNs done = -1;
  f.fabric.transfer(0, 1, 0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, f.topology.latency(0, 1));
}

TEST(Fabric, TwoFlowsShareSenderLink) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  std::vector<TimeNs> done;
  // Two flows from node 0 to two different same-rack receivers share 0's
  // uplink and each should get half the bandwidth.
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  EXPECT_NEAR(util::to_seconds(done.back()), 2 * solo_s, 0.01 * 2 * solo_s + 1e-4);
}

TEST(Fabric, DisjointFlowsDoNotInterfere) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  std::vector<TimeNs> done;
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.fabric.transfer(1, 3, bytes, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  for (TimeNs t : done) {
    EXPECT_NEAR(util::to_seconds(t), solo_s, 0.01 * solo_s + 1e-4);
  }
}

TEST(Fabric, TorUplinkBottlenecksCrossRackFlows) {
  // 8 hosts per rack; every rack-0 host sends cross-rack simultaneously.
  FabricFixture f(16, 2);
  const Bytes bytes = 125 * util::kMiB;
  int completed = 0;
  // Hosts 0,2,4,..,14 are rack 0; 1,3,..,15 rack 1 (round-robin layout).
  for (int i = 0; i < 8; ++i) {
    f.fabric.transfer(2 * i, 2 * i + 1, bytes, [&] { ++completed; });
  }
  f.sim.run();
  EXPECT_EQ(completed, 8);
  // 8 flows over a 5e9 B/s uplink: aggregate limited to uplink capacity.
  const double expected_s = 8.0 * static_cast<double>(bytes) /
                            f.topology.config().tor_uplink_bytes_per_s;
  EXPECT_NEAR(util::to_seconds(f.sim.now()), expected_s,
              0.02 * expected_s + 1e-3);
}

TEST(Fabric, LoopbackUsesMemoryBandwidth) {
  FabricFixture f;
  const Bytes bytes = 1600 * util::kMiB;
  TimeNs done = -1;
  f.fabric.transfer(1, 1, bytes, [&] { done = f.sim.now(); });
  f.sim.run();
  const double expected_s =
      static_cast<double>(bytes) / f.topology.config().loopback_bytes_per_s;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.01 * expected_s + 1e-4);
}

TEST(Fabric, CancelPreventsCompletion) {
  FabricFixture f;
  bool fired = false;
  const FlowId id = f.fabric.transfer(0, 2, util::kGiB, [&] { fired = true; });
  EXPECT_TRUE(f.fabric.cancel(id));
  EXPECT_FALSE(f.fabric.cancel(id));
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.fabric.active_flows(), 0);
}

TEST(Fabric, CancelFreesBandwidthForSurvivor) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  TimeNs done = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done = f.sim.now(); });
  const FlowId victim = f.fabric.transfer(0, 2, 100 * util::kGiB, [] {});
  // Cancel the victim halfway through the survivor's solo time.
  const double solo_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  f.sim.after(util::seconds(solo_s / 2), [&] { f.fabric.cancel(victim); });
  f.sim.run();
  // Survivor: a quarter of its bytes at half rate during [0, solo/2], the
  // remaining 3/4 at full rate (3/4 solo) -> 1.25x solo total.
  EXPECT_NEAR(util::to_seconds(done), 1.25 * solo_s, 0.02 * solo_s + 1e-4);
}

TEST(Fabric, LateFlowSlowsEarlyFlow) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  TimeNs done_first = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done_first = f.sim.now(); });
  const double solo_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  f.sim.after(util::seconds(solo_s / 2), [&] {
    f.fabric.transfer(0, 2, 10 * bytes, [] {});
  });
  f.sim.run();
  // First flow: half at full rate, half at half rate -> 1.5x solo.
  EXPECT_NEAR(util::to_seconds(done_first), 1.5 * solo_s,
              0.02 * solo_s + 1e-4);
}

TEST(Fabric, StatsCount) {
  FabricFixture f;
  f.fabric.transfer(0, 2, 1000, [] {});
  f.fabric.transfer(0, 1, 0, [] {});
  f.sim.run();
  EXPECT_EQ(f.fabric.stats().flows_started, 2);
  EXPECT_EQ(f.fabric.stats().flows_completed, 2);
  EXPECT_EQ(f.fabric.stats().bytes_delivered, 1000);
  EXPECT_EQ(f.fabric.stats().bytes_remote, 1000);
}

TEST(Fabric, LoopbackBytesAreNotRemote) {
  FabricFixture f;
  f.fabric.transfer(1, 1, 5000, [] {});
  f.fabric.transfer(0, 2, 1000, [] {});
  f.sim.run();
  EXPECT_EQ(f.fabric.stats().bytes_delivered, 6000);
  EXPECT_EQ(f.fabric.stats().bytes_remote, 1000);
}

TEST(Fabric, ChainedTransfersFromCallbacks) {
  FabricFixture f;
  int completed = 0;
  std::function<void(int)> next = [&](int remaining) {
    ++completed;
    if (remaining > 0) {
      f.fabric.transfer(0, 2, 1000, [&next, remaining] { next(remaining - 1); });
    }
  };
  f.fabric.transfer(0, 2, 1000, [&next] { next(4); });
  f.sim.run();
  EXPECT_EQ(completed, 5);
}

TEST(Fabric, RejectsNegativeBytes) {
  FabricFixture f;
  EXPECT_THROW(f.fabric.transfer(0, 1, -5, [] {}), std::invalid_argument);
}

TEST(Fabric, FlowRateVisible) {
  FabricFixture f;
  const FlowId id = f.fabric.transfer(0, 2, util::kGiB, [] {});
  EXPECT_NEAR(f.fabric.flow_rate(id), f.topology.config().host_link_bytes_per_s,
              1.0);
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(9999), 0.0);
}

TEST(Fabric, RejectsBadHostIds) {
  FabricFixture f;
  EXPECT_THROW(f.fabric.transfer(-1, 0, 10, [] {}), std::out_of_range);
  EXPECT_THROW(f.fabric.transfer(0, 4, 10, [] {}), std::out_of_range);
  EXPECT_THROW(f.fabric.transfer(4, 4, 10, [] {}), std::out_of_range);
  EXPECT_EQ(f.fabric.stats().flows_started, 0);
}

// Loopback flows run at a constant rate, so their arrivals and
// completions only reschedule the next completion: no re-solve.
TEST(Fabric, LoopbackChurnDoesNotResolve) {
  FabricFixture f;
  const FlowId remote = f.fabric.transfer(0, 2, 100 * util::kGiB, [] {});
  const double rate = f.fabric.flow_rate(remote);
  const std::int64_t solves = f.fabric.stats().rate_recomputations;
  EXPECT_EQ(solves, 1);
  int done = 0;
  for (int i = 1; i <= 3; ++i) {
    f.fabric.transfer(1, 1, i * util::kMiB, [&] { ++done; });
  }
  f.sim.after(util::micros(50), [&] {
    f.fabric.transfer(3, 3, util::kMiB, [&] { ++done; });
  });
  f.sim.run_until(util::seconds(1));
  EXPECT_EQ(done, 4);
  EXPECT_EQ(f.fabric.stats().flows_completed, 4);
  EXPECT_EQ(f.fabric.stats().rate_recomputations, solves);
  EXPECT_EQ(f.fabric.flow_rate(remote), rate);

  FabricFixture loopback_only;
  loopback_only.fabric.transfer(2, 2, util::kMiB, [] {});
  loopback_only.fabric.transfer(3, 3, 2 * util::kMiB, [] {});
  loopback_only.sim.run();
  EXPECT_EQ(loopback_only.fabric.stats().flows_completed, 2);
  EXPECT_EQ(loopback_only.fabric.stats().rate_recomputations, 0);
}

// A capacity change alone, with the same flows, must re-solve.
TEST(Fabric, CapacityFactorChangeResolves) {
  FabricFixture f;
  const FlowId id = f.fabric.transfer(0, 2, 100 * util::kGiB, [] {});
  const double rate = f.fabric.flow_rate(id);
  EXPECT_EQ(rate, f.topology.config().host_link_bytes_per_s);
  const std::int64_t solves = f.fabric.stats().rate_recomputations;
  f.fabric.set_link_capacity_factor(f.topology.host_links(0)[0], 0.5);
  EXPECT_EQ(f.fabric.flow_rate(id), rate * 0.5);
  EXPECT_EQ(f.fabric.stats().rate_recomputations, solves + 1);
}

// Parking a flow behind a partition and resuming it on heal each change
// the network flow set, so each re-solves the survivor's rate.
TEST(Fabric, ReachabilityParkAndResumeResolve) {
  FabricFixture f;  // hosts 0 and 2 in rack 0, 1 and 3 in rack 1
  const FlowId stays = f.fabric.transfer(0, 2, 100 * util::kGiB, [] {});
  f.fabric.transfer(0, 1, 100 * util::kGiB, [] {});
  const double link = f.topology.config().host_link_bytes_per_s;
  EXPECT_EQ(f.fabric.flow_rate(stays), link / 2);
  const std::int64_t solves = f.fabric.stats().rate_recomputations;

  f.fabric.set_reachability({0, 1, 0, 1}, {{0, 1}, {1, 0}});
  EXPECT_EQ(f.fabric.parked_flows(), 1);
  EXPECT_EQ(f.fabric.flow_rate(stays), link);
  EXPECT_EQ(f.fabric.stats().rate_recomputations, solves + 1);

  f.fabric.clear_partitions();
  EXPECT_EQ(f.fabric.parked_flows(), 0);
  EXPECT_EQ(f.fabric.flow_rate(stays), link / 2);
  EXPECT_EQ(f.fabric.stats().rate_recomputations, solves + 2);
}

TEST(Fabric, RejectsUnknownLinks) {
  FabricFixture f;
  const LinkId past_end = f.topology.link_count();
  EXPECT_THROW(f.fabric.set_link_capacity_factor(-1, 0.5), std::out_of_range);
  EXPECT_THROW(f.fabric.set_link_capacity_factor(past_end, 0.5),
               std::out_of_range);
  EXPECT_THROW(f.fabric.set_link_extra_latency(-1, 5), std::out_of_range);
  EXPECT_THROW(f.fabric.set_link_extra_latency(past_end, 5),
               std::out_of_range);
  f.fabric.set_link_capacity_factor(past_end - 1, 0.5);
  f.fabric.set_link_extra_latency(past_end - 1, 5);
  EXPECT_EQ(f.fabric.link_capacity_factor(past_end - 1), 0.5);
  EXPECT_EQ(f.fabric.link_extra_latency(past_end - 1), 5);
}

TEST(Fabric, SetReachabilityValidatesClasses) {
  FabricFixture f;
  const std::vector<std::vector<char>> split = {{0, 1}, {1, 0}};
  EXPECT_THROW(f.fabric.set_reachability({0, 1, 0}, split),
               std::invalid_argument);
  EXPECT_THROW(f.fabric.set_reachability({0, 1, 0, 2}, split),
               std::invalid_argument);
  EXPECT_THROW(f.fabric.set_reachability({0, -1, 0, 1}, split),
               std::invalid_argument);
  EXPECT_THROW(f.fabric.set_reachability({0, 1, 0, 1}, {{0, 1}, {1}}),
               std::invalid_argument);
  EXPECT_THROW(f.fabric.set_reachability({0, 1, 0, 1}, {{0, 1, 0}, {1, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(f.fabric.set_reachability({0, 0, 0, 0}, {}),
               std::invalid_argument);
  // A rejected mask leaves the fabric unpartitioned.
  EXPECT_TRUE(f.fabric.reachable(0, 1));
  f.fabric.set_reachability({0, 1, 0, 1}, split);
  EXPECT_FALSE(f.fabric.reachable(0, 1));
  EXPECT_TRUE(f.fabric.reachable(0, 2));
}

// Property check across flow counts: n same-path flows take ~n * solo time.
class FabricFairness : public ::testing::TestWithParam<int> {};

TEST_P(FabricFairness, NFlowsShareProportionally) {
  FabricFixture f;
  const int n = GetParam();
  const Bytes bytes = 25 * util::kMiB;
  int completed = 0;
  TimeNs last = 0;
  for (int i = 0; i < n; ++i) {
    f.fabric.transfer(0, 2, bytes, [&] {
      ++completed;
      last = f.sim.now();
    });
  }
  f.sim.run();
  EXPECT_EQ(completed, n);
  const double solo_s =
      static_cast<double>(bytes) / f.topology.config().host_link_bytes_per_s;
  EXPECT_NEAR(util::to_seconds(last), n * solo_s, 0.02 * n * solo_s + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FabricFairness,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace evolve::net
