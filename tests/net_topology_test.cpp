#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"

namespace evolve::net {
namespace {

cluster::Cluster two_rack_cluster() {
  // 4 compute nodes spread over 2 racks: node 0,2 in rack 0; 1,3 in rack 1.
  return cluster::make_testbed(4, 0, 0, 2);
}

TEST(Topology, LoopbackPathIsEmpty) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  EXPECT_TRUE(topo.path(0, 0).empty());
  EXPECT_EQ(topo.hops(0, 0), 0);
}

TEST(Topology, SameRackPathHasTwoLinks) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  ASSERT_TRUE(topo.same_rack(0, 2));
  const auto path = topo.path(0, 2);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(topo.link(path[0]).name, "compute-0:up");
  EXPECT_EQ(topo.link(path[1]).name, "compute-2:down");
  EXPECT_EQ(topo.hops(0, 2), 1);
}

TEST(Topology, CrossRackPathHasFourLinks) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  ASSERT_FALSE(topo.same_rack(0, 1));
  const auto path = topo.path(0, 1);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(topo.link(path[1]).name, "tor-0:up");
  EXPECT_EQ(topo.link(path[2]).name, "tor-1:down");
  EXPECT_EQ(topo.hops(0, 1), 2);
}

// The fabric keys flow groups by (src, dst): that is exact only because
// distinct host pairs never share a path and every loopback path is empty.
TEST(Topology, DistinctPairsHaveDistinctPaths) {
  for (int racks = 1; racks <= 4; ++racks) {
    const auto c = cluster::make_testbed(7, 3, 2, racks);
    Topology topo(c);
    std::map<std::vector<LinkId>, std::pair<int, int>> owner;
    for (int src = 0; src < topo.host_count(); ++src) {
      for (int dst = 0; dst < topo.host_count(); ++dst) {
        const auto path = topo.path(src, dst);
        if (src == dst) {
          EXPECT_TRUE(path.empty()) << "host " << src;
          continue;
        }
        const auto [it, inserted] = owner.emplace(path, std::pair{src, dst});
        EXPECT_TRUE(inserted) << src << "->" << dst << " shares the path of "
                              << it->second.first << "->" << it->second.second;
      }
    }
    EXPECT_EQ(owner.size(),
              static_cast<std::size_t>(topo.host_count() * (topo.host_count() - 1)));
  }
}

TEST(Topology, LatencyOrdering) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  EXPECT_LT(topo.latency(0, 0), topo.latency(0, 2));
  EXPECT_LT(topo.latency(0, 2), topo.latency(0, 1));
}

TEST(Topology, LinkCountMatchesLayout) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  // 2 links per host + 2 per rack.
  EXPECT_EQ(topo.link_count(), 2 * 4 + 2 * 2);
  EXPECT_EQ(topo.host_count(), 4);
  EXPECT_EQ(topo.rack_count(), 2);
}

TEST(Topology, CustomConfigPropagates) {
  const auto c = two_rack_cluster();
  TopologyConfig config;
  config.host_link_bytes_per_s = 999.0;
  config.tor_uplink_bytes_per_s = 777.0;
  Topology topo(c, config);
  EXPECT_DOUBLE_EQ(topo.link(topo.path(0, 2)[0]).capacity_bytes_per_s, 999.0);
  EXPECT_DOUBLE_EQ(topo.link(topo.path(0, 1)[1]).capacity_bytes_per_s, 777.0);
}

TEST(Topology, RejectsBadHostIds) {
  const auto c = two_rack_cluster();
  Topology topo(c);
  EXPECT_THROW(topo.path(-1, 0), std::out_of_range);
  EXPECT_THROW(topo.path(0, 99), std::out_of_range);
}

TEST(Topology, RejectsEmptyCluster) {
  cluster::Cluster empty;
  EXPECT_THROW(Topology topo(empty), std::invalid_argument);
}

}  // namespace
}  // namespace evolve::net
