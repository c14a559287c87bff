// Pins the fabric's grouped max-min solver bit for bit against a copy of
// the water-filling loop it replaced, which rescanned every link each
// round and kept fixed groups in its pending list. Rates are compared
// with EXPECT_EQ on the doubles: the solver must fix the same groups in
// the same rounds, in the same order, with the same subtractions.
//
// The per-flow reference engine (FabricConfig::use_reference_solver) is
// not this oracle: it fixes flows in flow-id order, not group-index
// order, and tracks remaining bytes per flow, so it is held to a
// tolerance (DESIGN.md §7 "Determinism invariants"), not to equality.
#include "net/max_min.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace evolve::net {
namespace {

struct RefGroup {
  std::vector<LinkId> path;  // empty = loopback
  int size = 0;              // 0 = a free group index
};

// Copy of Fabric::solve_grouped's loop before the live-state rewrite.
// Returns each group's rate; loopback and empty groups keep NaN.
std::vector<double> reference_water_fill(const std::vector<double>& capacity,
                                         const std::vector<RefGroup>& groups) {
  const std::size_t link_count = capacity.size();
  std::vector<double> cap_scratch = capacity;
  std::vector<int> unfixed_scratch(link_count, 0);
  for (const RefGroup& group : groups) {
    for (LinkId l : group.path) {
      unfixed_scratch[static_cast<std::size_t>(l)] += group.size;
    }
  }
  std::vector<double> rate(groups.size(),
                           std::numeric_limits<double>::quiet_NaN());

  std::vector<int> pending_scratch;
  std::int64_t remaining = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const RefGroup& group = groups[gi];
    if (group.size == 0 || group.path.empty()) continue;
    rate[gi] = -1.0;  // unfixed marker
    pending_scratch.push_back(static_cast<int>(gi));
    remaining += group.size;
  }

  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_count; ++l) {
      if (unfixed_scratch[l] == 0) continue;
      const double share =
          std::max(0.0, cap_scratch[l]) / unfixed_scratch[l];
      best_share = std::min(best_share, share);
    }
    if (!std::isfinite(best_share)) {
      throw std::logic_error("max-min: unfixed flows but no loaded link");
    }
    bool fixed_any = false;
    for (int gi : pending_scratch) {
      const RefGroup& group = groups[static_cast<std::size_t>(gi)];
      if (rate[static_cast<std::size_t>(gi)] >= 0) continue;
      bool at_bottleneck = false;
      for (LinkId l : group.path) {
        const auto idx = static_cast<std::size_t>(l);
        const double share =
            std::max(0.0, cap_scratch[idx]) / unfixed_scratch[idx];
        if (share <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      rate[static_cast<std::size_t>(gi)] = best_share;
      fixed_any = true;
      remaining -= group.size;
      for (LinkId l : group.path) {
        const auto idx = static_cast<std::size_t>(l);
        for (int k = 0; k < group.size; ++k) cap_scratch[idx] -= best_share;
        unfixed_scratch[idx] -= group.size;
      }
    }
    if (!fixed_any) {
      throw std::logic_error("max-min: made no progress");
    }
  }
  return rate;
}

// Gray capacity factors: mostly healthy, some degraded, and some within
// a few 1e-13 of 1 so shares land inside the 1e-12 tie band.
double random_factor(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform(0.05, 1.0);
    case 1: {
      static const double kSteps[] = {0.5, 0.25, 0.1, 0.9 * (1 - 0.01)};
      return kSteps[rng.uniform_int(0, 3)];
    }
    case 2: return 1.0 + static_cast<double>(rng.uniform_int(-20, 20)) * 1e-13;
    default: return 1.0;
  }
}

// Member counts 1-128, weighted toward small groups.
int random_size(util::Rng& rng) {
  return rng.chance(0.5) ? static_cast<int>(rng.uniform_int(1, 4))
                         : static_cast<int>(rng.uniform_int(1, 128));
}

struct Scenario {
  cluster::Cluster cluster;
  Topology topology;

  explicit Scenario(util::Rng& rng)
      : cluster(cluster::make_testbed(
            static_cast<int>(rng.uniform_int(4, 24)), 0, 0,
            static_cast<int>(rng.uniform_int(1, 4)))),
        topology(cluster, config(rng)) {}

  // ToR uplinks at 4x, 1x or an odd multiple of the host links: equal
  // multiples make exact cross-tier ties common.
  static TopologyConfig config(util::Rng& rng) {
    TopologyConfig c;
    static const double kUplink[] = {4.0, 1.0, 2.5, 3.0};
    c.tor_uplink_bytes_per_s =
        c.host_link_bytes_per_s * kUplink[rng.uniform_int(0, 3)];
    return c;
  }

  std::pair<cluster::NodeId, cluster::NodeId> random_pair(util::Rng& rng) {
    const auto hosts = topology.host_count();
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, hosts - 1));
    // One pair in ten is loopback; the rest split between same-rack and
    // cross-rack destinations as the racks allow.
    if (rng.chance(0.1)) return {src, src};
    auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, hosts - 1));
    if (dst == src) dst = (dst + 1) % hosts;
    return {src, dst};
  }
};

std::uint64_t pair_key(std::pair<cluster::NodeId, cluster::NodeId> p) {
  if (p.first == p.second) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(p.first) << 32 |
         static_cast<std::uint64_t>(p.second);
}

TEST(MaxMinSolver, MatchesPreviousWaterFillBitForBit) {
  util::Rng rng(0x3a11f111ULL);
  MaxMinSolver solver;
  int compared = 0;
  for (int set = 0; set < 1500; ++set) {
    Scenario s(rng);
    std::vector<double> capacity(
        static_cast<std::size_t>(s.topology.link_count()));
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      capacity[l] = s.topology.link(static_cast<LinkId>(l)).capacity_bytes_per_s *
                    random_factor(rng);
    }
    // Distinct (src, dst) pairs in group-index order, as the fabric keys
    // them; a free index (size 0) now and then, as recycled groups leave.
    std::vector<RefGroup> groups;
    std::map<std::uint64_t, int> seen;
    const int count = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < count; ++i) {
      const auto pair = s.random_pair(rng);
      if (!seen.emplace(pair_key(pair), i).second) continue;
      groups.push_back(RefGroup{s.topology.path(pair.first, pair.second),
                                rng.chance(0.1) ? 0 : random_size(rng)});
    }

    const std::vector<double> expected = reference_water_fill(capacity, groups);
    solver.clear();
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      if (groups[gi].size > 0 && !groups[gi].path.empty()) {
        solver.add(static_cast<int>(gi), groups[gi].path, groups[gi].size);
      }
    }
    std::vector<double> got(groups.size(),
                            std::numeric_limits<double>::quiet_NaN());
    for (const MaxMinSolver::Rate& r : solver.solve(capacity)) {
      got[static_cast<std::size_t>(r.group)] = r.rate;
    }
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      if (std::isnan(expected[gi])) {
        EXPECT_TRUE(std::isnan(got[gi])) << "set " << set << " group " << gi;
        continue;
      }
      ASSERT_EQ(got[gi], expected[gi]) << "set " << set << " group " << gi;
      ++compared;
    }
  }
  EXPECT_GT(compared, 15000);
}

// The same pin through Fabric: flows enter by transfer(), whole groups
// leave by cancel() so their indices return to the free list, new pairs
// reuse them, and gray factors arrive through set_link_capacity_factor.
// The expected group order follows the fabric's index rule: a new group
// takes the most recently freed index, else the next unused one.
TEST(MaxMinSolver, FabricRatesMatchPreviousWaterFill) {
  util::Rng rng(0xfab41c5ULL);
  for (int set = 0; set < 1000; ++set) {
    Scenario s(rng);
    sim::Simulation sim;
    Fabric fabric(sim, s.topology);

    std::vector<RefGroup> groups;
    std::vector<std::vector<FlowId>> members;
    std::vector<std::uint64_t> key_of;
    std::vector<int> free_list;
    std::map<std::uint64_t, int> index_of;
    auto add_pair = [&] {
      const auto pair = s.random_pair(rng);
      const std::uint64_t key = pair_key(pair);
      auto it = index_of.find(key);
      if (it == index_of.end()) {
        int gi;
        if (!free_list.empty()) {
          gi = free_list.back();
          free_list.pop_back();
        } else {
          gi = static_cast<int>(groups.size());
          groups.emplace_back();
          members.emplace_back();
          key_of.emplace_back();
        }
        groups[static_cast<std::size_t>(gi)] =
            RefGroup{s.topology.path(pair.first, pair.second), 0};
        key_of[static_cast<std::size_t>(gi)] = key;
        it = index_of.emplace(key, gi).first;
      }
      const auto gi = static_cast<std::size_t>(it->second);
      const int n = random_size(rng);
      for (int k = 0; k < n; ++k) {
        members[gi].push_back(
            fabric.transfer(pair.first, pair.second, util::kGiB << 10, [] {}));
      }
      groups[gi].size += n;
    };

    const int count = static_cast<int>(rng.uniform_int(2, 24));
    for (int i = 0; i < count; ++i) add_pair();
    // Empty about 30% of the groups, in index order, so their indices
    // join the free list in that order; later pairs reuse them.
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      if (groups[gi].size == 0 || !rng.chance(0.3)) continue;
      for (FlowId id : members[gi]) ASSERT_TRUE(fabric.cancel(id));
      members[gi].clear();
      groups[gi].size = 0;
      index_of.erase(key_of[gi]);
      free_list.push_back(static_cast<int>(gi));
    }
    const int more = static_cast<int>(rng.uniform_int(0, 10));
    for (int i = 0; i < more; ++i) add_pair();

    std::vector<double> capacity(
        static_cast<std::size_t>(s.topology.link_count()));
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      const double factor = rng.chance(0.3) ? random_factor(rng) : 1.0;
      if (factor != 1.0) {
        fabric.set_link_capacity_factor(static_cast<LinkId>(l), factor);
      }
      capacity[l] =
          s.topology.link(static_cast<LinkId>(l)).capacity_bytes_per_s * factor;
    }

    const std::vector<double> expected = reference_water_fill(capacity, groups);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (FlowId id : members[gi]) {
        const double want = groups[gi].path.empty()
                                ? s.topology.config().loopback_bytes_per_s
                                : expected[gi];
        ASSERT_EQ(fabric.flow_rate(id), want) << "set " << set << " group " << gi;
      }
    }
  }
}

TEST(MaxMinSolver, RejectsMalformedGroups) {
  MaxMinSolver solver;
  EXPECT_THROW(solver.add(0, {}, 1), std::invalid_argument);
  EXPECT_THROW(solver.add(0, {0, 1, 2, 3, 4}, 1), std::invalid_argument);
  EXPECT_THROW(solver.add(0, {0, 1}, 0), std::invalid_argument);
  solver.add(0, {0, 7}, 1);
  EXPECT_THROW(solver.solve(std::vector<double>(4, 1.0)), std::out_of_range);
  // A cleared solver starts over with no group left loaded.
  solver.clear();
  solver.add(3, {0, 1}, 2);
  const auto& rates = solver.solve({10.0, 4.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates[0].group, 3);
  EXPECT_EQ(rates[0].rate, 2.0);
}

}  // namespace
}  // namespace evolve::net
