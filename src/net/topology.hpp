// Datacenter topology: hosts -> rack (ToR) switches -> core switch.
//
// Links are directed (full-duplex modeled as two independent directed
// links). The topology resolves a source/destination host pair into the
// ordered list of directed links a flow occupies, and the end-to-end
// propagation latency.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/types.hpp"

namespace evolve::net {

using LinkId = std::int32_t;

/// Longest path Topology::path returns: host up, ToR up, ToR down, host
/// down.
inline constexpr int kMaxPathLinks = 4;

struct Link {
  std::string name;
  double capacity_bytes_per_s = 0;
};

struct TopologyConfig {
  double host_link_bytes_per_s = 1.25e9;  // 10 GbE access links
  double tor_uplink_bytes_per_s = 5e9;    // 40 GbE rack uplinks
  util::TimeNs per_hop_latency = util::micros(2);
  util::TimeNs base_latency = util::micros(10);  // NIC + software stack
  double loopback_bytes_per_s = 16e9;            // intra-node memcpy
};

class Topology {
 public:
  /// Builds host and ToR links for every node in `cluster`.
  Topology(const cluster::Cluster& cluster, TopologyConfig config = {});

  int host_count() const { return host_count_; }
  int rack_count() const { return rack_count_; }
  const TopologyConfig& config() const { return config_; }

  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  int link_count() const { return static_cast<int>(links_.size()); }

  /// Directed links traversed by a flow from host `src` to host `dst`.
  /// Empty for src == dst (loopback). Distinct non-loopback pairs have
  /// distinct paths, so the fabric keys its flow groups by (src, dst).
  std::vector<LinkId> path(cluster::NodeId src, cluster::NodeId dst) const;

  /// End-to-end latency for one message src -> dst.
  util::TimeNs latency(cluster::NodeId src, cluster::NodeId dst) const;

  /// Number of switch hops between two hosts (0 loopback, 1 same rack,
  /// 2 across racks through the core).
  int hops(cluster::NodeId src, cluster::NodeId dst) const;

  /// True when both hosts are in the same rack.
  bool same_rack(cluster::NodeId a, cluster::NodeId b) const;

  /// Rack (failure-domain) index of a host.
  int rack_of(cluster::NodeId host) const {
    return host_rack_[static_cast<std::size_t>(host)];
  }

  /// The two directed NIC links of a host: {egress (up), ingress (down)}.
  /// Lets fault wiring translate "this node's NIC degraded" into link ids.
  std::array<LinkId, 2> host_links(cluster::NodeId host) const {
    return {host_up(host), host_down(host)};
  }

 private:
  LinkId host_up(cluster::NodeId host) const;
  LinkId host_down(cluster::NodeId host) const;
  LinkId tor_up(int rack) const;
  LinkId tor_down(int rack) const;

  TopologyConfig config_;
  int host_count_ = 0;
  int rack_count_ = 0;
  std::vector<int> host_rack_;
  std::vector<Link> links_;
};

}  // namespace evolve::net
