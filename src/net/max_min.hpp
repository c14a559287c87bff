// Grouped progressive-filling (water-filling) max-min solver.
//
// Every flow on one directed path gets the same max-min rate, so the
// solver takes flow *groups*: a path plus a member count. Each round
// finds the smallest fair share `max(0, residual) / unfixed flows` over
// the loaded links, then walks the unfixed groups in the order they were
// added and fixes every group crossing a link whose current share is
// within 1e-12 of it. A fix drains the residual with one subtraction per
// member flow, so the arithmetic is the per-flow reference solver's, and
// the shares it moves are re-read by the groups after it in the same
// round: add order decides near-tie fixes and must be kept stable.
//
// A solve touches only live state: the links some group crosses, each
// link's share cached and recomputed only when a fix changes that link,
// links dropped once no unfixed flow crosses them, and fixed groups
// compacted out of the pending list in place.
#pragma once

#include <array>
#include <vector>

#include "net/topology.hpp"

namespace evolve::net {

class MaxMinSolver {
 public:
  struct Rate {
    int group;
    double rate;  // bytes/s per member flow
  };

  /// Drops every group added since the last solve.
  void clear();

  /// Adds `size` (> 0) flows sharing `path` (1 to kMaxPathLinks links),
  /// tagged `group`. Within a round, groups are fixed in add order.
  void add(int group, const std::vector<LinkId>& path, int size);

  /// Water-fills the added groups against `capacity` (bytes/s, indexed
  /// by LinkId) and returns every group's per-flow rate, in fix order.
  /// The returned list stays valid until the next clear() or solve().
  const std::vector<Rate>& solve(const std::vector<double>& capacity);

 private:
  struct Pending {
    int group;
    int size;
    int len;
    std::array<LinkId, kMaxPathLinks> links;
  };

  std::vector<Pending> pending_;
  std::vector<Rate> rates_;
  // Per-link scratch, indexed by LinkId. unfixed_ is all zero between
  // solves; cap_ and share_ are valid only for links in active_.
  std::vector<double> cap_;
  std::vector<double> share_;
  std::vector<int> unfixed_;
  std::vector<LinkId> active_;  // links with unfixed flows
};

}  // namespace evolve::net
