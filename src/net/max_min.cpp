#include "net/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace evolve::net {

void MaxMinSolver::clear() {
  pending_.clear();
  rates_.clear();
  // Only a solve that threw leaves links loaded.
  for (const LinkId l : active_) unfixed_[static_cast<std::size_t>(l)] = 0;
  active_.clear();
}

void MaxMinSolver::add(int group, const std::vector<LinkId>& path, int size) {
  if (path.empty() || path.size() > static_cast<std::size_t>(kMaxPathLinks)) {
    throw std::invalid_argument("max-min: path must have 1 to 4 links");
  }
  if (size <= 0) throw std::invalid_argument("max-min: empty flow group");
  Pending p{group, size, static_cast<int>(path.size()), {}};
  std::copy(path.begin(), path.end(), p.links.begin());
  pending_.push_back(p);
}

const std::vector<MaxMinSolver::Rate>& MaxMinSolver::solve(
    const std::vector<double>& capacity) {
  rates_.clear();
  if (unfixed_.size() < capacity.size()) {
    unfixed_.resize(capacity.size(), 0);
    cap_.resize(capacity.size());
    share_.resize(capacity.size());
  }
  for (const Pending& p : pending_) {
    for (int i = 0; i < p.len; ++i) {
      const auto l = static_cast<std::size_t>(p.links[static_cast<std::size_t>(i)]);
      if (l >= capacity.size()) {
        throw std::out_of_range("max-min: path link has no capacity");
      }
      if (unfixed_[l] == 0) {
        active_.push_back(static_cast<LinkId>(l));
        cap_[l] = capacity[l];
      }
      unfixed_[l] += p.size;
    }
  }
  for (const LinkId l : active_) {
    const auto idx = static_cast<std::size_t>(l);
    share_[idx] = std::max(0.0, cap_[idx]) / unfixed_[idx];
  }

  while (!pending_.empty()) {
    // Find the bottleneck: the loaded link with the smallest fair share.
    double best_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : active_) {
      best_share = std::min(best_share, share_[static_cast<std::size_t>(l)]);
    }
    if (!std::isfinite(best_share)) {
      throw std::logic_error("max-min: unfixed flows but no loaded link");
    }
    // Fix every unfixed group crossing a link at the bottleneck share, in
    // add order; the groups left unfixed are compacted to the front.
    std::size_t kept = 0;
    for (std::size_t pi = 0; pi < pending_.size(); ++pi) {
      const Pending p = pending_[pi];
      bool at_bottleneck = false;
      for (int i = 0; i < p.len; ++i) {
        const auto l = static_cast<std::size_t>(p.links[static_cast<std::size_t>(i)]);
        if (share_[l] <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) {
        pending_[kept++] = p;
        continue;
      }
      rates_.push_back(Rate{p.group, best_share});
      for (int i = 0; i < p.len; ++i) {
        const auto l = static_cast<std::size_t>(p.links[static_cast<std::size_t>(i)]);
        unfixed_[l] -= p.size;
        // The link's last unfixed flows: its residual is never read again.
        if (unfixed_[l] == 0) continue;
        for (int k = 0; k < p.size; ++k) cap_[l] -= best_share;
        share_[l] = std::max(0.0, cap_[l]) / unfixed_[l];
      }
    }
    const bool fixed_any = kept < pending_.size();
    pending_.resize(kept);
    std::erase_if(active_, [this](LinkId l) {
      return unfixed_[static_cast<std::size_t>(l)] == 0;
    });
    if (!fixed_any) {
      throw std::logic_error("max-min: made no progress");
    }
  }
  return rates_;
}

}  // namespace evolve::net
