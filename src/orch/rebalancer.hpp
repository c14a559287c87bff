// Background rebalancer (heavy-scheduler style).
//
// The scheduling pass is greedy and online; over time the cluster
// fragments — free capacity is spread thin across nodes while pending
// pods that need a contiguous chunk starve. The rebalancer runs a
// periodic background round that looks for starving pending pods
// (waiting longer than a threshold) and proposes swaps: evict one
// controller-managed pod from a node where that single eviction makes
// the starving pod fit, provided the victim verifiably fits on another
// node right now. The victim's controller recreates it there; the
// starving pod takes the freed slot on the next scheduling pass.
//
// Safety: only pods with a budget_group (i.e. owned by a controller that
// recreates them) are moved, every move is gated by the group's
// DisruptionBudget, and each round caps its total evictions so the
// rebalancer converges instead of thrashing.
#pragma once

#include <cstdint>

#include "orch/scheduler.hpp"

namespace evolve::orch {

struct RebalancerConfig {
  util::TimeNs interval = util::millis(500);
  /// A pending pod counts as starving once it has waited this long.
  util::TimeNs starvation_threshold = util::millis(200);
  /// Eviction cap per round (anti-thrash).
  int max_evictions_per_round = 2;
  /// Starving pods examined per round (oldest first).
  int max_starving_considered = 8;
};

class Rebalancer {
 public:
  Rebalancer(sim::Simulation& sim, Orchestrator& orch,
             RebalancerConfig config = {});

  /// Starts the periodic rounds (idempotent).
  void start();
  /// Stops after the current round; no further rounds are scheduled.
  void stop();

  /// Runs one round immediately (also used by the periodic loop).
  /// Returns the number of evictions performed.
  int round_now();

  std::int64_t moves_considered() const { return moves_considered_; }

 private:
  void schedule_next();

  sim::Simulation& sim_;
  Orchestrator& orch_;
  RebalancerConfig config_;
  bool running_ = false;
  bool tick_scheduled_ = false;
  std::int64_t moves_considered_ = 0;
};

}  // namespace evolve::orch
