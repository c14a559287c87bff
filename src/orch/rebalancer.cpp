#include "orch/rebalancer.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace evolve::orch {

Rebalancer::Rebalancer(sim::Simulation& sim, Orchestrator& orch,
                       RebalancerConfig config)
    : sim_(sim), orch_(orch), config_(config) {}

void Rebalancer::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void Rebalancer::stop() { running_ = false; }

void Rebalancer::schedule_next() {
  if (!running_ || tick_scheduled_) return;
  tick_scheduled_ = true;
  sim_.after(config_.interval, [this] {
    tick_scheduled_ = false;
    if (!running_) return;
    round_now();
    schedule_next();
  });
}

int Rebalancer::round_now() {
  orch_.metrics().count("rebalance_rounds");
  trace::Tracer* tracer = orch_.tracer();
  const trace::SpanId span =
      trace::begin_span(tracer, trace::Layer::kScheduler, "orch.rebalance");

  int evicted = 0;
  int considered = 0;
  const util::TimeNs now = sim_.now();
  for (PodId pending : orch_.pending_snapshot()) {
    if (evicted >= config_.max_evictions_per_round) break;
    if (considered >= config_.max_starving_considered) break;
    const PodStatus& status = orch_.pod(pending);
    if (status.phase != PodPhase::kPending) continue;
    if (now - status.submit_time < config_.starvation_threshold) continue;
    ++considered;
    const PodSpec& spec = status.spec;

    // A swap target: a node where exactly one movable pod blocks the
    // starving pod, and that pod provably fits elsewhere right now.
    struct Move {
      double size = 0;  // victim dominant share (move the smallest)
      PodId victim = kInvalidPod;
    };
    Move best;
    for (cluster::NodeId node : orch_.managed_nodes()) {
      const NodeStatus& ns = orch_.node_status(node);
      if (!ns.allocatable().fits(spec.request)) continue;
      if (ns.free().fits(spec.request)) continue;  // blocked by a filter,
                                                   // not by capacity
      for (PodId pid : ns.pods()) {
        const PodStatus& victim = orch_.pod(pid);
        // Only controller-managed pods move (they get recreated); the
        // budget gate keeps the controller's availability floor.
        if (victim.spec.budget_group.empty()) continue;
        if (!orch_.disruption_allowed(victim.spec.budget_group)) continue;
        cluster::Resources freed = ns.free() + victim.spec.request;
        if (!freed.fits(spec.request)) continue;
        if (orch_.feasible_node_for(victim.spec, node) ==
            cluster::kInvalidNode) {
          continue;
        }
        const double size =
            victim.spec.request.dominant_share(ns.allocatable());
        if (best.victim == kInvalidPod || size < best.size ||
            (size == best.size && pid > best.victim)) {
          best = {size, pid};
        }
      }
    }
    ++moves_considered_;
    if (best.victim == kInvalidPod) continue;
    if (orch_.evict_for_rebalance(best.victim)) ++evicted;
  }

  if (tracer && span != trace::kNoSpan) {
    tracer->annotate(span, "evictions", std::to_string(evicted));
    trace::end_span(tracer, span);
  }
  return evicted;
}

}  // namespace evolve::orch
