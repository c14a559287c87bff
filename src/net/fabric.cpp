#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace evolve::net {

namespace {
constexpr double kDrainEpsilon = 1e-6;  // bytes
// Group key of every loopback pair: they all share the empty path.
constexpr std::uint64_t kLoopbackKey = ~std::uint64_t{0};

std::uint64_t pair_key(cluster::NodeId src, cluster::NodeId dst) {
  if (src == dst) return kLoopbackKey;
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
         static_cast<std::uint32_t>(dst);
}
}  // namespace

Fabric::Fabric(sim::Simulation& sim, const Topology& topology,
               FabricConfig config)
    : sim_(sim),
      topology_(topology),
      config_(config),
      last_settle_(sim.now()) {
  const auto link_count = static_cast<std::size_t>(topology_.link_count());
  link_capacity_factor_.assign(link_count, 1.0);
  link_extra_latency_.assign(link_count, 0);
  link_capacity_.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    link_capacity_[l] =
        topology_.link(static_cast<LinkId>(l)).capacity_bytes_per_s;
  }
}

void Fabric::set_link_capacity_factor(LinkId link, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("link capacity factor must be > 0");
  }
  if (link < 0 || link >= topology_.link_count()) {
    throw std::out_of_range("set_link_capacity_factor: bad link id");
  }
  const auto l = static_cast<std::size_t>(link);
  // Settle progress at the old rates before the capacity change, then
  // trigger a re-solve so in-flight flows pick up the new rates.
  if (config_.use_reference_solver) {
    ref_settle_progress();
  } else {
    settle_progress();
  }
  link_capacity_factor_[l] = factor;
  link_capacity_[l] = topology_.link(link).capacity_bytes_per_s * factor;
  if (config_.use_reference_solver) {
    ref_recompute();
    return;
  }
  rates_stale_ = true;
  mark_dirty();
}

void Fabric::set_link_extra_latency(LinkId link, util::TimeNs extra) {
  if (extra < 0) throw std::invalid_argument("extra latency must be >= 0");
  if (link < 0 || link >= topology_.link_count()) {
    throw std::out_of_range("set_link_extra_latency: bad link id");
  }
  link_extra_latency_[static_cast<std::size_t>(link)] = extra;
  any_extra_latency_ = false;
  for (const util::TimeNs e : link_extra_latency_) {
    if (e > 0) any_extra_latency_ = true;
  }
}

FlowId Fabric::transfer(cluster::NodeId src, cluster::NodeId dst,
                        util::Bytes bytes, FlowCallback on_complete) {
  if (bytes < 0) throw std::invalid_argument("transfer: negative bytes");
  if (src < 0 || src >= topology_.host_count() || dst < 0 ||
      dst >= topology_.host_count()) {
    throw std::out_of_range("transfer: bad host id");
  }
  util::TimeNs latency = topology_.latency(src, dst);
  if (any_extra_latency_) {
    for (const LinkId l : topology_.path(src, dst)) {
      latency += link_extra_latency_[static_cast<std::size_t>(l)];
    }
  }
  const FlowId id = next_id_++;
  ++stats_.flows_started;
  ++stats_.flows_in_flight;
  if (tracer_) {
    // Span covers the whole flow lifetime including propagation latency;
    // it ends inside the wrapped completion callback or on cancel.
    const trace::SpanId span =
        tracer_->begin(trace::Layer::kNetwork, "net.transfer");
    tracer_->annotate(span, "bytes", std::to_string(bytes));
    tracer_->annotate(span, "src", std::to_string(src));
    tracer_->annotate(span, "dst", std::to_string(dst));
    span_of_.emplace(id, span);
    on_complete = [this, id, cb = std::move(on_complete)]() mutable {
      end_flow_span(id);
      if (cb) cb();
    };
  }
  if (partitions_active_ && !reachable(src, dst)) {
    // The pair is partitioned: the flow parks immediately and makes no
    // progress until a heal/mask change reconnects src → dst.
    ++stats_.flows_parked;
    parked_.emplace(id, ParkedFlow{src, dst, static_cast<double>(bytes), bytes,
                                   latency, std::move(on_complete)});
    return id;
  }
  if (bytes == 0) {
    // Completion is counted when the latency-deferred callback actually
    // fires, so stats never report completions that have not happened yet.
    sim_.after(latency, [this, cb = std::move(on_complete)]() mutable {
      ++stats_.flows_completed;
      --stats_.flows_in_flight;
      cb();
    });
    return id;
  }
  if (config_.use_reference_solver) {
    return ref_transfer(id, src, dst, topology_.path(src, dst), bytes, latency,
                        std::move(on_complete));
  }

  settle_progress();
  enter_flow(id, src, dst, bytes, static_cast<double>(bytes), latency,
             std::move(on_complete));
  mark_dirty();
  return id;
}

bool Fabric::cancel(FlowId id) {
  auto pit = parked_.find(id);
  if (pit != parked_.end()) {
    // Parked flows never entered (or already left) the solver, so only
    // the in-flight accounting needs unwinding.
    end_flow_span(id);
    parked_.erase(pit);
    ++stats_.flows_cancelled;
    --stats_.flows_in_flight;
    return true;
  }
  if (config_.use_reference_solver) {
    const bool cancelled = ref_cancel(id);
    if (cancelled) end_flow_span(id);
    return cancelled;
  }
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  end_flow_span(id);
  settle_progress();
  const int slot = it->second;
  leave_group(flow_group_[static_cast<std::size_t>(slot)]);
  release_flow_slot(slot);
  slot_of_.erase(it);
  ++stats_.flows_cancelled;
  --stats_.flows_in_flight;
  --active_flows_;
  mark_dirty();
  return true;
}

double Fabric::flow_rate(FlowId id) const {
  if (config_.use_reference_solver) {
    auto it = ref_flows_.find(id);
    return it == ref_flows_.end() ? 0.0 : it->second.rate;
  }
  // Rates may be stale inside a same-timestamp churn batch; flush first.
  const_cast<Fabric*>(this)->flush_if_dirty();
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return 0.0;
  const int gi = flow_group_[static_cast<std::size_t>(it->second)];
  return groups_[static_cast<std::size_t>(gi)].rate;
}

// ---------------------------------------------------------------------------
// Incremental grouped engine
// ---------------------------------------------------------------------------

int Fabric::acquire_flow_slot() {
  if (!free_slots_.empty()) {
    const int s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  flow_id_.push_back(0);
  flow_group_.push_back(-1);
  flow_bytes_.push_back(0);
  flow_latency_.push_back(0);
  flow_src_.push_back(0);
  flow_dst_.push_back(0);
  flow_finish_drain_.push_back(0.0);
  flow_cb_.emplace_back();
  return static_cast<int>(flow_id_.size()) - 1;
}

void Fabric::release_flow_slot(int slot) {
  const auto si = static_cast<std::size_t>(slot);
  flow_id_[si] = 0;
  flow_group_[si] = -1;
  flow_cb_[si] = nullptr;
  free_slots_.push_back(slot);
}

void Fabric::enter_flow(FlowId id, cluster::NodeId src, cluster::NodeId dst,
                        util::Bytes bytes, double remaining,
                        util::TimeNs latency, FlowCallback cb) {
  const int gi = group_for_pair(src, dst);
  const int slot = acquire_flow_slot();
  const auto si = static_cast<std::size_t>(slot);
  Group& group = groups_[static_cast<std::size_t>(gi)];
  flow_id_[si] = id;
  flow_group_[si] = gi;
  flow_bytes_[si] = bytes;
  flow_latency_[si] = latency;
  flow_src_[si] = src;
  flow_dst_[si] = dst;
  flow_finish_drain_[si] = group.drain_total + remaining;
  flow_cb_[si] = std::move(cb);
  group.members.push_back(Member{flow_finish_drain_[si], id, slot});
  std::push_heap(group.members.begin(), group.members.end(), MemberLater{});
  ++group.size;
  if (!group.path.empty()) rates_stale_ = true;
  slot_of_.emplace(id, slot);
  ++active_flows_;
}

int Fabric::group_for_pair(cluster::NodeId src, cluster::NodeId dst) {
  const std::uint64_t key = pair_key(src, dst);
  const auto it = group_of_pair_.find(key);
  if (it != group_of_pair_.end()) return it->second;
  std::vector<LinkId> path = topology_.path(src, dst);
  int gi;
  if (!free_groups_.empty()) {
    gi = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gi = static_cast<int>(groups_.size());
    groups_.emplace_back();
  }
  Group& group = groups_[static_cast<std::size_t>(gi)];
  group.key = key;
  group.path = std::move(path);
  group.rate =
      group.path.empty() ? topology_.config().loopback_bytes_per_s : 0.0;
  group.drain_total = 0.0;
  group.size = 0;
  group_of_pair_.emplace(key, gi);
  live_groups_.insert(
      std::upper_bound(live_groups_.begin(), live_groups_.end(), gi), gi);
  return gi;
}

void Fabric::leave_group(int group_index) {
  Group& group = groups_[static_cast<std::size_t>(group_index)];
  --group.size;
  if (!group.path.empty()) rates_stale_ = true;
  if (group.size == 0) {
    group_of_pair_.erase(group.key);
    group.path.clear();
    group.members.clear();
    group.rate = 0.0;
    group.drain_total = 0.0;
    free_groups_.push_back(group_index);
    live_groups_.erase(std::lower_bound(live_groups_.begin(),
                                        live_groups_.end(), group_index));
  }
}

void Fabric::purge_dead_members(Group& group) {
  while (!group.members.empty()) {
    const Member& m = group.members.front();
    if (flow_id_[static_cast<std::size_t>(m.slot)] == m.id) return;
    // Cancelled flow; its slot moved on.
    std::pop_heap(group.members.begin(), group.members.end(), MemberLater{});
    group.members.pop_back();
  }
}

void Fabric::settle_progress() {
  const util::TimeNs now = sim_.now();
  if (now == last_settle_) return;
  const double dt = util::to_seconds(now - last_settle_);
  last_settle_ = now;
  for (const int gi : live_groups_) {
    Group& group = groups_[static_cast<std::size_t>(gi)];
    group.drain_total += group.rate * dt;
  }
}

void Fabric::mark_dirty() {
  dirty_ = true;
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // One recompute per timestamp batch: every same-time arrival/cancel
  // (e.g. a whole shuffle wave) shares this deferred flush.
  sim_.defer([this] {
    flush_scheduled_ = false;
    flush_if_dirty();
  });
}

void Fabric::flush_if_dirty() {
  if (!dirty_) return;
  dirty_ = false;
  settle_progress();
  clear_pending_event();
  if (active_flows_ == 0) {
    rates_stale_ = false;  // no live group is left to hold a rate
    return;
  }
  if (rates_stale_) solve_grouped();
  double earliest_s = std::numeric_limits<double>::infinity();
  for (const int gi : live_groups_) {
    Group& group = groups_[static_cast<std::size_t>(gi)];
    if (group.rate <= 0) {
      throw std::logic_error("flow with zero rate would never complete");
    }
    purge_dead_members(group);
    earliest_s = std::min(
        earliest_s,
        (group.members.front().finish_drain - group.drain_total) / group.rate);
  }
  schedule_completion(earliest_s);
}

void Fabric::solve_grouped() {
  ++stats_.rate_recomputations;
  rates_stale_ = false;
  solver_.clear();
  for (const int gi : live_groups_) {
    const Group& group = groups_[static_cast<std::size_t>(gi)];
    if (!group.path.empty()) solver_.add(gi, group.path, group.size);
  }
  for (const MaxMinSolver::Rate& r : solver_.solve(link_capacity_)) {
    groups_[static_cast<std::size_t>(r.group)].rate = r.rate;
  }
}

void Fabric::on_completion_event() {
  has_pending_event_ = false;
  settle_progress();
  done_scratch_.clear();
  // leave_group() drops a group it empties from live_groups_, so the
  // index advances only past groups that keep members.
  for (std::size_t i = 0; i < live_groups_.size();) {
    const int gi = live_groups_[i];
    Group& group = groups_[static_cast<std::size_t>(gi)];
    const bool remote = !group.path.empty();
    for (;;) {
      purge_dead_members(group);
      if (group.members.empty()) break;
      const Member m = group.members.front();
      if (m.finish_drain > group.drain_total + kDrainEpsilon) break;
      std::pop_heap(group.members.begin(), group.members.end(), MemberLater{});
      group.members.pop_back();
      const auto si = static_cast<std::size_t>(m.slot);
      done_scratch_.push_back(DoneFlow{m.id, flow_bytes_[si], remote,
                                       flow_latency_[si],
                                       std::move(flow_cb_[si])});
      release_flow_slot(m.slot);
      slot_of_.erase(m.id);
      ++stats_.flows_completed;
      --stats_.flows_in_flight;
      --active_flows_;
      leave_group(gi);
      if (group.size == 0) break;  // group recycled; its heap was cleared
    }
    if (group.size > 0) ++i;
  }
  // Completion callbacks fire in flow-id order — the determinism contract.
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [](const DoneFlow& a, const DoneFlow& b) { return a.id < b.id; });
  dirty_ = true;
  flush_if_dirty();
  for (DoneFlow& d : done_scratch_) {
    deliver(d.bytes, d.remote, d.latency, std::move(d.cb));
  }
}

// ---------------------------------------------------------------------------
// Reference (debug) engine — the original from-scratch implementation
// ---------------------------------------------------------------------------

FlowId Fabric::ref_transfer(FlowId id, cluster::NodeId src, cluster::NodeId dst,
                            std::vector<LinkId> path, util::Bytes bytes,
                            util::TimeNs latency, FlowCallback on_complete) {
  ref_settle_progress();
  RefFlow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.path = std::move(path);
  flow.remaining = static_cast<double>(bytes);
  flow.bytes = bytes;
  flow.latency = latency;
  flow.on_complete = std::move(on_complete);
  ref_flows_.emplace(id, std::move(flow));
  ++active_flows_;
  ref_recompute();
  return id;
}

bool Fabric::ref_cancel(FlowId id) {
  auto it = ref_flows_.find(id);
  if (it == ref_flows_.end()) return false;
  ref_settle_progress();
  ref_flows_.erase(it);
  ++stats_.flows_cancelled;
  --stats_.flows_in_flight;
  --active_flows_;
  ref_recompute();
  return true;
}

void Fabric::ref_settle_progress() {
  const util::TimeNs now = sim_.now();
  if (now == last_settle_) return;
  const double dt = util::to_seconds(now - last_settle_);
  last_settle_ = now;
  for (auto& [id, flow] : ref_flows_) {
    flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
  }
}

void Fabric::ref_solve_max_min() {
  ++stats_.rate_recomputations;
  const int link_count = topology_.link_count();
  std::vector<double> capacity = link_capacity_;
  std::vector<int> unfixed(static_cast<std::size_t>(link_count), 0);

  std::vector<RefFlow*> pending;
  pending.reserve(ref_flows_.size());
  for (auto& [id, flow] : ref_flows_) {
    if (flow.path.empty()) {
      flow.rate = topology_.config().loopback_bytes_per_s;
      continue;
    }
    flow.rate = -1.0;  // unfixed marker
    pending.push_back(&flow);
    for (LinkId l : flow.path) ++unfixed[static_cast<std::size_t>(l)];
  }

  std::size_t remaining = pending.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (int l = 0; l < link_count; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (unfixed[idx] == 0) continue;
      const double share = std::max(0.0, capacity[idx]) / unfixed[idx];
      best_share = std::min(best_share, share);
    }
    if (!std::isfinite(best_share)) {
      throw std::logic_error("max-min: unfixed flows but no loaded link");
    }
    bool fixed_any = false;
    for (RefFlow* flow : pending) {
      if (flow->rate >= 0) continue;
      bool at_bottleneck = false;
      for (LinkId l : flow->path) {
        const auto idx = static_cast<std::size_t>(l);
        const double share = std::max(0.0, capacity[idx]) / unfixed[idx];
        if (share <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      flow->rate = best_share;
      fixed_any = true;
      --remaining;
      for (LinkId l : flow->path) {
        const auto idx = static_cast<std::size_t>(l);
        capacity[idx] -= best_share;
        --unfixed[idx];
      }
    }
    if (!fixed_any) {
      throw std::logic_error("max-min: made no progress");
    }
  }
}

void Fabric::ref_recompute() {
  clear_pending_event();
  if (ref_flows_.empty()) return;
  ref_solve_max_min();
  double earliest_s = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : ref_flows_) {
    if (flow.rate <= 0) {
      throw std::logic_error("flow with zero rate would never complete");
    }
    earliest_s = std::min(earliest_s, flow.remaining / flow.rate);
  }
  schedule_completion(earliest_s);
}

void Fabric::ref_on_completion_event() {
  has_pending_event_ = false;
  ref_settle_progress();
  struct Done {
    util::Bytes bytes;
    bool remote;
    util::TimeNs latency;
    FlowCallback cb;
  };
  std::vector<Done> done;
  for (auto it = ref_flows_.begin(); it != ref_flows_.end();) {
    if (it->second.remaining <= kDrainEpsilon) {
      RefFlow& flow = it->second;
      done.push_back(Done{flow.bytes, !flow.path.empty(), flow.latency,
                          std::move(flow.on_complete)});
      it = ref_flows_.erase(it);
      ++stats_.flows_completed;
      --stats_.flows_in_flight;
      --active_flows_;
    } else {
      ++it;
    }
  }
  ref_recompute();
  for (Done& d : done) deliver(d.bytes, d.remote, d.latency, std::move(d.cb));
}

// ---------------------------------------------------------------------------
// Network partitions (shared by both engines)
// ---------------------------------------------------------------------------

bool Fabric::reachable(cluster::NodeId src, cluster::NodeId dst) const {
  if (!partitions_active_ || src == dst) return true;
  const int a = host_group_[static_cast<std::size_t>(src)];
  const int b = host_group_[static_cast<std::size_t>(dst)];
  return group_blocked_[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(b)] == 0;
}

void Fabric::set_reachability(std::vector<int> host_group,
                              std::vector<std::vector<char>> blocked) {
  if (static_cast<int>(host_group.size()) != topology_.host_count()) {
    throw std::invalid_argument("set_reachability: host_group size mismatch");
  }
  for (const auto& row : blocked) {
    if (row.size() != blocked.size()) {
      throw std::invalid_argument("set_reachability: blocked is not square");
    }
  }
  for (const int g : host_group) {
    if (g < 0 || static_cast<std::size_t>(g) >= blocked.size()) {
      throw std::invalid_argument("set_reachability: host class out of range");
    }
  }
  host_group_ = std::move(host_group);
  group_blocked_ = std::move(blocked);
  partitions_active_ = false;
  for (const auto& row : group_blocked_) {
    for (const char b : row) {
      if (b != 0) partitions_active_ = true;
    }
  }
  apply_reachability();
}

void Fabric::clear_partitions() {
  if (!partitions_active_ && parked_.empty()) return;
  partitions_active_ = false;
  host_group_.clear();
  group_blocked_.clear();
  apply_reachability();
}

void Fabric::apply_reachability() {
  // Settle at the pre-change rates first: parked flows keep exactly the
  // bytes they had drained up to this instant.
  if (config_.use_reference_solver) {
    ref_settle_progress();
    for (auto it = ref_flows_.begin(); it != ref_flows_.end();) {
      RefFlow& flow = it->second;
      if (reachable(flow.src, flow.dst)) {
        ++it;
        continue;
      }
      ++stats_.flows_parked;
      parked_.emplace(flow.id,
                      ParkedFlow{flow.src, flow.dst, flow.remaining, flow.bytes,
                                 flow.latency, std::move(flow.on_complete)});
      it = ref_flows_.erase(it);
      --active_flows_;
    }
  } else {
    settle_progress();
    for (std::size_t si = 0; si < flow_id_.size(); ++si) {
      const FlowId id = flow_id_[si];
      if (id == 0) continue;
      if (reachable(flow_src_[si], flow_dst_[si])) continue;
      const Group& group =
          groups_[static_cast<std::size_t>(flow_group_[si])];
      const double remaining =
          std::max(0.0, flow_finish_drain_[si] - group.drain_total);
      ++stats_.flows_parked;
      parked_.emplace(id, ParkedFlow{flow_src_[si], flow_dst_[si], remaining,
                                     flow_bytes_[si], flow_latency_[si],
                                     std::move(flow_cb_[si])});
      // The heap member left behind purges lazily (slot id mismatch).
      leave_group(flow_group_[si]);
      release_flow_slot(static_cast<int>(si));
      slot_of_.erase(id);
      --active_flows_;
    }
  }
  // Resume every parked flow whose pair is reachable again, in flow-id
  // order (the determinism contract for post-heal re-entry).
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (!reachable(it->second.src, it->second.dst)) {
      ++it;
      continue;
    }
    const FlowId id = it->first;
    ParkedFlow p = std::move(it->second);
    it = parked_.erase(it);
    ++stats_.flows_resumed;
    resume_flow(id, std::move(p));
  }
  if (config_.use_reference_solver) {
    ref_recompute();
  } else {
    mark_dirty();
  }
}

void Fabric::resume_flow(FlowId id, ParkedFlow p) {
  const bool remote = p.src != p.dst;
  if (p.remaining <= kDrainEpsilon) {
    // Everything had drained before the park (or the transfer was
    // zero-byte): only the propagation latency is still owed.
    ++stats_.flows_completed;
    --stats_.flows_in_flight;
    deliver(p.bytes, remote, p.latency, std::move(p.cb));
    return;
  }
  if (config_.use_reference_solver) {
    RefFlow flow;
    flow.id = id;
    flow.src = p.src;
    flow.dst = p.dst;
    flow.path = topology_.path(p.src, p.dst);
    flow.remaining = p.remaining;
    flow.bytes = p.bytes;
    flow.latency = p.latency;
    flow.on_complete = std::move(p.cb);
    ref_flows_.emplace(id, std::move(flow));
    ++active_flows_;
    return;
  }
  enter_flow(id, p.src, p.dst, p.bytes, p.remaining, p.latency,
             std::move(p.cb));
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void Fabric::end_flow_span(FlowId id) {
  if (!tracer_) return;
  const auto it = span_of_.find(id);
  if (it == span_of_.end()) return;
  tracer_->end(it->second);
  span_of_.erase(it);
}

void Fabric::deliver(util::Bytes bytes, bool remote, util::TimeNs latency,
                     FlowCallback cb) {
  stats_.bytes_delivered += bytes;
  if (remote) stats_.bytes_remote += bytes;
  sim_.after(latency, std::move(cb));
}

void Fabric::schedule_completion(double earliest_s) {
  const auto delay = static_cast<util::TimeNs>(std::ceil(earliest_s * 1e9));
  pending_event_ = sim_.after(std::max<util::TimeNs>(delay, 0), [this] {
    if (config_.use_reference_solver) {
      ref_on_completion_event();
    } else {
      on_completion_event();
    }
  });
  has_pending_event_ = true;
}

void Fabric::clear_pending_event() {
  if (!has_pending_event_) return;
  sim_.cancel(pending_event_);
  has_pending_event_ = false;
}

}  // namespace evolve::net
