// F16 — Network partitions and metastability defenses.
//
// One serving scenario, run twice: 8 round-robin replicas at
// 1800 req/s, three replica nodes cut off by a network partition from
// t=30 s to t=60 s. The fabric *parks* flows crossing the cut (a
// partition stalls traffic, it does not fail it), so an undefended
// router keeps feeding the black holes for the partition's whole
// duration: every swallowed request hedges onto the survivors
// (unbounded duplication), and the heal dumps thirty seconds of parked
// work onto three cold replicas at once — queue-full sheds, wasted
// exec, and a visible post-heal goodput dip: the heal-storm.
//
//   off  no leases, no retry budget, no ramp. ~27k flows park over the
//        partition; goodput stays degraded until well past the heal.
//   on   lease-based liveness (orch::LeaseManager) marks the expired
//        nodes Unreachable within the lease TTL and drains them from
//        the router, ending the leak ~2 s into the partition; a shared
//        util::RetryBudget caps the hedge storm; the post-heal
//        admission ramp re-admits the reconnected replicas gradually
//        instead of all at once.
//
// The run reports goodput (completions within SLO) and p99 in four
// windows — pre [0,30), during [30,60), recover [60,70), settled
// [70,90) — the recovery ratio recover/pre, and degraded-seconds (how
// many 1 s buckets after partition onset sat below 90% of the
// pre-partition goodput rate). The check.sh gate asserts defenses-on
// recovers to >= 90% of pre-partition goodput in the recovery window,
// beats defenses-off, and is degraded for only a few seconds while
// defenses-off is degraded for 10+.
//
// `--json` writes BENCH_f16_partitions.json (fully simulation-
// deterministic).
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "sim/simulation.hpp"
#include "util/retry_budget.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr util::TimeNs kPartitionAt = util::seconds(30);
constexpr util::TimeNs kHealAt = util::seconds(60);
constexpr util::TimeNs kRecoverUntil = util::seconds(70);
constexpr util::TimeNs kHorizon = util::seconds(90);

struct WindowStats {
  double span_s = 1.0;
  std::int64_t completed = 0;
  std::int64_t goodput = 0;  // completed within SLO
  std::vector<double> latencies_ms{};

  double goodput_rate() const { return static_cast<double>(goodput) / span_s; }

  double p99_ms() { return bench::exact_p99(latencies_ms); }
};

struct RunResult {
  WindowStats pre, during, recover, settled;
  double recovery_ratio = 0;  // recovery-window goodput rate / pre rate
  // 1-second goodput buckets; degraded = below 90% of the pre-window
  // rate. With defenses the lease drain ends the degradation a TTL or so
  // into the partition; without them it lasts until the heal.
  std::vector<std::int64_t> per_second;
  std::int64_t degraded_seconds = 0;
  std::int64_t arrived = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t hedges = 0;
  std::int64_t hedges_suppressed = 0;
  std::int64_t wasted_exec = 0;
  std::int64_t expiries = 0;
  std::int64_t reconnects = 0;
  std::int64_t evictions = 0;
  std::int64_t flows_parked = 0;
  std::int64_t flows_leaked = 0;
};

RunResult run(bool defenses) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 2, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";  // one replica per compute node
  orch::DeploymentController deploy(orch, "api", pod, 8);

  // ~400 req/s per fully-batched replica; 1800 req/s offered leaves the
  // five partition survivors at ~90% load — enough headroom to serve
  // every request, none to absorb an unbounded hedge storm.
  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  // Round-robin is the undefended baseline: nothing in the data path
  // reads queue depth, so routing around the partition is entirely the
  // lease layer's job (p2c's outstanding-count feedback would itself be
  // a partial defense and blur the comparison).
  config.policy = serve::BalancePolicy::kRoundRobin;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = true;
  serve::Service service(sim, fabric, deploy, classes, config);

  // Three non-leader replica nodes lose the network for 30 s.
  fault::PartitionInjector partitions(sim, fabric);
  fault::PartitionId cut = 0;
  sim.at(kPartitionAt, [&] { cut = partitions.isolate({1, 3, 5}); });
  sim.at(kHealAt, [&] { partitions.heal(cut); });

  orch::LeaseManagerConfig lease_config;
  // Grace exceeds the partition: pods are fenced, never massacred.
  lease_config.grace = util::seconds(120);
  orch::LeaseManager leases(sim, fabric, orch, lease_config);
  util::RetryBudget budget;
  if (defenses) {
    fault::connect(leases, service, /*ramp_window=*/util::seconds(5));
    service.set_retry_budget(&budget);
    leases.start();
    sim.at(kHorizon + util::seconds(5), [&leases] { leases.stop(); });
  }

  WindowStats pre{30.0}, during{30.0}, recover{10.0}, settled{20.0};
  std::vector<std::int64_t> per_second(
      static_cast<std::size_t>(kHorizon / util::kSecond) + 5, 0);
  service.set_completion_observer(
      [&](const serve::Request&, const serve::RequestClass&,
          util::TimeNs latency, bool slo_ok) {
        WindowStats* w = sim.now() < kPartitionAt    ? &pre
                         : sim.now() < kHealAt       ? &during
                         : sim.now() < kRecoverUntil ? &recover
                                                     : &settled;
        w->completed += 1;
        if (slo_ok) {
          w->goodput += 1;
          const auto bucket = static_cast<std::size_t>(sim.now() / util::kSecond);
          if (bucket < per_second.size()) per_second[bucket] += 1;
        }
        w->latencies_ms.push_back(util::to_millis(latency));
      });

  serve::GeneratorConfig gen;
  gen.phases = {{kHorizon, 1800.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = 0xf16a;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  RunResult result;
  result.pre = std::move(pre);
  result.during = std::move(during);
  result.recover = std::move(recover);
  result.settled = std::move(settled);
  result.recovery_ratio =
      result.pre.goodput > 0
          ? result.recover.goodput_rate() / result.pre.goodput_rate()
          : 0.0;
  const metrics::Registry& m = service.metrics();
  result.arrived = m.counter("serve.requests");
  result.completed = m.counter("serve.completed");
  result.shed =
      m.counter("serve.shed_admission") + m.counter("serve.shed_queue_full");
  result.hedges = service.hedges_launched();
  result.hedges_suppressed = service.hedges_suppressed();
  result.wasted_exec = service.wasted_exec();
  if (defenses) {
    result.expiries = leases.expiries();
    result.reconnects = leases.reconnects();
    result.evictions = leases.evictions();
  }
  result.flows_parked = fabric.stats().flows_parked;
  result.flows_leaked = fabric.stats().flows_in_flight;
  result.per_second = std::move(per_second);
  const double threshold = 0.9 * result.pre.goodput_rate();
  for (std::size_t sec = static_cast<std::size_t>(kPartitionAt / util::kSecond);
       sec < static_cast<std::size_t>(kHorizon / util::kSecond); ++sec) {
    if (static_cast<double>(result.per_second[sec]) < threshold) {
      result.degraded_seconds += 1;
    }
  }
  return result;
}

std::string rate(const WindowStats& w) {
  return util::fixed(w.goodput_rate(), 0) + "/s";
}
std::string ms(double v) { return util::fixed(v, 1) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f16_partitions", bench::kJson, argc, argv);
  core::MetricsReport& report = harness.report();
  RunResult off = run(false);
  RunResult on = run(true);

  core::Table table(
      "F16: 30 s partition of 3/8 replicas — defenses off vs on",
      {"defenses", "pre good", "during good", "recover good", "settled good",
       "recovery", "degraded s", "during p99", "recover p99", "hedges",
       "suppressed"});
  auto row = [&](const std::string& name, RunResult& r) {
    table.add_row({name, rate(r.pre), rate(r.during), rate(r.recover),
                   rate(r.settled), util::fixed(r.recovery_ratio, 3),
                   std::to_string(r.degraded_seconds),
                   ms(r.during.p99_ms()), ms(r.recover.p99_ms()),
                   std::to_string(r.hedges),
                   std::to_string(r.hedges_suppressed)});
  };
  row("off", off);
  row("on", on);
  table.print();

  std::cout << "\nShape check: defenses lift the during-partition goodput "
            << rate(off.during) << " -> " << rate(on.during)
            << " and the 10 s post-heal recovery ratio "
            << util::fixed(off.recovery_ratio, 3) << " -> "
            << util::fixed(on.recovery_ratio, 3) << " (leases expired "
            << on.expiries << ", reconnected " << on.reconnects
            << ", evicted " << on.evictions << ", hedges suppressed "
            << on.hedges_suppressed << ").\n";

  auto emit = [&](const std::string& p, RunResult& r) {
    report.set(p + "_arrived", r.arrived);
    report.set(p + "_completed", r.completed);
    report.set(p + "_shed", r.shed);
    report.set(p + "_pre_goodput", r.pre.goodput);
    report.set(p + "_during_goodput", r.during.goodput);
    report.set(p + "_recover_goodput", r.recover.goodput);
    report.set(p + "_settled_goodput", r.settled.goodput);
    report.set(p + "_recovery_ratio", r.recovery_ratio);
    report.set(p + "_degraded_seconds", r.degraded_seconds);
    report.set(p + "_pre_p99_ms", r.pre.p99_ms());
    report.set(p + "_during_p99_ms", r.during.p99_ms());
    report.set(p + "_recover_p99_ms", r.recover.p99_ms());
    report.set(p + "_settled_p99_ms", r.settled.p99_ms());
    report.set(p + "_hedges", r.hedges);
    report.set(p + "_hedges_suppressed", r.hedges_suppressed);
    report.set(p + "_wasted_exec", r.wasted_exec);
    report.set(p + "_expiries", r.expiries);
    report.set(p + "_reconnects", r.reconnects);
    report.set(p + "_evictions", r.evictions);
    report.set(p + "_flows_parked", r.flows_parked);
    report.set(p + "_flows_leaked", r.flows_leaked);
  };
  emit("off", off);
  emit("on", on);

  return harness.finish();
}
