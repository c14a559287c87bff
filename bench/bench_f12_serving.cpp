// F12 — Request serving: batching, load balancing, shedding, autoscaling.
//
// Four scenarios drive the request-serving subsystem end to end
// (open-loop Poisson arrivals -> admission -> router -> fabric ->
// bounded replica queue -> dynamic batch -> response), each as an
// on/off comparison so every mechanism's contribution is measurable:
//
//   steady     4 replicas at 600 req/s, where per-batch setup dominates
//              per-request cost. Dynamic batching on (max 8) vs off
//              (batch=1): amortizing setup is the difference between
//              keeping up and collapsing.
//   slow       6 replicas, one on a 4x gray-slowed node, at ~60% load.
//              Round-robin keeps feeding the straggler; power-of-two-
//              choices reads its outstanding depth and routes around
//              it; hedging additionally rescues the requests already
//              stuck there.
//   spike      3 replicas, a 6x arrival spike for 4 s. CoDel-style
//              admission shedding on vs off: shedding rejects the
//              overflow at the front door and keeps the *admitted* p99
//              inside the SLO; without it every queue fills and the
//              tail blows through the SLO before queue-full sheds kick
//              in anyway.
//   autoscale  2..12 replicas under a 20 s surge, scaled by the
//              latency-aware ScalingSignal (windowed arrival rate
//              inflated by p99 queue-delay pressure, plus an in-flight
//              backlog floor) driving the HorizontalAutoscaler.
//
// `--json` writes BENCH_f12_serving.json (fully simulation-
// deterministic); `--trace` additionally writes TRACE_f12_serving.json
// with serve.request / serve.queue / serve.batch / serve.exec /
// serve.hedge spans and must not change any metric.
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "orch/autoscaler.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

struct RunResult {
  std::int64_t arrived = 0;
  std::int64_t completed = 0;
  std::int64_t shed_admission = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t slo_violations = 0;
  std::int64_t goodput = 0;  // completed within SLO
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double mean_batch = 0;  // batch occupancy
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t hedges_cancelled = 0;
  std::int64_t wasted_exec = 0;
  std::int64_t rerouted = 0;
  std::int64_t flows_leaked = 0;
  // autoscale only
  int peak_replicas = 0;
  int final_replicas = 0;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
};

void snapshot(const serve::Service& svc, RunResult* out) {
  const metrics::Registry& m = svc.metrics();
  out->arrived = m.counter("serve.requests");
  out->completed = m.counter("serve.completed");
  out->shed_admission = m.counter("serve.shed_admission");
  out->shed_queue_full = m.counter("serve.shed_queue_full");
  out->slo_violations = m.counter("serve.slo_violations");
  out->goodput = out->completed - out->slo_violations;
  if (m.has_histogram("serve.latency_us")) {
    const auto& h = m.histogram("serve.latency_us");
    out->p50_ms = static_cast<double>(h.p50()) / 1e3;
    out->p99_ms = static_cast<double>(h.p99()) / 1e3;
    out->p999_ms = static_cast<double>(h.p999()) / 1e3;
  }
  if (m.has_histogram("serve.batch_size")) {
    out->mean_batch = m.histogram("serve.batch_size").mean();
  }
  out->hedges = svc.hedges_launched();
  out->hedge_wins = svc.hedge_wins();
  out->hedges_cancelled = svc.hedges_cancelled();
  out->wasted_exec = svc.wasted_exec();
  out->rerouted = svc.rerouted();
}

// -- Scenario A: steady state, batching on/off ------------------------

RunResult run_steady(bool batching, const bench::TraceSlot& slot) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";  // one replica per node
  orch::DeploymentController deploy(orch, "api", pod, 4);

  // Setup-heavy classes: 6 ms per batch, 1.5 ms per request. batch=1
  // gives 7.5 ms/request (133 req/s/replica, 533 aggregate — short of
  // the 600 req/s offered); batch=8 amortizes to 2.25 ms (444
  // req/s/replica).
  std::vector<serve::RequestClass> classes(2);
  classes[0].name = "rank";
  classes[0].tenant = "alpha";
  classes[1].name = "embed";
  classes[1].tenant = "beta";
  for (auto& klass : classes) {
    klass.compute_cost = util::millis(1.5);
    klass.batch_setup = util::millis(6);
    klass.slo = util::millis(100);
  }

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = batching ? 8 : 1;
  config.replica.batch.max_linger = util::millis(1);
  serve::Service service(sim, fabric, deploy, classes, config);

  const bench::ScopedTracer tracer(slot, sim);
  fabric.set_tracer(tracer.get());
  service.set_tracer(tracer.get());

  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(10), 600.0}};
  gen.class_weights = {0.7, 0.3};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(10);
  gen.seed = 0xf12a;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  RunResult result;
  snapshot(service, &result);
  result.flows_leaked = fabric.stats().flows_in_flight;
  return result;
}

// -- Scenario B: slow replica, routing policy + hedging ---------------

RunResult run_slow_replica(serve::BalancePolicy policy, bool hedging,
                           const bench::TraceSlot& slot) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(6, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 6);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = policy;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = hedging;
  serve::Service service(sim, fabric, deploy, classes, config);

  // One replica's node runs 4x slower from 1 s on: 16 ms per singleton
  // batch against a 6.7 ms per-replica arrival budget.
  const auto compute = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(compute[0], /*cpu=*/4.0, /*accel=*/1.0,
                          util::seconds(1), util::seconds(60));

  const bench::ScopedTracer tracer(slot, sim);
  fabric.set_tracer(tracer.get());
  service.set_tracer(tracer.get());
  gray.set_tracer(tracer.get());

  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(10), 900.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(10);
  gen.seed = 0xf12b;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  RunResult result;
  snapshot(service, &result);
  result.flows_leaked = fabric.stats().flows_in_flight;
  return result;
}

// -- Scenario C: arrival spike, admission shedding on/off -------------

RunResult run_spike(bool shedding) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(3, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 3);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(1.5);
  classes[0].batch_setup = util::millis(6);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 128;
  config.replica.batch.max_batch = 8;
  config.replica.batch.max_linger = util::millis(1);
  config.admission.enabled = shedding;
  // Queueing may eat 15 ms of the 100 ms SLO; a 15 ms confirmation
  // interval engages the ramp before the bounded queues can build a
  // standing backlog that would itself blow the budget.
  config.admission.target = util::millis(15);
  config.admission.interval = util::millis(15);
  serve::Service service(sim, fabric, deploy, classes, config);

  // 300 req/s baseline, 1800 req/s spike for 4 s against ~1333 req/s of
  // fully-batched capacity, then recovery.
  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(4), 300.0},
                {util::seconds(8), 1800.0},
                {util::seconds(16), 300.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(16);
  gen.seed = 0xf12c;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  RunResult result;
  snapshot(service, &result);
  result.flows_leaked = fabric.stats().flows_in_flight;
  return result;
}

// -- Scenario D: latency-aware autoscaling ----------------------------

RunResult run_autoscale() {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(12, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 2);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 128;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  // Brownout while capacity catches up: shed at the front door during
  // the minute it takes the autoscaler to observe, scale, and start
  // pods, instead of letting every queue saturate.
  config.admission.enabled = true;
  config.admission.target = util::millis(20);
  config.admission.interval = util::millis(20);
  serve::Service service(sim, fabric, deploy, classes, config);

  serve::ScalingSignalConfig sconfig;
  sconfig.window = util::seconds(5);
  sconfig.delay_target = util::millis(20);
  sconfig.capacity_per_replica = 400.0;  // full-batch replica throughput
  sconfig.target_inflight_per_replica = 16.0;
  serve::ScalingSignal signal(sim, sconfig);
  service.attach_signal(&signal);

  orch::AutoscalerConfig aconfig;
  aconfig.capacity_per_replica = 400.0;
  aconfig.target_utilization = 0.7;
  aconfig.min_replicas = 2;
  aconfig.max_replicas = 12;
  aconfig.interval = util::seconds(2);
  aconfig.scale_down_window = util::seconds(20);
  orch::HorizontalAutoscaler hpa(
      sim, deploy, [&signal] { return signal.load(); }, aconfig);
  hpa.start();

  // 300 req/s cruise, a 2000 req/s surge from 20 s to 40 s (needs ~8
  // replicas at 70% target utilization), then cruise again so the
  // stabilization window can walk the fleet back down.
  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(20), 300.0},
                {util::seconds(40), 2000.0},
                {util::seconds(70), 300.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(70);
  gen.seed = 0xf12d;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  int peak = deploy.desired();
  for (util::TimeNs t = 0; t < util::seconds(70); t += util::seconds(1)) {
    sim.at(t, [&deploy, &peak] { peak = std::max(peak, deploy.desired()); });
  }

  sim.run_until(util::seconds(71));
  hpa.stop();
  sim.run();

  RunResult result;
  snapshot(service, &result);
  result.flows_leaked = fabric.stats().flows_in_flight;
  result.peak_replicas = peak;
  result.final_replicas = deploy.desired();
  result.scale_ups = hpa.scale_ups();
  result.scale_downs = hpa.scale_downs();
  return result;
}

std::string ms(double v) { return util::fixed(v, 1) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f12_serving", bench::kJson | bench::kTrace, argc,
                         argv);
  const RunResult batch_on =
      run_steady(true, harness.trace("f12/steady-batching"));
  const RunResult batch_off = run_steady(false, {});
  const RunResult slow_rr =
      run_slow_replica(serve::BalancePolicy::kRoundRobin, false, {});
  const RunResult slow_p2c =
      run_slow_replica(serve::BalancePolicy::kPowerOfTwo, false, {});
  const RunResult slow_p2c_hedge =
      run_slow_replica(serve::BalancePolicy::kPowerOfTwo, true,
                       harness.trace("f12/slow-replica"));
  const RunResult spike_shed = run_spike(true);
  const RunResult spike_noshed = run_spike(false);
  const RunResult autoscaled = run_autoscale();

  core::Table steady("F12a: 600 req/s on 4 replicas — dynamic batching",
                     {"batching", "completed", "goodput", "shed", "p50",
                      "p99", "mean batch"});
  auto steady_row = [&](const std::string& name, const RunResult& r) {
    steady.add_row({name, std::to_string(r.completed),
                    std::to_string(r.goodput),
                    std::to_string(r.shed_admission + r.shed_queue_full),
                    ms(r.p50_ms), ms(r.p99_ms), util::fixed(r.mean_batch, 2)});
  };
  steady_row("on (max 8)", batch_on);
  steady_row("off (batch=1)", batch_off);
  steady.print();

  core::Table slow("F12b: one 4x-slow replica of 6 — routing + hedging",
                   {"policy", "goodput", "shed", "p50", "p99", "p99.9",
                    "hedges", "wins"});
  auto slow_row = [&](const std::string& name, const RunResult& r) {
    slow.add_row({name, std::to_string(r.goodput),
                  std::to_string(r.shed_admission + r.shed_queue_full),
                  ms(r.p50_ms), ms(r.p99_ms), ms(r.p999_ms),
                  std::to_string(r.hedges), std::to_string(r.hedge_wins)});
  };
  slow_row("round-robin", slow_rr);
  slow_row("p2c", slow_p2c);
  slow_row("p2c + hedge", slow_p2c_hedge);
  std::cout << "\n";
  slow.print();

  core::Table spike("F12c: 6x arrival spike — CoDel admission shedding",
                    {"shedding", "completed", "goodput", "shed adm",
                     "shed full", "slo viol", "p99"});
  auto spike_row = [&](const std::string& name, const RunResult& r) {
    spike.add_row({name, std::to_string(r.completed),
                   std::to_string(r.goodput),
                   std::to_string(r.shed_admission),
                   std::to_string(r.shed_queue_full),
                   std::to_string(r.slo_violations), ms(r.p99_ms)});
  };
  spike_row("on", spike_shed);
  spike_row("off", spike_noshed);
  std::cout << "\n";
  spike.print();

  core::Table auto_t("F12d: 20 s surge — latency-aware autoscaling",
                     {"replicas", "peak", "final", "ups", "downs", "goodput",
                      "p99", "shed"});
  auto_t.add_row({"2..12", std::to_string(autoscaled.peak_replicas),
                  std::to_string(autoscaled.final_replicas),
                  std::to_string(autoscaled.scale_ups),
                  std::to_string(autoscaled.scale_downs),
                  std::to_string(autoscaled.goodput), ms(autoscaled.p99_ms),
                  std::to_string(autoscaled.shed_admission +
                                 autoscaled.shed_queue_full)});
  std::cout << "\n";
  auto_t.print();

  std::cout << "\nShape check: batching lifts goodput " << batch_off.goodput
            << " -> " << batch_on.goodput << ", p2c cuts slow-replica p99 "
            << ms(slow_rr.p99_ms) << " -> " << ms(slow_p2c.p99_ms)
            << " (hedged " << ms(slow_p2c_hedge.p99_ms)
            << "), shedding holds the spike's admitted p99 at "
            << ms(spike_shed.p99_ms) << " (vs " << ms(spike_noshed.p99_ms)
            << "), and the autoscaler rides the surge to "
            << autoscaled.peak_replicas << " replicas and back to "
            << autoscaled.final_replicas << ".\n";

  core::MetricsReport& report = harness.report();
  auto emit = [&](const std::string& p, const RunResult& r) {
    report.set(p + "_arrived", r.arrived);
    report.set(p + "_completed", r.completed);
    report.set(p + "_goodput", r.goodput);
    report.set(p + "_shed_admission", r.shed_admission);
    report.set(p + "_shed_queue_full", r.shed_queue_full);
    report.set(p + "_slo_violations", r.slo_violations);
    report.set(p + "_p50_ms", r.p50_ms);
    report.set(p + "_p99_ms", r.p99_ms);
    report.set(p + "_p999_ms", r.p999_ms);
    report.set(p + "_mean_batch", r.mean_batch);
    report.set(p + "_hedges", r.hedges);
    report.set(p + "_hedge_wins", r.hedge_wins);
    report.set(p + "_hedges_cancelled", r.hedges_cancelled);
    report.set(p + "_wasted_exec", r.wasted_exec);
    report.set(p + "_rerouted", r.rerouted);
    report.set(p + "_flows_leaked", r.flows_leaked);
  };
  emit("steady_batch_on", batch_on);
  emit("steady_batch_off", batch_off);
  emit("slow_rr", slow_rr);
  emit("slow_p2c", slow_p2c);
  emit("slow_p2c_hedge", slow_p2c_hedge);
  emit("spike_shed_on", spike_shed);
  emit("spike_shed_off", spike_noshed);
  emit("autoscale", autoscaled);
  report.set("autoscale_peak_replicas", autoscaled.peak_replicas);
  report.set("autoscale_final_replicas", autoscaled.final_replicas);
  report.set("autoscale_scale_ups", autoscaled.scale_ups);
  report.set("autoscale_scale_downs", autoscaled.scale_downs);
  return harness.finish();
}
