// F7 — Elasticity: a diurnal load curve served by (a) peak-provisioned,
// (b) mean-provisioned, and (c) autoscaled deployments. Reports replica
// usage and the time spent under-provisioned (SLO-risk proxy).
// `--json` writes BENCH_f7_autoscale.json (fully deterministic).
#include <cmath>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "harness.hpp"
#include "metrics/timeseries.hpp"
#include "orch/autoscaler.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

// Two-hour sinusoidal "day": load between 50 and 950 req/s.
double diurnal_load(util::TimeNs now) {
  const double t = util::to_seconds(now);
  const double period = 7200.0;
  return 500.0 + 450.0 * std::sin(2 * M_PI * t / period - M_PI / 2);
}

struct Outcome {
  double mean_replicas = 0;
  double peak_replicas = 0;
  double under_provisioned_pct = 0;  // time with capacity < load
  std::int64_t scale_events = 0;
};

Outcome run_strategy(const std::string& mode) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  const double per_replica = 100.0;  // req/s each

  int fixed = 0;
  if (mode == "peak") fixed = 10;
  if (mode == "mean") fixed = 5;
  orch::DeploymentController deploy(orch, "api", pod,
                                    fixed > 0 ? fixed : 1);
  orch::AutoscalerConfig config;
  config.capacity_per_replica = per_replica;
  config.target_utilization = 1.0;
  config.min_replicas = 1;
  config.max_replicas = 10;
  config.interval = util::seconds(30);
  config.scale_down_window = util::seconds(120);
  orch::HorizontalAutoscaler hpa(
      sim, deploy, [&sim] { return diurnal_load(sim.now()); }, config);
  if (mode == "autoscaled") hpa.start();

  metrics::TimeSeries replicas;
  metrics::TimeSeries shortfall;  // 1 when capacity < load
  const util::TimeNs horizon = util::seconds(7200);
  for (util::TimeNs t = 0; t < horizon; t += util::seconds(10)) {
    sim.at(t, [&, t] {
      const double capacity = deploy.desired() * per_replica;
      replicas.record(t, deploy.desired());
      shortfall.record(t, capacity < diurnal_load(t) ? 1.0 : 0.0);
    });
  }
  sim.run_until(horizon);
  hpa.stop();
  sim.run();

  Outcome out;
  out.mean_replicas = replicas.time_weighted_mean(horizon);
  out.peak_replicas = replicas.max();
  out.under_provisioned_pct = 100.0 * shortfall.time_weighted_mean(horizon);
  out.scale_events = hpa.scale_ups() + hpa.scale_downs();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f7_autoscale", bench::kJson, argc, argv);
  core::MetricsReport& report = harness.report();
  core::Table table("F7: diurnal load (50..950 req/s over 2 h simulated)",
                    {"strategy", "mean replicas", "peak", "under-prov time",
                     "scale events"});
  for (const std::string mode : {"peak", "mean", "autoscaled"}) {
    const auto out = run_strategy(mode);
    table.add_row({mode + (mode == "peak"   ? " (fixed 10)"
                           : mode == "mean" ? " (fixed 5)"
                                            : ""),
                   util::fixed(out.mean_replicas, 2),
                   util::fixed(out.peak_replicas, 0),
                   util::fixed(out.under_provisioned_pct, 1) + "%",
                   std::to_string(out.scale_events)});
    report.set(mode + "_mean_replicas", out.mean_replicas);
    report.set(mode + "_peak_replicas", out.peak_replicas);
    report.set(mode + "_under_provisioned_pct", out.under_provisioned_pct);
    report.set(mode + "_scale_events", out.scale_events);
  }
  table.print();
  std::cout << "\nShape check: peak provisioning never under-provisions but "
               "wastes ~2x\nreplicas; mean provisioning starves half the "
               "day; the autoscaler tracks the\ncurve with near-peak "
               "protection at near-mean cost.\n";
  return harness.finish();
}
