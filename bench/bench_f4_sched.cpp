// F4 — Unified vs siloed scheduling: the same mixed trace (cloud
// services + batch analytics + HPC gangs) on one unified orchestrator vs
// three static partitions; utilization, waits, makespan; load sweep.
#include <iostream>

#include "core/report.hpp"
#include "core/unified_scheduler.hpp"
#include "harness.hpp"
#include "util/strings.hpp"
#include "workloads/trace.hpp"

using namespace evolve;

namespace {

core::PlatformConfig sched_config() {
  core::PlatformConfig config;
  config.compute_nodes = 12;
  config.storage_nodes = 4;
  config.accel_nodes = 0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f4_sched", 0, argc, argv);  // takes no flags
  core::Table table("F4: mixed trace, unified vs 3 static silos (12 nodes)",
                    {"load (jobs/s)", "deployment", "cpu util", "mean wait",
                     "p95 wait", "makespan"});
  for (double rate : {0.5, 1.5, 3.0}) {
    workloads::TraceParams params;
    params.jobs = 120;
    params.arrivals_per_second = rate;
    params.batch_median_s = 15.0;
    params.service_median_s = 30.0;
    params.gang_median_s = 25.0;
    params.max_gang_width = 6;

    util::Rng rng(1234);
    const auto trace = workloads::make_mixed_trace(rng, params);

    core::ScheduleOutcome unified, siloed;
    {
      sim::Simulation sim;
      core::Platform platform(sim, sched_config());
      unified = core::run_trace_unified(sim, platform.orchestrator(), trace);
    }
    {
      sim::Simulation sim;
      core::SiloedPlatform silos(sim, sched_config());
      siloed = core::run_trace_siloed(sim, silos, trace);
    }
    for (const auto& [name, outcome] :
         {std::pair{"unified", unified}, std::pair{"siloed", siloed}}) {
      table.add_row({util::fixed(rate, 1), name,
                     util::fixed(outcome.cpu_utilization * 100, 1) + "%",
                     util::human_time(outcome.mean_wait),
                     util::human_time(outcome.p95_wait),
                     util::human_time(outcome.makespan)});
    }
  }
  table.print();
  std::cout << "\nShape check: identical at low load; under pressure the "
               "unified\nscheduler borrows idle capacity across worlds -> "
               "lower waits and makespan,\nhigher effective utilization.\n";
  return 0;
}
