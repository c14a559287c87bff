// A1 — Ablation: delay scheduling. Sweep the locality wait and measure
// source-task locality and job runtime on a loaded converged cluster.
#include <iostream>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "util/strings.hpp"
#include "workloads/tabular.hpp"

using namespace evolve;

int main(int argc, char** argv) {
  bench::Harness harness("a1_delay", 0, argc, argv);  // takes no flags
  core::Table table("A1: delay scheduling ablation (executors on data nodes)",
                    {"locality wait", "local source tasks", "job time"});
  for (util::TimeNs wait :
       {util::TimeNs{0}, util::millis(100), util::millis(500),
        util::seconds(3)}) {
    core::PlatformConfig config;
    config.compute_nodes = 4;
    config.storage_nodes = 4;
    config.accel_nodes = 0;
    config.dataflow.locality_wait = wait;
    sim::Simulation sim;
    core::Platform platform(sim, config);
    core::Session session(platform);
    session.create_dataset("events", 32, util::kGiB, /*warm_cache=*/true);

    // Busy executors: occupy slots so local placement requires waiting.
    // Two concurrent jobs over the same dataset contend for the
    // data-holding executors.
    dataflow::JobStats first, second;
    int done = 0;
    platform.run_dataflow(
        workloads::scan_filter_aggregate("events", "out-a", 8), 4, 2,
        [&](const dataflow::JobStats& s) {
          first = s;
          ++done;
        });
    platform.run_dataflow(
        workloads::scan_filter_aggregate("events", "out-b", 8), 4, 2,
        [&](const dataflow::JobStats& s) {
          second = s;
          ++done;
        });
    sim.run();
    const int local = first.stages[0].local_tasks +
                      second.stages[0].local_tasks;
    const int total = first.stages[0].tasks + second.stages[0].tasks;
    const util::TimeNs slower = std::max(first.duration, second.duration);
    table.add_row({util::human_time(wait),
                   std::to_string(local) + "/" + std::to_string(total),
                   util::human_time(slower)});
  }
  table.print();
  std::cout << "\nShape check: a short wait buys most of the locality; past "
               "the knee,\nlonger waits add idle time without more hits "
               "(classic delay-scheduling curve).\n";
  return 0;
}
