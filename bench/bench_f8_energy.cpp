// F8 — Energy: (a) energy-to-completion of the mobility pipeline,
// converged vs siloed (same hardware; shorter makespan = fewer idle
// joules), and (b) per-kernel FPGA energy-efficiency factors (the
// EUROSERVER/NanoStreams-style headline numbers).
#include <iostream>

#include "accel/kernels.hpp"
#include "core/energy.hpp"
#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/siloed.hpp"
#include "harness.hpp"
#include "util/strings.hpp"
#include "workloads/mobility.hpp"

using namespace evolve;

int main(int argc, char** argv) {
  bench::Harness harness("f8_energy", 0, argc, argv);  // takes no flags
  const core::PowerModel model;

  {
    core::Table table(
        "F8a: energy to complete the mobility pipeline (14 nodes)",
        {"deployment", "makespan", "mean active cores", "energy",
         "vs converged"});
    workloads::MobilityScenario scenario;
    scenario.trace_bytes = 2 * util::kGiB;

    double converged_joules = 0;
    for (const std::string mode : {"converged", "siloed"}) {
      sim::Simulation sim;
      util::TimeNs makespan = 0;
      double mean_millicores = 0;
      int nodes = 0;
      if (mode == "converged") {
        core::Platform platform(sim);
        workloads::stage_mobility_inputs(platform.catalog(), scenario);
        platform.run_workflow(workloads::mobility_pipeline(scenario),
                              [&](const workflow::WorkflowResult& r) {
                                makespan = r.duration;
                              });
        sim.run();
        mean_millicores = platform.orchestrator().mean_cpu_millicores();
        nodes = platform.cluster().size();
      } else {
        core::SiloedPlatform silos(sim);
        workloads::stage_mobility_inputs(silos.bigdata_catalog(), scenario);
        silos.run_workflow(workloads::mobility_pipeline(scenario),
                           [&](const workflow::WorkflowResult& r) {
                             makespan = r.duration;
                           });
        sim.run();
        for (core::Silo silo : {core::Silo::kCloud, core::Silo::kBigData,
                                core::Silo::kHpc}) {
          mean_millicores += silos.orchestrator(silo).mean_cpu_millicores();
        }
        nodes = silos.cluster().size();
      }
      const auto report =
          core::estimate_energy(model, nodes, makespan, mean_millicores);
      if (mode == "converged") converged_joules = report.total_joules();
      table.add_row(
          {mode, util::human_time(makespan),
           util::fixed(mean_millicores / 1000.0, 1),
           util::fixed(report.total_joules() / 1000.0, 1) + " kJ",
           util::fixed(report.total_joules() / converged_joules, 2) + "x"});
    }
    table.print();
  }

  std::cout << "\n";
  {
    core::Table table(
        "F8b: FPGA offload energy efficiency (1 s CPU work, 8 cores)",
        {"kernel", "speedup", "cpu energy", "fpga energy", "efficiency"});
    const auto registry = accel::KernelRegistry::standard();
    for (const auto& name : registry.names()) {
      const auto& profile = registry.profile(name);
      const double cpu_j = model.per_core_watts * 8.0;  // 8 cores x 1 s
      const double fpga_j =
          model.fpga_active_watts * (1.0 / profile.speedup);
      table.add_row({name, util::fixed(profile.speedup, 1) + "x",
                     util::fixed(cpu_j, 1) + " J",
                     util::fixed(fpga_j, 1) + " J",
                     util::fixed(core::offload_energy_ratio(
                                     model, util::seconds(1),
                                     profile.speedup, 8),
                                 1) +
                         "x"});
    }
    table.print();
  }
  std::cout << "\nShape check: the converged platform finishes sooner on the "
               "same hardware,\nso it burns fewer idle joules per pipeline; "
               "FPGA offload yields multi-x\nenergy-efficiency factors "
               "(compare EUROSERVER/NanoStreams ~5x claims).\n";
  return 0;
}
