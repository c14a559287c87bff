// F3 — FPGA acceleration: per-kernel speedup vs CPU, and aggregate
// throughput as tenants share one device (time-sharing efficiency).
#include <iostream>

#include "accel/pool.hpp"
#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "harness.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

using namespace evolve;

int main(int argc, char** argv) {
  bench::Harness harness("f3_accel", 0, argc, argv);  // takes no flags
  // --- Per-kernel speedup ------------------------------------------
  {
    core::Table table("F3a: kernel offload speedup (1 s of CPU work)",
                      {"kernel", "cpu time", "offload time", "speedup"});
    const auto registry = accel::KernelRegistry::standard();
    for (const auto& name : registry.names()) {
      sim::Simulation sim;
      auto cluster = cluster::make_testbed(0, 0, 1);
      accel::AccelPool pool(sim, cluster);
      const util::TimeNs cpu = util::seconds(1);
      util::TimeNs done = -1;
      pool.offload(name, cpu, cluster::kInvalidNode,
                   [&] { done = sim.now(); });
      sim.run();
      table.add_row({name, util::human_time(cpu), util::human_time(done),
                     util::fixed(static_cast<double>(cpu) /
                                     static_cast<double>(done),
                                 2) +
                         "x"});
    }
    table.print();
  }

  // --- Sharing sweep ------------------------------------------------
  std::cout << "\n";
  {
    core::Table table(
        "F3b: one FPGA card shared by N tenants (fft, 1 s device work each)",
        {"tenants", "makespan", "aggregate throughput", "per-tenant slowdown"});
    for (int tenants : {1, 2, 4, 8, 16}) {
      sim::Simulation sim;
      auto cluster = cluster::make_testbed(0, 0, 1);
      // Use only device 0: direct device API isolates the sharing model.
      accel::DeviceConfig config;
      config.reconfiguration_latency = 0;
      config.max_concurrency = 4;
      accel::AccelDevice device(sim, "fpga0", config);
      int completed = 0;
      std::function<void()> feed = [&] {};
      int queued = tenants;
      std::function<void()> submit_next = [&] {
        while (queued > 0 && device.has_capacity()) {
          --queued;
          if (device.execute("fft", util::seconds(1), [&] {
                ++completed;
                submit_next();
              }) < 0) {
            ++queued;
            break;
          }
        }
      };
      submit_next();
      sim.run();
      const double makespan_s = util::to_seconds(sim.now());
      table.add_row(
          {std::to_string(tenants), util::human_time(sim.now()),
           util::fixed(completed / makespan_s, 2) + " jobs/s",
           util::fixed(makespan_s / static_cast<double>(1), 2) + "x"});
      (void)feed;
    }
    table.print();
  }
  std::cout << "\nShape check: aggregate throughput is flat at ~1 job/s "
               "(device-bound)\nonce the card saturates; adding tenants "
               "stretches per-tenant latency linearly.\n";
  return 0;
}
