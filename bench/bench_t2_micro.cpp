// T2 — Component micro-benchmarks: object-store GET/PUT latency by
// object size and serving tier, pod placement latency, and small-message
// collective latency. The paper's testbed-description table.
#include <iostream>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

util::TimeNs time_get(core::Platform& platform, const storage::ObjectKey& key,
                      cluster::NodeId client) {
  util::TimeNs start = platform.sim().now();
  util::TimeNs done = -1;
  platform.store().get(client, key,
                       [&](const storage::GetResult&) {
                         done = platform.sim().now();
                       });
  platform.sim().run();
  return done - start;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("t2_micro", 0, argc, argv);  // takes no flags
  sim::Simulation sim;
  core::Platform platform(sim);

  // --- Object store GET latency by size and tier ----------------------
  core::Table get_table("T2a: object GET latency (remote client)",
                        {"size", "hdd (cold)", "dram (hot)"});
  platform.store().create_bucket("micro");
  for (util::Bytes size : {4 * util::kKiB, 64 * util::kKiB, util::kMiB,
                           16 * util::kMiB, 256 * util::kMiB}) {
    const storage::ObjectKey key{"micro", "obj-" + std::to_string(size)};
    platform.store().preload(key, size, /*warm_cache=*/false);
    const auto cold = time_get(platform, key, 0);   // from HDD
    const auto hot = time_get(platform, key, 0);    // now cached in DRAM
    get_table.add_row({util::human_bytes(size), util::human_time(cold),
                       util::human_time(hot)});
  }
  get_table.print();

  // --- PUT latency (replicated) ---------------------------------------
  core::Table put_table("T2b: object PUT latency (R=2 replication)",
                        {"size", "latency"});
  for (util::Bytes size : {4 * util::kKiB, util::kMiB, 64 * util::kMiB}) {
    const storage::ObjectKey key{"micro", "put-" + std::to_string(size)};
    const util::TimeNs start = sim.now();
    util::TimeNs done = -1;
    platform.store().put(0, key, size, [&] { done = sim.now(); });
    sim.run();
    put_table.add_row({util::human_bytes(size), util::human_time(done - start)});
  }
  std::cout << "\n";
  put_table.print();

  // --- Scheduler placement latency ------------------------------------
  core::Table sched_table("T2c: pod scheduling latency (idle cluster)",
                          {"metric", "value"});
  {
    orch::PodSpec pod;
    pod.name = "probe";
    pod.request = cluster::cpu_mem(1000, util::kGiB);
    util::TimeNs submit = sim.now(), started = -1;
    platform.orchestrator().submit(pod, 0, [&](orch::PodId, cluster::NodeId) {
      started = sim.now();
    });
    sim.run();
    sched_table.add_row({"submit -> running", util::human_time(started - submit)});
    sched_table.add_row(
        {"scheduling pass interval",
         util::human_time(orch::OrchestratorConfig{}.scheduling_interval)});
    sched_table.add_row(
        {"bind (image pull + start)",
         util::human_time(orch::OrchestratorConfig{}.bind_latency)});
  }
  std::cout << "\n";
  sched_table.print();

  // --- Collective small-message latency -------------------------------
  core::Table coll_table("T2d: 1 KiB collective latency (8 ranks)",
                         {"collective", "latency"});
  {
    std::vector<cluster::NodeId> ranks;
    for (int i = 0; i < 8; ++i) ranks.push_back(i);
    hpc::Communicator comm(sim, platform.fabric(), ranks);
    for (auto [name, algo] :
         {std::pair{"allreduce/tree", hpc::CollectiveAlgo::kTree},
          std::pair{"allreduce/recursive-doubling",
                    hpc::CollectiveAlgo::kRecursiveDoubling},
          std::pair{"allreduce/ring", hpc::CollectiveAlgo::kRing}}) {
      const util::TimeNs start = sim.now();
      util::TimeNs done = -1;
      comm.allreduce(util::kKiB, algo, [&] { done = sim.now(); });
      sim.run();
      coll_table.add_row({name, util::human_time(done - start)});
    }
    const util::TimeNs start = sim.now();
    util::TimeNs done = -1;
    comm.barrier([&] { done = sim.now(); });
    sim.run();
    coll_table.add_row({"barrier", util::human_time(done - start)});
  }
  std::cout << "\n";
  coll_table.print();
  return 0;
}
