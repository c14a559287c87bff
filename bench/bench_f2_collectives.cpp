// F2 — HPC collectives: allreduce latency vs message size and algorithm
// (16 nodes), and vs node count at a fixed 4 MiB payload.
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "harness.hpp"
#include "hpc/communicator.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

util::TimeNs allreduce_time(int nodes, util::Bytes bytes,
                            hpc::CollectiveAlgo algo) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(nodes, 0, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  std::vector<cluster::NodeId> ranks;
  for (int i = 0; i < nodes; ++i) ranks.push_back(i);
  hpc::Communicator comm(sim, fabric, ranks);
  util::TimeNs done = -1;
  comm.allreduce(bytes, algo, [&] { done = sim.now(); });
  sim.run();
  return done;
}

const std::vector<std::pair<const char*, hpc::CollectiveAlgo>> kAlgos = {
    {"linear", hpc::CollectiveAlgo::kLinear},
    {"tree", hpc::CollectiveAlgo::kTree},
    {"rec-dbl", hpc::CollectiveAlgo::kRecursiveDoubling},
    {"ring", hpc::CollectiveAlgo::kRing},
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f2_collectives", 0, argc, argv);  // takes no flags
  {
    core::Table table("F2a: allreduce time vs message size (16 ranks)",
                      {"size", "linear", "tree", "rec-dbl", "ring"});
    for (util::Bytes bytes :
         {util::kKiB, 32 * util::kKiB, util::kMiB, 8 * util::kMiB,
          64 * util::kMiB}) {
      std::vector<std::string> row = {util::human_bytes(bytes)};
      for (const auto& [name, algo] : kAlgos) {
        row.push_back(util::human_time(allreduce_time(16, bytes, algo)));
      }
      table.add_row(row);
    }
    table.print();
  }
  std::cout << "\n";
  {
    core::Table table("F2b: 4 MiB allreduce vs rank count",
                      {"ranks", "linear", "tree", "rec-dbl", "ring"});
    for (int ranks : {2, 4, 8, 16, 32}) {
      std::vector<std::string> row = {std::to_string(ranks)};
      for (const auto& [name, algo] : kAlgos) {
        row.push_back(
            util::human_time(allreduce_time(ranks, 4 * util::kMiB, algo)));
      }
      table.add_row(row);
    }
    table.print();
  }
  std::cout << "\n";
  {
    // Extended collective set at a fixed 4 MiB payload, 16 ranks.
    core::Table table("F2c: extended collectives (16 ranks, 4 MiB payload)",
                      {"collective", "time"});
    auto timed = [](auto&& invoke) {
      sim::Simulation sim;
      auto cluster = cluster::make_testbed(16, 0, 0);
      net::Topology topology(cluster);
      net::Fabric fabric(sim, topology);
      std::vector<cluster::NodeId> ranks;
      for (int i = 0; i < 16; ++i) ranks.push_back(i);
      hpc::Communicator comm(sim, fabric, ranks);
      util::TimeNs done = -1;
      invoke(comm, [&sim, &done] { done = sim.now(); });
      sim.run();
      return done;
    };
    const util::Bytes mb4 = 4 * util::kMiB;
    table.add_row({"scatter (tree)",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.scatter(0, mb4 / 16, cb);
                   }))});
    table.add_row({"gather (tree)",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.gather(0, mb4 / 16, cb);
                   }))});
    table.add_row({"allgather (ring)",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.allgather(mb4 / 16, cb);
                   }))});
    table.add_row({"reduce-scatter (ring)",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.reduce_scatter(mb4, cb);
                   }))});
    table.add_row({"alltoall",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.alltoall(mb4 / 16, cb);
                   }))});
    table.add_row({"barrier",
                   util::human_time(timed([&](hpc::Communicator& c, auto cb) {
                     c.barrier(cb);
                   }))});
    table.print();
  }
  std::cout << "\nShape check: recursive doubling wins small messages "
               "(latency-bound);\nring wins large messages (bandwidth-"
               "optimal); linear degrades worst with scale.\n";
  return 0;
}
