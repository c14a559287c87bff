// 100-seed erasure-coding soak (ctest label: soak).
//
// Every seed drives an EC(4,2) store, rack-aware-placed across 4 racks,
// through the full correlated-failure gauntlet at once — seeded bit-rot
// with checksummed + hedged reads and scrubbing, a degraded storage NIC,
// and a whole-rack outage — against a randomized GET workload, and
// asserts the erasure-coding invariants:
//   1. no object is ever lost while at most m fragments per stripe are
//      dead (the rack cap guarantees an outage kills at most 2 of 6);
//   2. degraded reads still complete and return the correct sizes;
//   3. background rebuild restores full redundancy by the drain, and
//      every server's durable bytes match the live placements;
//   4. the run is deterministic, with tracing on or off.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::fault {
namespace {

constexpr int kObjects = 12;
constexpr int kGets = 80;
constexpr util::Bytes kObjectBytes = 3 * util::kMiB;

/// Deterministic end-of-run signature; must be identical across reruns
/// of one seed (traced or not).
using Signature = std::tuple<util::TimeNs, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t>;

Signature run_seed(std::uint64_t seed, bool traced) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               (traced ? " traced" : " untraced"));
  sim::Simulation sim;
  // 12 storage servers over 4 racks (3 per rack): the placement cap is
  // ceil(6/4) = 2 fragments per rack, so a rack outage kills at most
  // m = 2 fragments of any stripe.
  auto cluster = cluster::make_testbed(4, 12, 0, /*racks=*/4);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStoreConfig config;
  config.redundancy = storage::Redundancy::kErasure;
  config.ec_data = 4;
  config.ec_parity = 2;
  config.hedged_reads = true;
  config.hedge.min_delay = util::millis(1);
  config.checksum_reads = true;
  config.scrub = true;
  config.scrub_interval = util::millis(20);
  config.repair_delay = util::millis(50);
  // Throttled but generous: each 3 MiB reconstruction admits in ~6ms,
  // so the bit-rot cleanup finishes well before the 400ms rack outage
  // (compounded corruption + outage could otherwise exceed m dead).
  config.rebuild_bandwidth_bytes_per_s = 512.0 * util::kMiB;
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             config);
  trace::Tracer tracer(sim);
  if (traced) store.set_tracer(&tracer);
  FaultInjector injector(sim);
  connect(injector, store);
  GrayInjector gray(sim);
  connect(gray, fabric);
  connect(gray, store);

  store.create_bucket("b");
  for (int i = 0; i < kObjects; ++i) {
    store.preload({"b", "obj" + std::to_string(i)}, kObjectBytes);
  }

  util::Rng rng(seed);
  // Bit-rot strikes early (the scrubber + checksum failovers clean it
  // up well before the outage), one storage NIC crawls mid-run, and a
  // whole rack dies at 400ms and comes back at 600ms.
  gray.schedule_bitrot(util::millis(2), seed * 33 + 1, 6);
  gray.schedule_bitrot(util::millis(40), seed * 97 + 5, 6);
  NicDegradation nic;
  nic.bandwidth_factor = rng.uniform(0.1, 0.3);
  nic.extra_latency =
      util::micros(static_cast<double>(rng.uniform_int(0, 300)));
  const auto victim =
      store.servers()[static_cast<std::size_t>(rng.uniform_int(0, 11))];
  gray.schedule_nic_degradation(victim, nic, util::millis(5),
                                util::millis(250));
  const int rack = rng.uniform_int(0, 3);
  injector.schedule_rack_outage(cluster, rack, util::millis(400),
                                util::millis(200));

  const auto compute = cluster.nodes_with_label("role=compute");
  int completed = 0;
  int degraded_ok = 0;
  for (int g = 0; g < kGets; ++g) {
    const auto client =
        compute[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const int obj = rng.uniform_int(0, kObjects - 1);
    sim.at(util::micros(static_cast<double>(rng.uniform_int(0, 900'000))),
           [&, client, obj] {
      store.get(client, {"b", "obj" + std::to_string(obj)},
                [&](const storage::GetResult& r) {
                  ++completed;
                  // Invariant 2: every GET succeeds at the right size,
                  // degraded (reconstructing through parity) or not.
                  EXPECT_TRUE(r.found);
                  EXPECT_EQ(r.size, kObjectBytes);
                  EXPECT_FALSE(r.corrupted);
                  if (r.degraded) ++degraded_ok;
                });
    });
  }
  sim.run();

  EXPECT_EQ(completed, kGets);
  // Invariant 1: the rack cap held, so the outage never exceeded m dead
  // fragments per stripe and nothing was lost.
  EXPECT_EQ(store.lost_objects(), 0);
  EXPECT_EQ(store.durability_stats().objects_lost, 0);
  EXPECT_EQ(store.corrupted_reads_surfaced(), 0);
  // Invariant 3: rebuild restored every stripe to full redundancy.
  EXPECT_EQ(store.under_replicated_objects(), 0);
  EXPECT_EQ(store.durability_stats().missing_fragments, 0);
  EXPECT_EQ(store.corrupted_replica_count(), 0);
  // Durable bytes match live metadata on every server once drained.
  for (auto server : store.servers()) {
    EXPECT_EQ(store.durable_bytes(server),
              store.expected_durable_bytes(server))
        << "server " << server << " durable bytes drifted";
  }
  EXPECT_EQ(fabric.stats().flows_in_flight, 0);
  if (traced) tracer.close_open_spans();
  return Signature{sim.now(), store.metrics().counter("get_bytes"),
                   store.hedges_launched(),
                   store.metrics().counter("objects_repaired"),
                   fabric.stats().flows_started};
}

TEST(ErasureSoak, HundredSeedsSurviveRackOutagesWithoutLoss) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Signature first = run_seed(seed, /*traced=*/false);
    // Invariant 4, every 10th seed: reruns reproduce the same simulated
    // timeline bit for bit, with observational tracing on or off.
    if (seed % 10 == 0) {
      EXPECT_EQ(run_seed(seed, /*traced=*/true), first)
          << "seed " << seed << " not deterministic under tracing";
    }
    if (::testing::Test::HasFailure()) break;  // first failing seed only
  }
}

}  // namespace
}  // namespace evolve::fault
