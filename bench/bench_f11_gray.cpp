// F11 — Gray failures: slow nodes, lossy links, silent corruption.
//
// Three gray-failure scenarios on the converged testbed, each run with
// the mitigation machinery on and off:
//
//   slow-node   one compute node runs 6x slower mid-run. Mitigation =
//               EWMA health scoring -> quarantine (drain + probe back
//               in) + health-driven speculative backups.
//   lossy-link  one storage server's NIC loses bandwidth and drops
//               packets. Mitigation = hedged reads (second replica read
//               after a p95-based delay, first finisher wins, loser
//               cancelled and accounted).
//   bit-rot     seeded corruption of stored replicas. Mitigation =
//               checksummed reads with transparent failover plus a
//               background scrubber that drops and re-replicates rotten
//               copies. With verification on, zero corrupted reads are
//               ever surfaced.
//
// `--json` writes BENCH_f11_gray.json; `--trace` writes
// TRACE_f11_gray.json with fault.degrade / fault.quarantine /
// store.hedge / store.scrub / df.speculate spans.
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "dataflow/engine.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/wiring.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr int kComputeNodes = 8;
constexpr int kStorageNodes = 4;

// -- Scenario A: slow node --------------------------------------------

struct SlowNodeResult {
  double makespan_s = 0;
  int jobs_ok = 0;
  int jobs_failed = 0;
  std::int64_t quarantines = 0;
  std::int64_t probes = 0;
  std::int64_t speculations = 0;
  double time_to_quarantine_ms = -1;
};

SlowNodeResult run_slow_node(bool mitigate, const bench::TraceSlot& slot) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kComputeNodes, kStorageNodes, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));
  storage::DatasetCatalog catalog(store);

  dataflow::DataflowConfig dconfig;
  dconfig.locality_wait = 0;
  dconfig.health_speculation = mitigate;
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog, dconfig);

  fault::GrayInjector gray(sim);
  fault::connect(gray, engine);  // the slowdown itself hits either way

  // Tasks in one stage vary in input size, so per-node mean service
  // times are noisy; a 3x flag threshold sits safely between that noise
  // and the injected 6x slowdown.
  fault::HealthScorerConfig hconfig;
  hconfig.flag_ratio = 3.0;
  hconfig.clear_ratio = 1.5;
  hconfig.min_samples = 8;
  fault::HealthScorer scorer(sim, hconfig);
  fault::QuarantineController quarantine(sim, scorer);
  if (mitigate) {
    fault::connect(engine, scorer);
    fault::connect(quarantine, engine);
    fault::connect(gray, quarantine);
  }

  const bench::ScopedTracer tracer(slot, sim);
  fabric.set_tracer(tracer.get());
  store.set_tracer(tracer.get());
  engine.set_tracer(tracer.get());
  gray.set_tracer(tracer.get());
  quarantine.set_tracer(tracer.get());

  const auto compute = cluster.nodes_with_label("role=compute");
  std::vector<dataflow::ExecutorSpec> executors;
  for (auto node : compute) executors.push_back({node, 4});

  SlowNodeResult result;
  util::TimeNs last_finish = 0;
  constexpr int kJobs = 6;
  for (int j = 0; j < kJobs; ++j) {
    const std::string in = "in" + std::to_string(j);
    catalog.define(storage::DatasetSpec{in, 24, 192 * util::kMiB});
    catalog.preload(in, /*warm_cache=*/true);
    sim.at(util::millis(150) * j, [&, j, in] {
      dataflow::LogicalPlan plan;
      const int src = plan.add_source(in);
      // Compute-heavy map: the 6x CPU slowdown dominates I/O, so the
      // slow node's tasks become genuine stragglers.
      const int mapped = plan.add_map(src, "featurize", 0.4, 25.0);
      const int reduced = plan.add_reduce_by_key(mapped, "agg", 8, 0.05);
      plan.add_sink(reduced, "out" + std::to_string(j));
      engine.run(plan, executors, [&](const dataflow::JobStats& s) {
        s.failed ? ++result.jobs_failed : ++result.jobs_ok;
        last_finish = std::max(last_finish, sim.now());
      });
    });
  }

  // compute[2] runs 6x slower from 300ms until well past the workload.
  gray.schedule_slow_node(compute[2], /*cpu=*/6.0, /*accel=*/6.0,
                          util::millis(300), util::seconds(60));

  sim.run();

  result.makespan_s = util::to_seconds(last_finish);
  result.quarantines = quarantine.quarantines();
  result.probes = quarantine.probes();
  result.speculations = engine.metrics().counter("health_speculations");
  result.time_to_quarantine_ms = quarantine.mean_time_to_quarantine_ms();
  return result;
}

// -- Scenarios B/C: storage GET workload ------------------------------

struct StorageResult {
  double get_mean_ms = 0;
  double get_p95_ms = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t hedges_cancelled = 0;
  double hedge_wasted_mib = 0;
  std::int64_t checksum_failures = 0;
  std::int64_t corrupted_reads = 0;
  std::int64_t replicas_scrubbed = 0;
  std::int64_t objects_repaired = 0;
  int corrupted_left = 0;
  std::int64_t flows_leaked = 0;
};

/// Shared GET-workload harness: preloads objects, streams seeded reads
/// from compute-node clients, and reports latency + mitigation stats.
StorageResult run_storage_scenario(bool lossy_nic, bool bitrot, bool mitigate,
                                   const bench::TraceSlot& slot) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kComputeNodes, kStorageNodes, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);

  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  sconfig.repair_delay = util::millis(100);
  if (lossy_nic && mitigate) {
    sconfig.hedged_reads = true;
  }
  if (bitrot && mitigate) {
    sconfig.checksum_reads = true;
    sconfig.scrub = true;
    sconfig.scrub_interval = util::millis(200);
  }
  const auto storage_nodes = cluster.nodes_with_label("role=storage");
  storage::ObjectStore store(sim, cluster, fabric, io, storage_nodes,
                             sconfig);

  fault::GrayInjector gray(sim);
  fault::connect(gray, fabric);
  fault::connect(gray, store);

  const bench::ScopedTracer tracer(slot, sim);
  fabric.set_tracer(tracer.get());
  store.set_tracer(tracer.get());
  gray.set_tracer(tracer.get());

  constexpr int kObjects = 48;
  constexpr int kGets = 320;
  store.create_bucket("data");
  for (int i = 0; i < kObjects; ++i) {
    store.preload({"data", "obj-" + std::to_string(i)}, 4 * util::kMiB);
  }

  if (lossy_nic) {
    // storage[0]'s NIC: 30% of nominal bandwidth, 20% loss, +200us.
    fault::NicDegradation nic;
    nic.bandwidth_factor = 0.3;
    nic.loss = 0.2;
    nic.extra_latency = util::micros(200);
    gray.schedule_nic_degradation(storage_nodes[0], nic, util::millis(100),
                                  util::seconds(60));
  }
  if (bitrot) {
    gray.schedule_bitrot(util::millis(50), /*seed=*/0xb17507, /*replicas=*/24);
  }

  const auto compute = cluster.nodes_with_label("role=compute");
  util::Rng rng(0xf11);
  util::TimeNs at = util::millis(120);
  for (int g = 0; g < kGets; ++g) {
    const auto client =
        compute[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(compute.size()) - 1))];
    const std::string name =
        "obj-" + std::to_string(rng.uniform_int(0, kObjects - 1));
    sim.at(at, [&store, client, name] {
      store.get(client, {"data", name}, [](const storage::GetResult&) {});
    });
    at += util::micros(1500);
  }

  sim.run();

  StorageResult result;
  if (store.metrics().has_histogram("get_latency_us")) {
    const auto& h = store.metrics().histogram("get_latency_us");
    result.get_mean_ms = h.mean() / 1e3;
    result.get_p95_ms = static_cast<double>(h.p95()) / 1e3;
  }
  result.hedges = store.hedges_launched();
  result.hedge_wins = store.hedge_wins();
  result.hedges_cancelled = store.hedges_cancelled();
  result.hedge_wasted_mib =
      static_cast<double>(store.hedge_wasted_bytes()) / util::kMiB;
  result.checksum_failures = store.checksum_failures();
  result.corrupted_reads = store.corrupted_reads_surfaced();
  result.replicas_scrubbed = store.replicas_scrubbed();
  result.objects_repaired = store.metrics().counter("objects_repaired");
  result.corrupted_left = store.corrupted_replica_count();
  result.flows_leaked = fabric.stats().flows_in_flight;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f11_gray", bench::kJson | bench::kTrace, argc,
                         argv);
  const SlowNodeResult slow_on =
      run_slow_node(true, harness.trace("f11/slow-node"));
  const SlowNodeResult slow_off = run_slow_node(false, {});
  const StorageResult lossy_on =
      run_storage_scenario(true, false, true, harness.trace("f11/lossy-link"));
  const StorageResult lossy_off = run_storage_scenario(true, false, false, {});
  const StorageResult rot_on =
      run_storage_scenario(false, true, true, harness.trace("f11/bit-rot"));
  const StorageResult rot_off = run_storage_scenario(false, true, false, {});

  core::Table slow("F11a: slow node (6x) — quarantine + speculation",
                   {"mitigation", "makespan", "jobs ok/fail", "quarantines",
                    "probes", "speculations", "time-to-quarantine"});
  auto srow = [&](const std::string& name, const SlowNodeResult& r) {
    slow.add_row({name, util::fixed(r.makespan_s, 2) + " s",
                  std::to_string(r.jobs_ok) + "/" +
                      std::to_string(r.jobs_failed),
                  std::to_string(r.quarantines), std::to_string(r.probes),
                  std::to_string(r.speculations),
                  r.time_to_quarantine_ms < 0
                      ? "-"
                      : util::fixed(r.time_to_quarantine_ms, 0) + " ms"});
  };
  srow("on", slow_on);
  srow("off", slow_off);
  slow.print();

  core::Table lossy("F11b: lossy NIC — hedged reads",
                    {"mitigation", "get mean", "get p95", "hedges", "wins",
                     "cancelled", "wasted"});
  auto lrow = [&](const std::string& name, const StorageResult& r) {
    lossy.add_row({name, util::fixed(r.get_mean_ms, 2) + " ms",
                   util::fixed(r.get_p95_ms, 2) + " ms",
                   std::to_string(r.hedges), std::to_string(r.hedge_wins),
                   std::to_string(r.hedges_cancelled),
                   util::fixed(r.hedge_wasted_mib, 1) + " MiB"});
  };
  lrow("on", lossy_on);
  lrow("off", lossy_off);
  std::cout << "\n";
  lossy.print();

  core::Table rot("F11c: bit-rot — checksums + scrubber",
                  {"mitigation", "corrupted reads", "checksum fails",
                   "scrubbed", "repaired", "corrupted left"});
  auto rrow = [&](const std::string& name, const StorageResult& r) {
    rot.add_row({name, std::to_string(r.corrupted_reads),
                 std::to_string(r.checksum_failures),
                 std::to_string(r.replicas_scrubbed),
                 std::to_string(r.objects_repaired),
                 std::to_string(r.corrupted_left)});
  };
  rrow("on", rot_on);
  rrow("off", rot_off);
  std::cout << "\n";
  rot.print();

  std::cout << "\nShape check: mitigation cuts the slow-node makespan ("
            << util::fixed(slow_off.makespan_s, 2) << " -> "
            << util::fixed(slow_on.makespan_s, 2)
            << " s), hedging cuts lossy-link p95 ("
            << util::fixed(lossy_off.get_p95_ms, 1) << " -> "
            << util::fixed(lossy_on.get_p95_ms, 1)
            << " ms), and with checksums on "
            << rot_on.corrupted_reads
            << " corrupted reads reach callers (vs "
            << rot_off.corrupted_reads << " without).\n";

  core::MetricsReport& report = harness.report();
  auto emit_slow = [&](const std::string& p, const SlowNodeResult& r) {
    report.set(p + "_makespan_s", r.makespan_s);
    report.set(p + "_jobs_ok", static_cast<std::int64_t>(r.jobs_ok));
    report.set(p + "_jobs_failed", static_cast<std::int64_t>(r.jobs_failed));
    report.set(p + "_quarantines", r.quarantines);
    report.set(p + "_probes", r.probes);
    report.set(p + "_speculations", r.speculations);
    report.set(p + "_time_to_quarantine_ms", r.time_to_quarantine_ms);
  };
  auto emit_store = [&](const std::string& p, const StorageResult& r) {
    report.set(p + "_get_mean_ms", r.get_mean_ms);
    report.set(p + "_get_p95_ms", r.get_p95_ms);
    report.set(p + "_hedges", r.hedges);
    report.set(p + "_hedge_wins", r.hedge_wins);
    report.set(p + "_hedges_cancelled", r.hedges_cancelled);
    report.set(p + "_hedge_wasted_mib", r.hedge_wasted_mib);
    report.set(p + "_checksum_failures", r.checksum_failures);
    report.set(p + "_corrupted_reads", r.corrupted_reads);
    report.set(p + "_replicas_scrubbed", r.replicas_scrubbed);
    report.set(p + "_objects_repaired", r.objects_repaired);
    report.set(p + "_corrupted_left",
               static_cast<std::int64_t>(r.corrupted_left));
    report.set(p + "_flows_leaked", r.flows_leaked);
  };
  emit_slow("slow_on", slow_on);
  emit_slow("slow_off", slow_off);
  emit_store("lossy_on", lossy_on);
  emit_store("lossy_off", lossy_off);
  emit_store("bitrot_on", rot_on);
  emit_store("bitrot_off", rot_off);
  report.set("slow_mitigation_speedup",
             slow_on.makespan_s > 0
                 ? slow_off.makespan_s / slow_on.makespan_s
                 : 0.0);
  report.set("lossy_hedge_win_rate",
             lossy_on.hedges > 0
                 ? static_cast<double>(lossy_on.hedge_wins) /
                       static_cast<double>(lossy_on.hedges)
                 : 0.0);
  return harness.finish();
}
