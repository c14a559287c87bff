#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "cluster/cluster.hpp"
#include "core/platform.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/service.hpp"
#include "util/retry_budget.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace perfbench {
namespace {

using namespace evolve;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Independent sub-seed `k` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
  return util::splitmix64(state);
}

double frac(std::int64_t part, std::int64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void record_sim(RepResult& r, const sim::Simulation& sim) {
  r.events = static_cast<std::int64_t>(sim.events_executed());
  r.counters["sim.events"] = static_cast<double>(r.events);
}

void record_net(RepResult& r, const net::Fabric& fabric) {
  const net::FlowStats& s = fabric.stats();
  r.counters["net.flows"] = static_cast<double>(s.flows_started);
  r.counters["net.recomputes"] = static_cast<double>(s.rate_recomputations);
  r.counters["net.recomputes_per_flow"] =
      frac(s.rate_recomputations, s.flows_started);
  r.counters["net.flows_parked"] = static_cast<double>(s.flows_parked);
  r.counters["net.bytes_remote"] = static_cast<double>(s.bytes_remote);
  if (s.flows_in_flight != 0) {
    r.violations.push_back("fabric: " + std::to_string(s.flows_in_flight) +
                           " flows in flight after quiescence");
  }
}

void record_storage(RepResult& r, const storage::ObjectStore& store) {
  const metrics::Registry& m = store.metrics();
  for (const char* name :
       {"get_requests", "put_requests", "block_read_requests",
        "degraded_reads", "repairs_started"}) {
    r.counters[std::string("storage.") + name] =
        static_cast<double>(m.counter(name));
  }
  r.counters["storage.hedges_launched"] =
      static_cast<double>(store.hedges_launched());
  r.counters["storage.hedge_win_frac"] =
      frac(store.hedge_wins(), store.hedges_launched());
  r.counters["storage.writes_fenced"] =
      static_cast<double>(store.writes_fenced());
}

/// Conservation: every offered op is completed, shed or failed, and
/// nothing is left in flight once the simulation has drained.
void check_conservation(RepResult& r) {
  r.in_flight = r.offered - r.completed - r.shed - r.failed;
  if (r.in_flight != 0) {
    r.violations.push_back(
        "conservation: offered " + std::to_string(r.offered) +
        " != completed " + std::to_string(r.completed) + " + shed " +
        std::to_string(r.shed) + " + failed " + std::to_string(r.failed));
  }
  if (static_cast<std::int64_t>(r.latencies_ns.size()) != r.completed) {
    r.violations.push_back("latency samples != completed ops");
  }
  if (r.offered == 0) r.violations.push_back("no ops offered");
}

// ---------------------------------------------------------------------
// converged_mix: the paper's headline case. Many converged pipelines
// (dataflow join -> dataflow sessionize -> MPI post-process, plus an
// accelerator scoring step on every other chain) share one platform and
// one EC(4,2) object store; chains arrive on a fixed simulated schedule
// and one storage node goes out mid-run. No Zipf draws, serve or tablet
// code run here: it is the control workload for those layers.
//
// The platform is sized to ride out the outage (EC(4,2) degraded reads,
// dataflow task retries), so every chain must succeed: a failed chain is
// a correctness violation, not an outcome goodput_frac could absorb.

constexpr int kCmChains = 96;
constexpr int kCmComputeNodes = 96;
constexpr int kCmStorageNodes = 24;
constexpr int kCmAccelNodes = 8;
constexpr int kCmRacks = 8;
constexpr util::TimeNs kCmSpacing = util::millis(40);
constexpr util::TimeNs kCmOutageAt = util::seconds(2);
constexpr util::TimeNs kCmOutageFor = util::seconds(4);

RepResult run_converged_mix(const RunOptions& opt) {
  RepResult r;
  const auto setup_start = Clock::now();
  util::Rng rng(derive(opt.seed, 0));

  sim::Simulation sim;
  core::PlatformConfig pc;
  pc.compute_nodes = kCmComputeNodes;
  pc.storage_nodes = kCmStorageNodes;
  pc.accel_nodes = kCmAccelNodes;
  pc.racks = kCmRacks;
  pc.store.redundancy = storage::Redundancy::kErasure;
  pc.store.ec_data = 4;
  pc.store.ec_parity = 2;
  pc.store.hedged_reads = true;
  core::Platform platform(sim, pc);

  fault::FaultInjector injector(sim, fault::FaultInjectorConfig{derive(opt.seed, 1)});
  fault::connect(injector, platform.store());
  fault::connect(injector, platform.dataflow());

  storage::DatasetCatalog& catalog = platform.catalog();
  catalog.define(storage::DatasetSpec{"profiles", 16, 256 * util::kMiB});
  catalog.preload("profiles");
  for (int i = 0; i < kCmChains; ++i) {
    const std::string events = "events-" + std::to_string(i);
    const auto bytes = static_cast<util::Bytes>(
        rng.uniform(0.9, 1.1) * static_cast<double>(128 * util::kMiB));
    catalog.define(storage::DatasetSpec{events, 8, bytes});
    catalog.preload(events);
  }

  std::int64_t df_tasks = 0, df_local = 0, df_retries = 0, df_killed = 0;
  std::vector<int> callbacks(kCmChains, 0);
  std::vector<util::TimeNs> submitted(kCmChains, 0);

  // The platform's own dataflow step reports success even when the job
  // fails, so chains call run_dataflow directly: the step then fails with
  // its job and the job stats feed the dataflow.* counters.
  auto dataflow_step = [&](std::string name, dataflow::LogicalPlan plan) {
    return workflow::custom_step(
        std::move(name),
        [&platform, &df_tasks, &df_local, &df_retries, &df_killed,
         plan = std::move(plan)](std::function<void(bool)> done) {
          platform.run_dataflow(
              plan, /*executors=*/4, /*slots=*/4,
              [&df_tasks, &df_local, &df_retries, &df_killed,
               done](const dataflow::JobStats& s) {
                df_tasks += s.tasks;
                df_local += s.local_tasks;
                df_retries += s.task_retries;
                df_killed += s.tasks_killed;
                done(!s.failed);
              });
        });
  };

  for (int i = 0; i < kCmChains; ++i) {
    const std::string id = std::to_string(i);
    workflow::Workflow wf("chain-" + id);

    dataflow::LogicalPlan join;
    const int ev = join.add_source("events-" + id);
    const int prof = join.add_source("profiles");
    const int parsed = join.add_map(ev, "parse", 0.8, 0.5);
    const int joined = join.add_join(parsed, prof, "enrich", 16, 0.6);
    join.add_sink(joined, "joined-" + id);
    wf.add(dataflow_step("join", std::move(join)));

    dataflow::LogicalPlan sessions;
    const int in = sessions.add_source("joined-" + id);
    const int grouped = sessions.add_group_by(in, "sessionize", 16, 0.4);
    sessions.add_sink(grouped, "sessions-" + id);
    auto sessionize = dataflow_step("sessionize", std::move(sessions));
    sessionize.depends_on = {"join"};
    wf.add(std::move(sessionize));

    hpc::MpiProgram post;
    post.iterations = 8;
    post.compute_per_iteration = util::millis(25);
    post.allreduce_bytes = 4 * util::kMiB;
    auto mpi = workflow::hpc_step("post", post, /*ranks=*/4);
    mpi.depends_on = {"sessionize"};
    wf.add(std::move(mpi));

    if (i % 2 == 0) {
      auto score =
          workflow::accel_step("score", "pattern-match", util::millis(60));
      score.depends_on = {"sessionize"};
      wf.add(std::move(score));
    }

    const util::TimeNs at =
        kCmSpacing * i + rng.uniform_int(0, kCmSpacing / 2);
    submitted[static_cast<std::size_t>(i)] = at;
    sim.at(at, [&, i, wf = std::move(wf)] {
      platform.run_workflow(wf, [&, i](const workflow::WorkflowResult& res) {
        const auto idx = static_cast<std::size_t>(i);
        callbacks[idx] += 1;
        r.makespan_ns = std::max(r.makespan_ns, sim.now());
        if (res.success) {
          r.completed += 1;
          r.goodput += 1;
          r.latencies_ns.push_back(sim.now() - submitted[idx]);
        } else {
          r.failed += 1;
          r.violations.push_back("workflow chain-" + std::to_string(i) +
                                 " failed");
        }
      });
    });
  }

  const auto storage_nodes = platform.cluster().nodes_with_label("role=storage");
  const auto victim = storage_nodes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(storage_nodes.size()) - 1))];
  injector.schedule_outage(victim, kCmOutageAt, kCmOutageFor);
  r.setup_s = seconds_since(setup_start);
  if (opt.setup_only) return r;

  const auto run_start = Clock::now();
  sim.run();
  r.wall_s = seconds_since(run_start);

  r.offered = kCmChains;
  for (int i = 0; i < kCmChains; ++i) {
    if (callbacks[static_cast<std::size_t>(i)] != 1) {
      r.violations.push_back("workflow chain-" + std::to_string(i) +
                             " reported " +
                             std::to_string(callbacks[static_cast<std::size_t>(i)]) +
                             " times");
    }
  }
  check_conservation(r);
  record_sim(r, sim);
  record_net(r, platform.fabric());
  record_storage(r, platform.store());
  r.counters["dataflow.tasks"] = static_cast<double>(df_tasks);
  r.counters["dataflow.locality_frac"] = frac(df_local, df_tasks);
  r.counters["dataflow.task_retries"] = static_cast<double>(df_retries);
  r.counters["dataflow.tasks_killed"] = static_cast<double>(df_killed);
  return r;
}

// ---------------------------------------------------------------------
// serve_partition: open-loop serving with uniform keys, in the shape of
// the F16 partition scenario with every defense on (leases, retry
// budget, hedging, post-heal ramp), scaled to twice its replicas and
// rate. A third of the replica nodes are cut off for 30 s and healed.
// No storage or tablet code runs.

constexpr int kSpReplicas = 16;
constexpr double kSpRate = 3600.0;  // ~90% of the partition survivors
constexpr util::TimeNs kSpPartitionAt = util::seconds(30);
constexpr util::TimeNs kSpHealAt = util::seconds(60);
constexpr util::TimeNs kSpHorizon = util::seconds(90);

RepResult run_serve_partition(const RunOptions& opt) {
  RepResult r;
  const auto setup_start = Clock::now();
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kSpReplicas, 2, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, kSpReplicas);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kRoundRobin;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = true;
  config.seed = derive(opt.seed, 0);
  serve::Service service(sim, fabric, deploy, classes, config);

  // Every other node among the first three quarters; node 0 hosts the
  // lease table and stays connected.
  std::vector<cluster::NodeId> cut_nodes;
  for (int n = 1; n < kSpReplicas * 3 / 4; n += 2) {
    cut_nodes.push_back(static_cast<cluster::NodeId>(n));
  }
  fault::PartitionInjector partitions(sim, fabric);
  fault::PartitionId cut = 0;
  sim.at(kSpPartitionAt, [&] { cut = partitions.isolate(cut_nodes); });
  sim.at(kSpHealAt, [&] { partitions.heal(cut); });

  orch::LeaseManagerConfig lease_config;
  lease_config.grace = util::seconds(120);
  lease_config.seed = derive(opt.seed, 1);
  orch::LeaseManager leases(sim, fabric, orch, lease_config);
  util::RetryBudget budget;
  fault::connect(leases, service, /*ramp_window=*/util::seconds(5));
  service.set_retry_budget(&budget);
  leases.start();
  sim.at(kSpHorizon + util::seconds(5), [&leases] { leases.stop(); });

  service.set_completion_observer(
      [&](const serve::Request&, const serve::RequestClass&,
          util::TimeNs latency, bool slo_ok) {
        r.completed += 1;
        if (slo_ok) r.goodput += 1;
        r.latencies_ns.push_back(latency);
        r.makespan_ns = std::max(r.makespan_ns, sim.now());
      });

  serve::GeneratorConfig gen;
  gen.phases = {{kSpHorizon, kSpRate}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kSpHorizon;
  gen.seed = derive(opt.seed, 2);
  std::function<void(serve::Request)> sink = service.sink();
  if (opt.time_calls) {
    r.call_ns.reserve(static_cast<std::size_t>(kSpRate * 100));
    sink = [&service, &r](serve::Request req) {
      const auto t0 = Clock::now();
      service.submit(std::move(req));
      r.call_ns.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
              .count());
    };
  }
  serve::RequestGenerator generator(sim, gen, sink);
  generator.start();
  r.setup_s = seconds_since(setup_start);
  if (opt.setup_only) return r;

  const auto run_start = Clock::now();
  sim.run();
  r.wall_s = seconds_since(run_start);

  const metrics::Registry& m = service.metrics();
  r.offered = generator.emitted();
  r.shed = m.counter("serve.shed_admission") + m.counter("serve.shed_queue_full");
  check_conservation(r);
  if (service.outstanding() != 0 || service.parked() != 0) {
    r.violations.push_back("serve: requests outstanding after quiescence");
  }
  record_sim(r, sim);
  record_net(r, fabric);
  r.counters["serve.hedges_launched"] =
      static_cast<double>(service.hedges_launched());
  r.counters["serve.hedge_win_frac"] =
      frac(service.hedge_wins(), service.hedges_launched());
  r.counters["serve.hedges_suppressed"] =
      static_cast<double>(service.hedges_suppressed());
  r.counters["serve.wasted_exec"] = static_cast<double>(service.wasted_exec());
  r.counters["serve.rerouted"] = static_cast<double>(service.rerouted());
  r.counters["serve.shed"] = static_cast<double>(r.shed);
  r.counters["orch.lease_expiries"] = static_cast<double>(leases.expiries());
  r.counters["orch.reconnects"] = static_cast<double>(leases.reconnects());
  return r;
}

// ---------------------------------------------------------------------
// tablet_zipf: a Zipf(1.05) key stream, 70% reads / 30% writes, over
// the tablet layer with the balancer on (splits and moves) and a 3x
// gray slowdown on the node that owns the hot range: the F17 balanced
// scenario. Writes are durable WAL PUTs, reads memtable or block reads.
// The client keeps its default retry policy, so failed ops from planned
// moves stay visible. The 30 s horizon keeps those failures near 0.2-0.5%
// of ops; shorter horizons concentrate the early moves and can push the
// failure share past 1%, where p99 would land on the failure cap.

constexpr util::TimeNs kTzHorizon = util::seconds(30);
constexpr util::TimeNs kTzSlowFrom = util::seconds(8);
constexpr util::TimeNs kTzSlowFor = util::seconds(17);
constexpr util::TimeNs kTzReadSlo = util::millis(10);
constexpr util::TimeNs kTzWriteSlo = util::millis(25);
constexpr std::uint64_t kTzKeys = 1 << 16;
constexpr double kTzRate = 6000.0;

RepResult run_tablet_zipf(const RunOptions& opt) {
  using namespace evolve::tablet;
  RepResult r;
  const auto setup_start = Clock::now();
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 4, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));

  TabletConfig config;
  config.keyspace = kTzKeys;
  config.initial_shards = 4;
  config.flush_bytes = 512 * util::kKiB;
  config.flush_age = util::millis(500);
  config.queue_limit = 512;
  TabletService service(sim, fabric, store,
                        cluster.nodes_with_label("role=compute"), config);

  BalancerConfig bcfg;
  bcfg.interval = util::millis(250);
  bcfg.split_ops = 600;
  bcfg.merge_ops = 10;
  bcfg.min_move_ops = 150;
  bcfg.imbalance_ratio = 1.3;
  bcfg.max_shards = 32;
  TabletBalancer balancer(sim, service, bcfg);
  balancer.start();

  const auto tablet_nodes = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(tablet_nodes[0], /*cpu_factor=*/3.0,
                          /*accel_factor=*/1.0, kTzSlowFrom, kTzSlowFor);

  TabletClient client(sim, service, ClientConfig{});

  serve::GeneratorConfig gen;
  gen.phases = {{kTzHorizon, kTzRate}};
  gen.class_weights = {0.7, 0.3};  // class 0 = read, class 1 = write
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kTzHorizon;
  gen.seed = derive(opt.seed, 0);
  gen.key_dist = serve::KeyDistribution::kZipf;
  gen.keys = kTzKeys;
  gen.zipf_s = 1.05;
  if (opt.time_calls) {
    r.call_ns.reserve(static_cast<std::size_t>(kTzRate * 12));
  }
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    const bool is_write = req.cls == 1;
    const util::TimeNs start = sim.now();
    auto on_done = [&r, &sim, is_write, start](OpResult res) {
      r.makespan_ns = std::max(r.makespan_ns, sim.now());
      if (res.status == OpStatus::kOk || res.status == OpStatus::kNotFound) {
        const util::TimeNs latency = sim.now() - start;
        r.completed += 1;
        if (latency <= (is_write ? kTzWriteSlo : kTzReadSlo)) r.goodput += 1;
        r.latencies_ns.push_back(latency);
      } else if (res.status == OpStatus::kQueueFull) {
        r.shed += 1;
      } else {
        r.failed += 1;
      }
    };
    const OpKind kind = is_write ? OpKind::kWrite : OpKind::kRead;
    if (!opt.time_calls) {
      client.submit(req, kind, std::move(on_done));
      return;
    }
    const auto t0 = Clock::now();
    client.submit(req, kind, std::move(on_done));
    r.call_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  });
  generator.start();
  sim.at(kTzHorizon + util::seconds(2), [&] {
    balancer.stop();
    service.stop();
  });
  r.setup_s = seconds_since(setup_start);
  if (opt.setup_only) return r;

  const auto run_start = Clock::now();
  sim.run();
  r.wall_s = seconds_since(run_start);

  r.offered = generator.emitted();
  check_conservation(r);
  record_sim(r, sim);
  record_net(r, fabric);
  record_storage(r, store);
  const std::int64_t reads = service.memtable_hits() + service.block_reads();
  r.counters["tablet.wal_commits"] = static_cast<double>(service.wal_commits());
  r.counters["tablet.flushes"] = static_cast<double>(service.flushes());
  r.counters["tablet.memtable_hit_frac"] = frac(service.memtable_hits(), reads);
  r.counters["tablet.moves"] = static_cast<double>(service.moves_completed());
  r.counters["tablet.move_unavail_s"] = service.move_unavail_seconds();
  r.counters["tablet.unavailable_retries"] =
      static_cast<double>(client.unavailable_retries());
  r.counters["tablet.wrong_shard_retries"] =
      static_cast<double>(client.wrong_shard_retries());
  r.counters["tablet.exhausted"] = static_cast<double>(client.exhausted());
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"converged_mix", 90.0, nullptr, run_converged_mix},
      {"serve_partition", 99.0, "serve.sink_ns_p50", run_serve_partition},
      {"tablet_zipf", 99.0, "tablet.submit_ns_p50", run_tablet_zipf},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
