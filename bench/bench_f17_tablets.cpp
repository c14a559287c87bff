// F17 — Tablet serving under Zipf skew: splitting + balancing on vs off.
//
// One stateful serving scenario, run twice: a 4-node tablet layer
// (range-sharded KV over the object store, ack-after-durable WAL
// writes, memtable + flushed-generation reads) takes an open-loop
// Zipf-keyed workload of 6000 ops/s for 30 s. The Zipf draw
// concentrates ~85% of the traffic on the first quarter of the key
// space — one shard, one node — and a gray CPU slowdown (3x) hits that
// hot node mid-run, exactly the BigBench/Tzenetopoulos skew-plus-
// stragglers regime:
//
//   off  the static 4-shard layout pins the hot range to one node: its
//        serial executor saturates, the bounded per-shard queue sheds,
//        and the slowdown stretches p99 by an order of magnitude.
//   on   the TabletBalancer splits the hot shard at its access median
//        (hot-key-dominated shards move whole instead — splitting
//        cannot spread one key) and migrates shards off the busiest
//        node. Moves cost real unavailability (flush + handoff +
//        re-open, every second of it accounted), and routing staleness
//        costs WrongShard retries — yet p99 and goodput still come out
//        far ahead.
//
// Requests flow through the serve-layer integration: a seeded
// serve::RequestGenerator with key_dist=kZipf feeds serve::Requests
// into the TabletClient, whose cached epoch-stamped shard map routes,
// refreshes, and retries. The run reports completed / goodput
// (completions within SLO), read and overall p99, queue-full sheds,
// split/merge/move counts, move unavailability, and stale-route
// retries. The check.sh gate asserts balancing-on p99 < balancing-off
// p99 and balancing-on goodput > balancing-off goodput.
//
// `--json` writes BENCH_f17_tablets.json (fully simulation-
// deterministic); `--trace` additionally writes TRACE_f17_tablets.json
// with tablet.* spans from the balanced run's first 2 s.
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "serve/generator.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/service.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;
using namespace evolve::tablet;

namespace {

constexpr util::TimeNs kHorizon = util::seconds(30);
constexpr util::TimeNs kSlowFrom = util::seconds(8);
constexpr util::TimeNs kSlowFor = util::seconds(17);
constexpr util::TimeNs kReadSlo = util::millis(10);
constexpr util::TimeNs kWriteSlo = util::millis(25);
constexpr std::uint64_t kKeys = 1 << 16;

struct RunResult {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t goodput = 0;  // completed within the class SLO
  std::int64_t shed = 0;
  std::int64_t failed = 0;  // exhausted retries / unavailable
  std::vector<double> latencies_ms;
  std::vector<double> read_latencies_ms;
  double p99_ms = 0;
  double read_p99_ms = 0;
  std::int64_t splits = 0;
  std::int64_t merges = 0;
  std::int64_t moves = 0;
  double move_unavail_s = 0;
  std::int64_t wrong_shard_retries = 0;
  std::int64_t unavailable_retries = 0;
  std::int64_t memtable_hits = 0;
  std::int64_t block_reads = 0;
  std::int64_t flushes = 0;
  std::int64_t wal_commits = 0;
  std::int64_t final_shards = 0;
  std::int64_t flows_leaked = 0;
};

RunResult run(bool balancing, const bench::TraceSlot& slot) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 4, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));

  TabletConfig config;
  config.keyspace = kKeys;
  config.initial_shards = 4;  // one per node: balanced by range, not load
  config.flush_bytes = 512 * util::kKiB;
  config.flush_age = util::millis(500);
  // Deep queues: overload shows up as tail latency, not fail-fast sheds
  // (shedding would censor the off-run's p99 downward).
  config.queue_limit = 512;
  TabletService service(sim, fabric, store,
                        cluster.nodes_with_label("role=compute"), config);

  const bench::ScopedTracer tracer(slot, sim);
  if (tracer.get()) {
    service.set_tracer(tracer.get());
    // Span volume control: trace only the first 2 s (splits + first
    // moves land there), then detach.
    sim.at(util::seconds(2), [&service] {
      trace::Tracer* t = service.tracer();
      service.set_tracer(nullptr);
      t->close_open_spans();  // boundary spans close here, not at horizon
    });
  }

  BalancerConfig bcfg;
  bcfg.interval = util::millis(250);
  bcfg.split_ops = 600;    // ~2.4k ops/s sustained marks a shard hot
  bcfg.merge_ops = 10;
  bcfg.min_move_ops = 150;
  bcfg.imbalance_ratio = 1.3;
  bcfg.max_shards = 32;
  TabletBalancer balancer(sim, service, bcfg);
  if (balancing) balancer.start();

  // The gray slowdown lands on the node that owns the hot range at t=0
  // (compute node 0 hosts shard 0 = the Zipf head).
  const auto tablet_nodes = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(tablet_nodes[0], /*cpu_factor=*/3.0,
                          /*accel_factor=*/1.0, kSlowFrom, kSlowFor);

  ClientConfig ccfg;
  ccfg.max_attempts = 6;
  TabletClient client(sim, service, ccfg);

  RunResult result;
  serve::GeneratorConfig gen;
  gen.phases = {{kHorizon, 6000.0}};
  gen.class_weights = {0.7, 0.3};  // class 0 = read, class 1 = write
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = 0xf17ab;
  gen.key_dist = serve::KeyDistribution::kZipf;
  gen.keys = kKeys;
  gen.zipf_s = 1.05;
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    const bool is_write = req.cls == 1;
    const util::TimeNs start = sim.now();
    client.submit(req, is_write ? OpKind::kWrite : OpKind::kRead,
                  [&result, &sim, is_write, start](OpResult r) {
                    if (r.status == OpStatus::kOk ||
                        r.status == OpStatus::kNotFound) {
                      const util::TimeNs latency = sim.now() - start;
                      result.completed += 1;
                      const util::TimeNs slo =
                          is_write ? kWriteSlo : kReadSlo;
                      if (latency <= slo) result.goodput += 1;
                      result.latencies_ms.push_back(
                          util::to_millis(latency));
                      if (!is_write) {
                        result.read_latencies_ms.push_back(
                            util::to_millis(latency));
                      }
                    } else if (r.status == OpStatus::kQueueFull) {
                      result.shed += 1;
                    } else {
                      result.failed += 1;
                    }
                  });
  });
  generator.start();

  sim.at(kHorizon + util::seconds(2), [&] {
    balancer.stop();
    service.stop();
  });
  sim.run();

  result.offered = generator.emitted();
  result.p99_ms = bench::exact_p99(result.latencies_ms);
  result.read_p99_ms = bench::exact_p99(result.read_latencies_ms);
  // The constructor carves initial_shards via split(); report only the
  // balancer-initiated ones.
  result.splits = service.shard_map().splits() - (config.initial_shards - 1);
  result.merges = service.shard_map().merges();
  result.moves = service.moves_completed();
  result.move_unavail_s = service.move_unavail_seconds();
  result.wrong_shard_retries = client.wrong_shard_retries();
  result.unavailable_retries = client.unavailable_retries();
  result.memtable_hits = service.memtable_hits();
  result.block_reads = service.block_reads();
  result.flushes = service.flushes();
  result.wal_commits = service.wal_commits();
  result.final_shards = service.shard_map().shard_count();
  result.flows_leaked = fabric.stats().flows_in_flight;
  return result;
}

std::string ms(double v) { return util::fixed(v, 2) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("f17_tablets", bench::kJson | bench::kTrace, argc,
                         argv);
  RunResult off = run(false, {});
  RunResult on = run(true, harness.trace("f17/balanced"));

  core::Table table(
      "F17: Zipf tablet serving + 3x gray slow node — balancing off vs on",
      {"balancing", "completed", "goodput", "shed", "p99", "read p99",
       "splits", "moves", "move unavail", "stale retries", "shards"});
  auto row = [&](const std::string& name, const RunResult& r) {
    table.add_row({name, std::to_string(r.completed),
                   std::to_string(r.goodput), std::to_string(r.shed),
                   ms(r.p99_ms), ms(r.read_p99_ms),
                   std::to_string(r.splits), std::to_string(r.moves),
                   util::fixed(r.move_unavail_s, 3) + " s",
                   std::to_string(r.wrong_shard_retries),
                   std::to_string(r.final_shards)});
  };
  row("off", off);
  row("on", on);
  table.print();

  std::cout << "\nShape check: splitting the hot range and balancing "
            << "shards drops p99 " << ms(off.p99_ms) << " -> "
            << ms(on.p99_ms) << " and lifts goodput " << off.goodput
            << " -> " << on.goodput << " (" << on.splits << " splits, "
            << on.moves << " moves costing "
            << util::fixed(on.move_unavail_s, 3)
            << " s of shard unavailability, " << on.wrong_shard_retries
            << " stale-route retries).\n";

  core::MetricsReport& report = harness.report();
  auto emit = [&](const std::string& p, const RunResult& r) {
    report.set(p + "_offered", r.offered);
    report.set(p + "_completed", r.completed);
    report.set(p + "_goodput", r.goodput);
    report.set(p + "_shed", r.shed);
    report.set(p + "_failed", r.failed);
    report.set(p + "_p99_ms", r.p99_ms);
    report.set(p + "_read_p99_ms", r.read_p99_ms);
    report.set(p + "_splits", r.splits);
    report.set(p + "_merges", r.merges);
    report.set(p + "_moves", r.moves);
    report.set(p + "_move_unavail_s", r.move_unavail_s);
    report.set(p + "_wrong_shard_retries", r.wrong_shard_retries);
    report.set(p + "_unavailable_retries", r.unavailable_retries);
    report.set(p + "_memtable_hits", r.memtable_hits);
    report.set(p + "_block_reads", r.block_reads);
    report.set(p + "_flushes", r.flushes);
    report.set(p + "_wal_commits", r.wal_commits);
    report.set(p + "_final_shards", r.final_shards);
    report.set(p + "_flows_leaked", r.flows_leaked);
  };
  emit("off", off);
  emit("on", on);
  return harness.finish();
}
