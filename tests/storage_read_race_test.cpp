// The object store's read race: replicated GETs, erasure-coded GETs and
// block reads share one launch/land/abandon/complete machine and so one
// set of rules — holder choice on failover and hedge, loser
// cancellation, cache-tier selection, corruption reporting, metric
// names and span attributes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::storage {
namespace {

// Two compute nodes and `storage` servers over two racks: node 0 is a
// compute node in rack 0, storage servers alternate racks 0 and 1.
struct RaceFixture {
  explicit RaceFixture(ObjectStoreConfig config, int storage = 4)
      : cluster(cluster::make_testbed(2, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config),
        gray(sim) {
    fault::connect(gray, fabric);
    store.create_bucket("b");
  }

  GetResult get(const ObjectKey& key) {
    GetResult result;
    store.get(kClient, key, [&](const GetResult& r) { result = r; });
    sim.run();
    return result;
  }

  bool near(cluster::NodeId server) const {
    return topology.same_rack(server, kClient);
  }

  /// Preloads a key whose holders, in metadata order, put a holder in
  /// another rack ahead of the second holder in the client's rack.
  /// Returns the key; `first`/`second` are the client-rack holders.
  ObjectKey far_before_near(util::Bytes size, cluster::NodeId* first,
                            cluster::NodeId* second) {
    for (int i = 0; i < 256; ++i) {
      const ObjectKey key{"b", "obj" + std::to_string(i)};
      std::vector<cluster::NodeId> rest;
      *first = cluster::kInvalidNode;
      for (cluster::NodeId holder : store.locate(key)) {
        if (*first == cluster::kInvalidNode && near(holder)) {
          *first = holder;
        } else {
          rest.push_back(holder);
        }
      }
      if (*first == cluster::kInvalidNode || rest.empty() ||
          near(rest.front())) {
        continue;
      }
      for (cluster::NodeId holder : rest) {
        if (near(holder)) *second = holder;
      }
      store.preload(key, size);
      return key;
    }
    ADD_FAILURE() << "no key with a far holder ahead of a near one";
    return {};
  }

  static constexpr cluster::NodeId kClient = 0;
  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  IoSubsystem io;
  ObjectStore store;
  fault::GrayInjector gray;
};

ObjectStoreConfig replicated(int replicas) {
  ObjectStoreConfig config;
  config.replicas = replicas;
  return config;
}

ObjectStoreConfig erasure21() {
  ObjectStoreConfig config;
  config.redundancy = Redundancy::kErasure;
  config.ec_data = 2;
  config.ec_parity = 1;
  return config;
}

TEST(ReadRace, ChecksumFailoverGoesToNearestCleanHolder) {
  ObjectStoreConfig config = replicated(4);
  config.checksum_reads = true;
  RaceFixture f(config);
  cluster::NodeId first = cluster::kInvalidNode;
  cluster::NodeId second = cluster::kInvalidNode;
  const ObjectKey key = f.far_before_near(util::kMiB, &first, &second);
  ASSERT_TRUE(f.store.corrupt_replica(key, first));
  const GetResult result = f.get(key);
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.corrupted);
  EXPECT_EQ(result.served_by, second);
  EXPECT_EQ(f.store.checksum_failures(), 1);
}

TEST(ReadRace, BlockReadFailoverGoesToNearestCleanHolder) {
  ObjectStoreConfig config = replicated(4);
  config.checksum_reads = true;
  RaceFixture f(config);
  cluster::NodeId first = cluster::kInvalidNode;
  cluster::NodeId second = cluster::kInvalidNode;
  const ObjectKey key = f.far_before_near(util::kMiB, &first, &second);
  ASSERT_TRUE(f.store.corrupt_replica(key, first));
  constexpr util::Bytes kBlock = 16 * util::kKiB;
  GetResult result;
  f.store.read_block(RaceFixture::kClient, key, kBlock,
                     [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.served_by, second);
  // Like get_bytes, block_read_bytes counts every launched branch.
  EXPECT_EQ(f.store.metrics().counter("block_read_bytes"), 2 * kBlock);
}

TEST(ReadRace, ReplicatedHedgeGoesToNearestUntriedHolder) {
  ObjectStoreConfig config = replicated(4);
  config.hedged_reads = true;
  config.hedge.min_delay = util::millis(1);
  RaceFixture f(config);
  cluster::NodeId first = cluster::kInvalidNode;
  cluster::NodeId second = cluster::kInvalidNode;
  const ObjectKey key = f.far_before_near(4 * util::kMiB, &first, &second);
  // Starve the primary's NIC so the hedge wins the race.
  fault::NicDegradation nic;
  nic.bandwidth_factor = 0.01;
  f.gray.schedule_nic_degradation(first, nic, 0, util::seconds(60));
  GetResult result;
  f.store.get(RaceFixture::kClient, key,
              [&](const GetResult& r) { result = r; });
  f.sim.run_until(util::seconds(60));
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.hedge_won);
  EXPECT_EQ(result.served_by, second);
  EXPECT_EQ(f.store.hedges_cancelled(), 1);
  EXPECT_GT(f.store.hedge_wasted_bytes(), 0);
  f.sim.run();
}

TEST(ReadRace, ErasureLoserBeforeItsTransferCountsAsCancelled) {
  ObjectStoreConfig config = erasure21();
  config.ec_ns_per_byte = 0;  // landing time == GET latency
  const ObjectKey key{"b", "obj"};
  // Time an unhedged read, then fire the hedge 1 us before the same
  // read lands: the hedge is still in its metadata round when the two
  // data fragments complete the read.
  util::TimeNs landed = 0;
  {
    RaceFixture probe(config, 3);
    probe.store.preload(key, 4 * util::kMiB);
    probe.store.get(RaceFixture::kClient, key,
                    [&](const GetResult&) { landed = probe.sim.now(); });
    probe.sim.run();
    ASSERT_GT(landed, util::millis(1));
  }
  config.hedged_reads = true;
  config.hedge.min_delay = landed - util::kMicrosecond;
  RaceFixture f(config, 3);
  f.store.preload(key, 4 * util::kMiB);
  const GetResult result = f.get(key);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.hedged);
  EXPECT_FALSE(result.hedge_won);
  EXPECT_EQ(f.store.hedges_launched(), 1);
  EXPECT_EQ(f.store.hedges_cancelled(), 1);
  EXPECT_EQ(f.store.hedge_wasted_bytes(), 0);  // it never reached the fabric
}

TEST(ReadRace, RottenStragglerThatLosesDoesNotCorruptTheRead) {
  ObjectStoreConfig config = erasure21();
  config.hedged_reads = true;
  config.hedge.min_delay = util::millis(1);
  RaceFixture f(config, 3);
  const ObjectKey key{"b", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  // Data fragment 0 is rotten and behind a starved NIC: its device read
  // completes, but the parity hedge lands first and decodes cleanly.
  const cluster::NodeId rotten = f.store.locate(key)[0];
  ASSERT_TRUE(f.store.corrupt_replica(key, rotten));
  fault::NicDegradation nic;
  nic.bandwidth_factor = 0.01;
  f.gray.schedule_nic_degradation(rotten, nic, 0, util::seconds(60));
  GetResult result;
  f.store.get(RaceFixture::kClient, key,
              [&](const GetResult& r) { result = r; });
  f.sim.run_until(util::seconds(60));
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.hedge_won);
  EXPECT_EQ(result.parity_fragments_used, 1);
  EXPECT_FALSE(result.corrupted);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
  EXPECT_EQ(f.store.hedges_cancelled(), 1);
  f.sim.run();
}

TEST(ReadRace, ErasureReadWithoutPromotionStillUsesCachedTiers) {
  ObjectStoreConfig config = erasure21();
  config.cache_on_get = false;
  RaceFixture f(config, 3);
  const ObjectKey key{"b", "warm"};
  f.store.preload(key, 4 * util::kMiB, /*warm_cache=*/true);
  const GetResult result = f.get(key);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.tier, "dram");
  EXPECT_EQ(f.store.metrics().counter("get_tier_dram"), 2);
  EXPECT_EQ(f.store.metrics().counter("get_tier_hdd"), 0);
}

TEST(ReadRace, DegradedBlockReadRecordsItsOwnLatency) {
  RaceFixture f(replicated(2));
  const ObjectKey key{"b", "obj"};
  f.store.preload(key, util::kMiB);
  f.store.handle_node_failure(f.store.locate(key)[0]);
  GetResult result;
  f.store.read_block(RaceFixture::kClient, key, 16 * util::kKiB,
                     [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.degraded);
  const metrics::Registry& m = f.store.metrics();
  EXPECT_EQ(m.histogram("degraded_block_read_latency_us").count(), 1);
  EXPECT_FALSE(m.has_histogram("degraded_get_latency_us"));
}

std::vector<std::string> attrs(const trace::Span& span,
                               const std::string& key) {
  std::vector<std::string> out;
  for (const auto& [k, v] : span.attrs) {
    if (k == key) out.push_back(v);
  }
  return out;
}

TEST(ReadRace, SpansCarryBytesAndTheReportedTier) {
  RaceFixture f(erasure21(), 3);
  trace::Tracer tracer(f.sim);
  f.store.set_tracer(&tracer);
  const ObjectKey key{"b", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const GetResult got = f.get(key);
  GetResult block;
  f.store.read_block(RaceFixture::kClient, key, 16 * util::kKiB,
                     [&](const GetResult& r) { block = r; });
  f.sim.run();
  // A lost object: every holder dead.
  const ObjectKey lost{"b", "lost"};
  f.store.preload(lost, util::kMiB);
  for (cluster::NodeId holder : f.store.locate(lost)) {
    f.store.handle_node_failure(holder);
  }
  f.store.read_block(RaceFixture::kClient, lost, 16 * util::kKiB,
                     [](const GetResult&) {});
  f.sim.run();

  std::vector<const trace::Span*> reads;
  for (const auto& span : tracer.spans()) {
    if (span.name == "store.get" || span.name == "store.read_block") {
      reads.push_back(&span);
    }
  }
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(attrs(*reads[0], "bytes"),
            std::vector<std::string>{std::to_string(4 * util::kMiB)});
  EXPECT_EQ(attrs(*reads[0], "tier"), std::vector<std::string>{got.tier});
  EXPECT_EQ(attrs(*reads[1], "bytes"),
            std::vector<std::string>{std::to_string(16 * util::kKiB)});
  EXPECT_EQ(attrs(*reads[1], "tier"), std::vector<std::string>{block.tier});
  EXPECT_EQ(attrs(*reads[2], "result"), std::vector<std::string>{"lost"});
}

}  // namespace
}  // namespace evolve::storage
