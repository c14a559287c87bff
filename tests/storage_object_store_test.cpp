#include "storage/object_store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace evolve::storage {
namespace {

struct StoreFixture {
  explicit StoreFixture(int compute = 2, int storage = 3,
                        ObjectStoreConfig config = {})
      : cluster(cluster::make_testbed(compute, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config) {
    store.create_bucket("data");
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  IoSubsystem io;
  ObjectStore store;
};

TEST(ObjectStore, RequiresServers) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 1, 0);
  net::Topology topo(cluster);
  net::Fabric fabric(sim, topo);
  IoSubsystem io(sim, cluster);
  EXPECT_THROW(ObjectStore(sim, cluster, fabric, io, {}),
               std::invalid_argument);
}

TEST(ObjectStore, KeysWithSlashesDoNotAlias) {
  // Both keys spell "a/b/c" when joined; they are still distinct keys.
  const ObjectKey left{"a", "b/c"};
  const ObjectKey right{"a/b", "c"};
  EXPECT_TRUE(left < right);
  EXPECT_FALSE(right < left);
  std::map<ObjectKey, int> keys{{left, 1}, {right, 2}};
  EXPECT_EQ(keys.size(), 2u);
  // Names may hold '/', buckets may not.
  StoreFixture f;
  EXPECT_THROW(f.store.create_bucket("a/b"), std::invalid_argument);
  EXPECT_FALSE(f.store.bucket_exists("a/b"));
  f.store.create_bucket("a");
  f.store.preload(left, util::kKiB);
  EXPECT_EQ(f.store.list("a"), std::vector<std::string>{"b/c"});
}

TEST(ObjectStore, PutThenGetRoundTrips) {
  StoreFixture f;
  const ObjectKey key{"data", "obj1"};
  bool put_done = false;
  f.store.put(0, key, util::kMiB, [&] { put_done = true; });
  f.sim.run();
  ASSERT_TRUE(put_done);
  EXPECT_TRUE(f.store.exists(key));
  EXPECT_EQ(f.store.object_size(key), util::kMiB);

  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.size, util::kMiB);
  EXPECT_NE(result.served_by, cluster::kInvalidNode);
}

TEST(ObjectStore, PutRequiresBucket) {
  StoreFixture f;
  EXPECT_THROW(f.store.put(0, ObjectKey{"nope", "x"}, 1, [] {}),
               std::invalid_argument);
}

TEST(ObjectStore, GetMissingObjectReportsNotFound) {
  StoreFixture f;
  GetResult result;
  result.found = true;
  f.store.get(0, ObjectKey{"data", "ghost"}, [&](const GetResult& r) {
    result = r;
  });
  f.sim.run();
  EXPECT_FALSE(result.found);
  EXPECT_EQ(f.store.metrics().counter("get_misses"), 1);
}

TEST(ObjectStore, ReplicationPlacesOnDistinctServers) {
  StoreFixture f;
  const ObjectKey key{"data", "replicated"};
  const auto replicas = f.store.locate(key);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
}

TEST(ObjectStore, LocateIsDeterministic) {
  StoreFixture f;
  const ObjectKey key{"data", "stable"};
  EXPECT_EQ(f.store.locate(key), f.store.locate(key));
}

TEST(ObjectStore, DurableBytesTrackedOnAllReplicas) {
  StoreFixture f;
  const ObjectKey key{"data", "acct"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  const auto replicas = f.store.locate(key);
  for (auto r : replicas) EXPECT_EQ(f.store.durable_bytes(r), 1000);
  util::Bytes elsewhere = 0;
  for (auto s : f.store.servers()) {
    if (s != replicas[0] && s != replicas[1]) {
      elsewhere += f.store.durable_bytes(s);
    }
  }
  EXPECT_EQ(elsewhere, 0);
}

TEST(ObjectStore, OverwriteReclaimsOldBytes) {
  StoreFixture f;
  const ObjectKey key{"data", "rewrite"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  f.store.put(0, key, 500, [] {});
  f.sim.run();
  for (auto r : f.store.locate(key)) {
    EXPECT_EQ(f.store.durable_bytes(r), 500);
  }
  // A multipart upload to the same key retires the old version too.
  const auto id = f.store.initiate_multipart(key);
  f.store.upload_part(0, id, 1, 300, [] {});
  f.store.complete_multipart(id, [] {});
  f.sim.run();
  for (auto s : f.store.servers()) {
    EXPECT_EQ(f.store.durable_bytes(s), f.store.expected_durable_bytes(s))
        << "server " << s;
  }
  for (auto r : f.store.locate(key)) {
    EXPECT_EQ(f.store.durable_bytes(r), 300);
  }
}

TEST(ObjectStore, RemoveFreesSpaceAndMetadata) {
  StoreFixture f;
  const ObjectKey key{"data", "temp"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  bool removed = false;
  f.store.remove(0, key, [&] { removed = true; });
  f.sim.run();
  EXPECT_TRUE(removed);
  EXPECT_FALSE(f.store.exists(key));
  for (auto s : f.store.servers()) EXPECT_EQ(f.store.durable_bytes(s), 0);
}

TEST(ObjectStore, ListFiltersByBucketAndPrefix) {
  StoreFixture f;
  f.store.create_bucket("other");
  f.store.preload(ObjectKey{"data", "a/1"}, 10);
  f.store.preload(ObjectKey{"data", "a/2"}, 10);
  f.store.preload(ObjectKey{"data", "b/1"}, 10);
  f.store.preload(ObjectKey{"other", "a/9"}, 10);
  EXPECT_EQ(f.store.list("data").size(), 3u);
  EXPECT_EQ(f.store.list("data", "a/").size(), 2u);
  EXPECT_EQ(f.store.list("other").size(), 1u);
  EXPECT_TRUE(f.store.list("missing").empty());
}

TEST(ObjectStore, SecondGetHitsFasterTier) {
  StoreFixture f;
  const ObjectKey key{"data", "hot"};
  f.store.preload(key, util::kMiB, /*warm_cache=*/false);
  GetResult first, second;
  f.store.get(0, key, [&](const GetResult& r) { first = r; });
  f.sim.run();
  f.store.get(0, key, [&](const GetResult& r) { second = r; });
  f.sim.run();
  EXPECT_EQ(first.tier, "hdd");   // cold read from durable home
  EXPECT_EQ(second.tier, "dram");  // admitted on first read
}

TEST(ObjectStore, WarmPreloadServesFromDram) {
  StoreFixture f;
  const ObjectKey key{"data", "warm"};
  f.store.preload(key, util::kMiB, /*warm_cache=*/true);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_EQ(result.tier, "dram");
}

TEST(ObjectStore, CacheDisabledAlwaysReadsDurable) {
  ObjectStoreConfig config;
  config.cache_on_get = false;
  config.cache_on_put = false;
  StoreFixture f(2, 3, config);
  const ObjectKey key{"data", "cold"};
  f.store.preload(key, util::kMiB);
  for (int i = 0; i < 2; ++i) {
    GetResult result;
    f.store.get(0, key, [&](const GetResult& r) { result = r; });
    f.sim.run();
    EXPECT_EQ(result.tier, "hdd");
  }
}

TEST(ObjectStore, LargerObjectsTakeLonger) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "small"}, 64 * util::kKiB);
  f.store.preload(ObjectKey{"data", "large"}, 256 * util::kMiB);
  util::TimeNs t_small = 0, t_large = 0;
  const util::TimeNs start = f.sim.now();
  f.store.get(0, ObjectKey{"data", "small"},
              [&](const GetResult&) { t_small = f.sim.now() - start; });
  f.sim.run();
  const util::TimeNs start2 = f.sim.now();
  f.store.get(0, ObjectKey{"data", "large"},
              [&](const GetResult&) { t_large = f.sim.now() - start2; });
  f.sim.run();
  EXPECT_GT(t_large, 10 * t_small);
}

TEST(ObjectStore, GetLatencyRecorded) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "m"}, util::kMiB);
  f.store.get(0, ObjectKey{"data", "m"}, [](const GetResult&) {});
  f.sim.run();
  EXPECT_EQ(f.store.metrics().histogram("get_latency_us").count(), 1);
  EXPECT_GT(f.store.metrics().histogram("get_latency_us").max(), 0);
}

TEST(ObjectStore, PreloadRejectsDuplicates) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "dup"}, 1);
  EXPECT_THROW(f.store.preload(ObjectKey{"data", "dup"}, 1),
               std::invalid_argument);
}

TEST(ObjectStore, MultipartAssemblesObject) {
  StoreFixture f;
  const ObjectKey key{"data", "big"};
  const auto id = f.store.initiate_multipart(key);
  int parts_done = 0;
  f.store.upload_part(0, id, 1, 10 * util::kMiB, [&] { ++parts_done; });
  f.store.upload_part(0, id, 2, 10 * util::kMiB, [&] { ++parts_done; });
  f.sim.run();
  EXPECT_EQ(parts_done, 2);
  EXPECT_FALSE(f.store.exists(key));  // not visible until complete
  bool completed = false;
  f.store.complete_multipart(id, [&] { completed = true; });
  f.sim.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(f.store.object_size(key), 20 * util::kMiB);
}

TEST(ObjectStore, MultipartRejectsDuplicateParts) {
  StoreFixture f;
  const auto id = f.store.initiate_multipart(ObjectKey{"data", "big"});
  f.store.upload_part(0, id, 1, 10, [] {});
  EXPECT_THROW(f.store.upload_part(0, id, 1, 10, [] {}),
               std::invalid_argument);
  EXPECT_THROW(f.store.upload_part(0, 999, 1, 10, [] {}),
               std::invalid_argument);
  EXPECT_THROW(f.store.upload_part(0, id, 2, -1, [] {}),
               std::invalid_argument);
}

TEST(ObjectStore, MultipartNeedsLiveServersLikePut) {
  StoreFixture f;
  const ObjectKey key{"data", "big"};
  const auto id = f.store.initiate_multipart(key);
  f.store.upload_part(0, id, 1, 10, [] {});
  f.sim.run();
  for (auto s : f.store.servers()) f.store.handle_node_failure(s);
  EXPECT_THROW(f.store.put(0, key, 10, [] {}), std::runtime_error);
  EXPECT_THROW(f.store.upload_part(0, id, 2, 10, [] {}), std::runtime_error);
  EXPECT_THROW(f.store.complete_multipart(id, [] {}), std::runtime_error);
  EXPECT_FALSE(f.store.exists(key));
}

TEST(ObjectStore, ReplicaChoicePrefersLocalServer) {
  StoreFixture f;
  // Find an object whose replica set contains a specific server, then GET
  // from that very node; it must serve locally.
  for (int i = 0; i < 32; ++i) {
    const ObjectKey key{"data", "probe" + std::to_string(i)};
    f.store.preload(key, 1000);
    const auto replicas = f.store.locate(key);
    GetResult result;
    f.store.get(replicas[1], key, [&](const GetResult& r) { result = r; });
    f.sim.run();
    EXPECT_EQ(result.served_by, replicas[1]);
  }
}

// Placement balance: many objects spread roughly evenly over servers.
TEST(ObjectStore, PlacementIsBalanced) {
  StoreFixture f(2, 5);
  std::map<cluster::NodeId, int> primary_count;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto replicas =
        f.store.locate(ObjectKey{"data", "obj" + std::to_string(i)});
    ++primary_count[replicas[0]];
  }
  for (auto server : f.store.servers()) {
    EXPECT_GT(primary_count[server], n / 5 / 2) << "server " << server;
    EXPECT_LT(primary_count[server], n / 5 * 2) << "server " << server;
  }
}

TEST(ObjectStore, ReadBlockReadsOnlyTheBlock) {
  StoreFixture f;
  const ObjectKey key{"data", "gen0"};
  f.store.preload(key, 64 * util::kMiB);

  GetResult r;
  f.store.read_block(0, key, 16 * util::kKiB, [&](const GetResult& g) {
    r = g;
  });
  f.sim.run();
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.size, 16 * util::kKiB);  // the block, not the object
  EXPECT_NE(r.served_by, cluster::kInvalidNode);
  EXPECT_EQ(f.store.metrics().counter("block_read_requests"), 1);
}

TEST(ObjectStore, ReadBlockMissingObjectNotFound) {
  StoreFixture f;
  GetResult r;
  r.found = true;
  f.store.read_block(0, ObjectKey{"data", "ghost"}, 4 * util::kKiB,
                     [&](const GetResult& g) { r = g; });
  f.sim.run();
  EXPECT_FALSE(r.found);
}

TEST(ObjectStore, ReadBlockClampsToObjectSize) {
  StoreFixture f;
  const ObjectKey key{"data", "tiny"};
  f.store.preload(key, 512);
  GetResult r;
  f.store.read_block(0, key, 16 * util::kKiB, [&](const GetResult& g) {
    r = g;
  });
  f.sim.run();
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.size, 512);
}

// -- Delayed-repair hysteresis ------------------------------------------

ObjectStoreConfig hysteresis_config(util::TimeNs wait) {
  ObjectStoreConfig config;
  config.repair_hysteresis = wait;
  return config;
}

TEST(ObjectStore, SuspectClearedInWindowCostsNoRepair) {
  StoreFixture f(2, 3, hysteresis_config(util::seconds(5)));
  f.store.preload({"data", "obj"}, 8 * util::kMiB);
  const cluster::NodeId victim =
      f.cluster.nodes_with_label("role=storage").front();

  f.sim.at(util::seconds(1), [&] { f.store.suspect_node(victim); });
  f.sim.at(util::seconds(3), [&] {
    EXPECT_TRUE(f.store.node_suspect(victim));
    f.store.clear_suspect(victim);
  });
  f.sim.run();

  EXPECT_FALSE(f.store.node_suspect(victim));
  EXPECT_EQ(f.store.suspects_cleared(), 1);
  EXPECT_EQ(f.store.metrics().counter("repairs_started"), 0);
  EXPECT_TRUE(f.store.server_alive(victim));
  // The fragments were at risk for the 2 suspect-seconds even though no
  // repair was ever queued.
  EXPECT_GT(f.store.at_risk_fragment_seconds(), 0.0);
}

TEST(ObjectStore, SuspectExpiryEscalatesToFailure) {
  StoreFixture f(2, 3, hysteresis_config(util::seconds(5)));
  f.store.preload({"data", "obj"}, 8 * util::kMiB);
  const cluster::NodeId victim =
      f.cluster.nodes_with_label("role=storage").front();

  f.sim.at(util::seconds(1), [&] { f.store.suspect_node(victim); });
  f.sim.run();

  EXPECT_FALSE(f.store.node_suspect(victim));  // escalated out
  EXPECT_EQ(f.store.metrics().counter("suspects_escalated"), 1);
  EXPECT_FALSE(f.store.server_alive(victim));
  // The escalation re-replicated the victim's replicas elsewhere.
  EXPECT_GT(f.store.metrics().counter("repairs_started"), 0);
}

TEST(ObjectStore, ZeroHysteresisEscalatesImmediately) {
  StoreFixture f;  // repair_hysteresis = 0
  f.store.preload({"data", "obj"}, 8 * util::kMiB);
  const cluster::NodeId victim =
      f.cluster.nodes_with_label("role=storage").front();
  f.store.suspect_node(victim);
  EXPECT_FALSE(f.store.node_suspect(victim));
  EXPECT_FALSE(f.store.server_alive(victim));
}

TEST(ObjectStore, RecoveryClearsPendingSuspicion) {
  StoreFixture f(2, 3, hysteresis_config(util::seconds(5)));
  f.store.preload({"data", "obj"}, 8 * util::kMiB);
  const cluster::NodeId victim =
      f.cluster.nodes_with_label("role=storage").front();
  f.sim.at(util::seconds(1), [&] { f.store.suspect_node(victim); });
  f.sim.at(util::seconds(2), [&] { f.store.handle_node_recovery(victim); });
  f.sim.run();
  EXPECT_FALSE(f.store.node_suspect(victim));
  EXPECT_TRUE(f.store.server_alive(victim));
  EXPECT_EQ(f.store.metrics().counter("suspects_escalated"), 0);
}

}  // namespace
}  // namespace evolve::storage
