// H3-style distributed object store over the simulated cluster.
//
// Buckets hold named objects. Objects are placed on storage servers by
// rendezvous (HRW) hashing with R-way replication or k+m erasure
// coding; placement is failure-domain aware by default: the HRW order
// is filtered so no rack holds more than ceil(copies / live racks)
// copies/fragments of one object, which is what lets an EC stripe
// survive a whole-rack outage. Every server runs a tiered cache: the
// durable home of an object is the server's slowest device; faster
// devices act as read caches. GET prefers the replica closest to the
// client (same node, then same rack); an erasure-coded GET reads the k
// nearest surviving fragments and reconstructs through parity when data
// fragments are dead or fail their checksum.
//
// All data movement goes through the shared network fabric and the
// per-device queues, so storage traffic contends with shuffle and
// collective traffic — the central "converged storage" property of EVOLVE.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/tiered_cache.hpp"
#include "trace/tracer.hpp"
#include "util/circuit_breaker.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::storage {

struct ObjectKey {
  std::string bucket;
  std::string name;

  std::string full() const { return bucket + "/" + name; }
  /// Orders by (bucket, name) without building either string; distinct
  /// keys never compare equal.
  bool operator<(const ObjectKey& other) const {
    return std::tie(bucket, name) < std::tie(other.bucket, other.name);
  }
};

enum class Redundancy {
  kReplication,  // R full copies
  kErasure,      // k data + m parity fragments (Reed-Solomon-style)
};

struct ObjectStoreConfig {
  Redundancy redundancy = Redundancy::kReplication;
  int replicas = 2;        // replication factor (kReplication)
  /// k (kErasure): any k of the k+m fragments reconstruct the object.
  /// An object stays readable while at most m fragments are dead; it is
  /// permanently lost only when MORE than m fragments are gone.
  int ec_data = 4;
  /// m (kErasure): parity fragments, i.e. how many fragment deaths a
  /// stripe tolerates. m dead = still recoverable; m+1 dead = lost.
  int ec_parity = 2;
  /// Encode/decode compute cost charged at the coordinating server
  /// (PUT) or the reading client (GET stripe assembly).
  double ec_ns_per_byte = 0.3;
  /// Extra per-logical-byte decode cost when a GET has to reconstruct
  /// through parity (some fragment in the read set is not a data
  /// fragment) — the modeled Reed-Solomon recovery math.
  double ec_reconstruct_ns_per_byte = 0.5;
  /// Failure-domain-aware placement: walk the HRW ranking but skip
  /// servers whose rack already holds ceil(copies / live racks)
  /// copies/fragments of this object (relaxed only when infeasible).
  /// Applies to replication and erasure coding alike. Disable to get
  /// the rack-oblivious pure-HRW placement (for A/B durability runs).
  bool rack_aware_placement = true;
  util::TimeNs metadata_latency = util::micros(200);
  bool cache_on_put = true;   // write-through into the cache tiers
  bool cache_on_get = true;   // promote on read
  // Fraction of each cache device actually granted to the store
  // (the rest is left to co-located applications).
  double cache_capacity_fraction = 1.0;

  // -- Failure handling / background repair --------------------------
  /// Re-replicate degraded objects onto surviving servers after a crash.
  bool repair = true;
  /// Concurrent repair transfers.
  int repair_concurrency = 2;
  /// Grace delay between detecting a degraded object and repairing it
  /// (models failure-detection + repair-scheduling lag).
  util::TimeNs repair_delay = util::millis(500);
  /// Aggregate admission cap for background rebuild traffic in bytes/s
  /// (the fabric bytes a repair injects: one copy for replication, k
  /// fragments for an EC reconstruction). Repairs whose admission would
  /// exceed the cap wait in their concurrency slot, so a rebuild storm
  /// can be throttled below foreground GET/PUT traffic. 0 = unthrottled.
  double rebuild_bandwidth_bytes_per_s = 0;
  /// Seeded jitter fraction on repair scheduling delays (the detection
  /// grace and the post-recovery re-scan pumps): each delay stretches by
  /// uniform [0, repair_jitter)·delay, desynchronizing the repair wave
  /// that mass recovery or a partition heal would otherwise fire all at
  /// once. 0 (default) = no jitter, bit-identical to the old behavior.
  double repair_jitter = 0.0;
  /// Seed for the repair-jitter RNG.
  std::uint64_t repair_seed = 1;
  /// Delayed-repair hysteresis: the grace a *suspected* server gets
  /// before its loss is acted on. suspect_node() starts the clock; a
  /// node cleared (clear_suspect) within the window costs zero rebuild
  /// traffic, while one that stays silent escalates to
  /// handle_node_failure when the window expires. Fragments on a
  /// suspect server accrue at_risk_fragment_seconds for the whole wait
  /// — the risk is real even though no repair has been queued yet.
  /// 0 (default) = no hysteresis: suspect_node escalates immediately.
  util::TimeNs repair_hysteresis = 0;

  // -- Gray-failure mitigation (GET path) ------------------------------
  /// Hedged reads: if a GET is still short of its landings after the
  /// hedge delay, fire one extra read at the nearest untried holder
  /// (another replica, or an unused surviving fragment); the first
  /// finishers win and the loser is cancelled and accounted.
  bool hedged_reads = false;
  /// Hedge delay: the p-quantile of the store's own GET latency.
  metrics::HedgePolicy hedge{95.0, util::millis(2), 20};
  /// Verify payload checksums at read time: a corrupted replica is
  /// never surfaced — the read transparently fails over to a clean
  /// replica and the bad copy is dropped and queued for repair.
  bool checksum_reads = false;
  /// Background scrubber: periodically verifies stored replicas and
  /// routes corrupted ones into the repair path. Runs only while
  /// corruption exists, so the simulation still drains.
  bool scrub = false;
  util::TimeNs scrub_interval = util::millis(500);
  /// Replicas verified per scrub pass (bounds scrub I/O per interval).
  int scrub_replicas_per_pass = 64;

  /// Storage overhead factor: durable bytes per logical byte.
  double storage_overhead() const {
    return redundancy == Redundancy::kReplication
               ? static_cast<double>(replicas)
               : static_cast<double>(ec_data + ec_parity) / ec_data;
  }
};

struct GetResult {
  bool found = false;
  util::Bytes size = 0;
  cluster::NodeId served_by = cluster::kInvalidNode;
  /// Device tier name the read was served from ("dram", "nvme", "hdd").
  std::string tier;
  /// The payload failed its checksum. Only ever true with
  /// `checksum_reads` off — verified reads fail over to a clean replica
  /// (or report not-found) instead of surfacing corruption.
  bool corrupted = false;
  bool hedged = false;     // a hedge read was fired for this GET
  bool hedge_won = false;  // ... and the hedge replica/fragment was used
  /// The read ran below full redundancy: a replication GET against an
  /// under-replicated object, or an EC GET that could not use the k
  /// data fragments and reconstructed through parity.
  bool degraded = false;
  /// EC only: parity fragments in the read set (0 on a clean read).
  int parity_fragments_used = 0;
};

/// Snapshot of redundancy health across all objects. Permanent loss is
/// defined per redundancy scheme: for replication an object is lost
/// when zero live replicas remain; for erasure coding it is lost only
/// when more than m fragments are dead (m dead = still recoverable by
/// any k of the survivors, m+1 dead = unrecoverable).
struct DurabilityStats {
  int objects_full = 0;      // at placed redundancy
  int objects_degraded = 0;  // readable, but fragments/replicas missing
  int objects_lost = 0;      // currently unreadable (> m fragments dead)
  /// Fragments/replicas missing from degraded (still-readable) objects;
  /// what the rebuild queue still owes.
  int missing_fragments = 0;
  /// Time integral of `missing_fragments` (fragment-seconds at risk) —
  /// the EC analogue of under-replicated object-seconds.
  double at_risk_fragment_seconds = 0;
  std::int64_t objects_lost_total = 0;  // cumulative loss transitions
};

using PutCallback = std::function<void()>;
using GetCallback = std::function<void(const GetResult&)>;

class ObjectStore {
 public:
  /// `servers`: nodes that act as storage servers. Each must have at
  /// least one device; the slowest (last) device is the durable home.
  ObjectStore(sim::Simulation& sim, const cluster::Cluster& cluster,
              net::Fabric& fabric, IoSubsystem& io,
              std::vector<cluster::NodeId> servers,
              ObjectStoreConfig config = {});

  void create_bucket(const std::string& bucket);
  bool bucket_exists(const std::string& bucket) const;

  /// Writes an object of `size` bytes from `client`. Completes when all
  /// replicas are durable.
  void put(cluster::NodeId client, const ObjectKey& key, util::Bytes size,
           PutCallback on_done);

  /// Reads an object to `client`. Completes when the last byte arrives.
  void get(cluster::NodeId client, const ObjectKey& key, GetCallback on_done);

  /// Reads `bytes` of `key`'s payload to `client` — the point-read path
  /// stateful layers use (tablet block/index reads against a flushed
  /// generation): the read race of get() with one holder and a fabric
  /// transfer of only the block, never the whole object. No hedging;
  /// never admits into the cache.
  void read_block(cluster::NodeId client, const ObjectKey& key,
                  util::Bytes bytes, GetCallback on_done);

  /// Installs an object instantly (no simulated time): metadata, durable
  /// bytes on every replica, and optional cache admission. Benchmarks use
  /// this to stage input datasets without simulating the ingest.
  void preload(const ObjectKey& key, util::Bytes size, bool warm_cache = false);

  /// Deletes an object (metadata-latency cost).
  void remove(cluster::NodeId client, const ObjectKey& key,
              PutCallback on_done);

  bool exists(const ObjectKey& key) const;
  std::optional<util::Bytes> object_size(const ObjectKey& key) const;

  /// Attaches a span tracer: GET/PUT/repair become kStorage spans (with
  /// the serving tier as an attribute). Null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Names of objects in a bucket with the given prefix, sorted.
  std::vector<std::string> list(const std::string& bucket,
                                const std::string& prefix = "") const;

  // -- Multipart upload (large-object ingest path) --------------------
  /// Starts a multipart upload; returns an upload id.
  std::int64_t initiate_multipart(const ObjectKey& key);
  /// Uploads one part; parts may be uploaded concurrently.
  void upload_part(cluster::NodeId client, std::int64_t upload_id,
                   int part_number, util::Bytes size, PutCallback on_done);
  /// Completes the upload, making the assembled object visible.
  void complete_multipart(std::int64_t upload_id, PutCallback on_done);

  /// Where `key` is placed among the live servers (primary first): the
  /// first placed copies of the rack-capped HRW walk. Exposed so the
  /// dataflow engine can do locality-aware task placement.
  std::vector<cluster::NodeId> locate(const ObjectKey& key) const;

  const std::vector<cluster::NodeId>& servers() const { return servers_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Total durable bytes on one server.
  util::Bytes durable_bytes(cluster::NodeId server) const;

  /// The cache of one server (tests/benchmarks inspect hit ratios).
  const TieredCache& cache(cluster::NodeId server) const;

  // -- Failure handling ------------------------------------------------
  /// Server crash with media loss: its replicas vanish, its cache is
  /// wiped, and every degraded-but-readable object is queued for
  /// background re-replication onto surviving servers. An object is
  /// permanently lost only when its last replica died (replication) or
  /// more than m of its fragments are dead (erasure coding; losing
  /// exactly m still reconstructs): GETs then return not-found, but
  /// metadata stays so callers can observe it.
  /// No-op for nodes that are not storage servers.
  void handle_node_failure(cluster::NodeId node);
  /// Recovery: the server rejoins EMPTY (cold cache, no replicas) and
  /// becomes a repair target again; stalled repairs re-arm.
  void handle_node_recovery(cluster::NodeId node);
  bool server_alive(cluster::NodeId node) const {
    return dead_servers_.count(node) == 0;
  }

  // -- Delayed-repair hysteresis (suspected servers) -------------------
  /// Reports `node` as possibly failed (unreachable / quarantined — not
  /// confirmed media loss). With repair_hysteresis > 0 the store waits
  /// before rebuilding: the node's replicas stay in metadata while
  /// accruing at-risk seconds, and only if the window expires without
  /// clear_suspect does the node escalate to handle_node_failure. With
  /// hysteresis 0 this IS handle_node_failure. No-op for dead or
  /// non-server nodes.
  void suspect_node(cluster::NodeId node);
  /// The node proved alive within the window: the pending escalation is
  /// cancelled and no rebuild was ever queued. No-op when not suspect.
  void clear_suspect(cluster::NodeId node);
  bool node_suspect(cluster::NodeId node) const {
    return suspects_.count(node) != 0;
  }
  /// Suspects cleared within their window (rebuild storms avoided).
  std::int64_t suspects_cleared() const {
    return metrics_.counter("suspects_cleared");
  }

  const ObjectStoreConfig& config() const { return config_; }

  // -- Fencing (zombie-write rejection) --------------------------------
  /// Raises the minimum acceptable write epoch for `node` (wired from
  /// LeaseManager::on_expire). A node on the far side of a partition
  /// keeps running with its old epoch; once fenced, its writes are
  /// zombie writes and put_fenced rejects them.
  void fence_node(cluster::NodeId node, std::int64_t epoch);
  /// Epoch-stamped PUT. Returns false — synchronously, without invoking
  /// `on_done` or moving any bytes — when `epoch` is below the client's
  /// fence epoch; otherwise behaves exactly like put() and returns true.
  bool put_fenced(cluster::NodeId client, std::int64_t epoch,
                  const ObjectKey& key, util::Bytes size, PutCallback on_done);
  /// Minimum epoch `node` must present (1 = never fenced).
  std::int64_t fence_epoch(cluster::NodeId node) const;
  std::int64_t writes_fenced() const {
    return metrics_.counter("writes_fenced");
  }

  /// Optional circuit breaker guarding the background repair scan: when
  /// open, pump_repairs defers instead of launching rebuild traffic into
  /// a fabric that keeps failing it. Null (default) disables.
  void set_repair_breaker(util::CircuitBreaker* breaker) {
    repair_breaker_ = breaker;
  }

  // -- Gray failures: silent corruption -------------------------------
  /// Marks one stored replica as bit-rotten: its payload no longer
  /// matches its checksum. Returns false if `server` holds no replica
  /// of `key`. Replication-path objects only.
  bool corrupt_replica(const ObjectKey& key, cluster::NodeId server);
  /// Corrupts up to `count` randomly chosen stored replicas (seeded,
  /// deterministic). With `spare_last_clean` an object's last clean
  /// replica is never corrupted, so data stays recoverable. Returns how
  /// many replicas were actually corrupted.
  int corrupt_random_replicas(std::uint64_t seed, int count,
                              bool spare_last_clean = true);
  bool replica_corrupted(const ObjectKey& key, cluster::NodeId server) const {
    return corrupted_replicas_.count({key, server}) != 0;
  }
  int corrupted_replica_count() const {
    return static_cast<int>(corrupted_replicas_.size());
  }

  // Hedge / checksum / scrub statistics.
  std::int64_t hedges_launched() const {
    return metrics_.counter("hedges_launched");
  }
  std::int64_t hedge_wins() const { return metrics_.counter("hedge_wins"); }
  std::int64_t hedges_cancelled() const {
    return metrics_.counter("hedges_cancelled");
  }
  util::Bytes hedge_wasted_bytes() const {
    return metrics_.counter("hedge_wasted_bytes");
  }
  std::int64_t checksum_failures() const {
    return metrics_.counter("checksum_failures");
  }
  std::int64_t corrupted_reads_surfaced() const {
    return metrics_.counter("corrupted_reads_surfaced");
  }
  std::int64_t replicas_scrubbed() const {
    return metrics_.counter("replicas_scrubbed");
  }

  /// Objects currently holding fewer live replicas/fragments than
  /// placed, but still readable.
  int under_replicated_objects() const { return underrep_count_; }
  /// Objects that became permanently unreadable (cumulative).
  int lost_objects() const {
    return static_cast<int>(metrics_.counter("objects_lost"));
  }
  /// Time-weighted integral of under-replicated objects (object·s).
  double under_replicated_object_seconds() const;
  /// Time-weighted integral of missing fragments/replicas on degraded
  /// objects (fragment·s) — how long data sat one step closer to loss.
  double at_risk_fragment_seconds() const;
  /// Current + cumulative durability snapshot (see DurabilityStats).
  DurabilityStats durability_stats() const;
  /// Total time repairs spent waiting on the rebuild bandwidth cap.
  double rebuild_throttle_wait_seconds() const {
    return static_cast<double>(rebuild_throttle_wait_ns_) / 1e9;
  }
  /// Durable bytes `server` should hold according to live metadata —
  /// conservation check for tests (valid once transfers have drained).
  util::Bytes expected_durable_bytes(cluster::NodeId server) const;

 private:
  struct ObjectMeta {
    util::Bytes size = 0;
    /// Durable bytes held per server (== size for replication, the
    /// fragment size for erasure coding).
    util::Bytes per_server_bytes = 0;
    std::vector<cluster::NodeId> replicas;  // live holders, primary first
    /// Fragment id held by replicas[i] (parallel to `replicas`). For
    /// erasure coding ids 0..k-1 are data fragments and k..k+m-1 are
    /// parity; a read set that is not exactly {0..k-1} reconstructs.
    /// For replication the ids merely label copies.
    std::vector<int> fragments;
    /// Bumped on every replica-set change; in-flight repairs abandon
    /// their result when the version moved under them.
    int version = 0;
  };

  enum class Health { kFull, kDegraded, kLost };

  /// Durable bytes one server holds for an object of `size`.
  util::Bytes per_server_bytes(util::Bytes size) const;
  struct ServerState {
    cluster::NodeId node = cluster::kInvalidNode;
    std::unique_ptr<TieredCache> cache;     // fast tiers only
    std::vector<std::string> cache_tiers;   // device name per cache tier
    std::string durable_device;
    util::Bytes durable_used = 0;
  };
  struct MultipartUpload {
    ObjectKey key;
    util::Bytes total = 0;
    std::map<int, util::Bytes> parts;
  };

  ServerState& server_state(cluster::NodeId node);
  const ServerState& server_state(cluster::NodeId node) const;

  /// Writes `size` bytes durably on `server`, then `on_done`.
  void write_durable(cluster::NodeId server, const ObjectKey& key,
                     util::Bytes size, std::function<void()> on_done);

  // -- Write path (DESIGN.md §13, "Write path") ------------------------
  /// locate() for a write: throws std::runtime_error when fewer live
  /// servers remain than the object needs to be readable.
  std::vector<cluster::NodeId> write_targets(const ObjectKey& key) const;
  /// Writes the metadata of a new version of `key` placed on `replicas`
  /// (no bytes move), retiring the previous version first; a version
  /// born degraded is queued for repair.
  const ObjectMeta& install(const ObjectKey& key, util::Bytes size,
                            std::vector<cluster::NodeId> replicas);
  /// Forgets `meta`'s placement (overwrite and delete): durable bytes,
  /// cache entries, suspect at-risk counts, corruption marks, and the
  /// under-replication and at-risk integrals.
  void retire(const ObjectKey& key, const ObjectMeta& meta);
  /// The primary fan-out of an object of `size` bytes already on
  /// `replicas.front()`: after the optional `encode` delay, the primary
  /// writes its copy or fragment and sends one to every peer, which
  /// writes it. `finish` runs once per replica.
  void fan_out(const ObjectKey& key,
               const std::vector<cluster::NodeId>& replicas, util::Bytes size,
               std::optional<util::TimeNs> encode, trace::SpanId span,
               const PutCallback& finish);
  /// The erasure codec over `size` logical bytes: the encode at a
  /// write's primary, the decode at a GET's client or a rebuild's
  /// target. Replication has no codec step, so its writes and rebuilds
  /// take no zero-delay hop.
  std::optional<util::TimeNs> codec_ns(util::Bytes size) const;

  /// Distance rank of `server` from `client`: 0 for the node itself, 1
  /// for a server in its rack, 2 otherwise.
  int proximity(cluster::NodeId server, cluster::NodeId client) const;

  /// One branch of a read race: the device read on one holder, then
  /// the fabric transfer of its bytes to the client.
  struct ReadBranch {
    cluster::NodeId server = cluster::kInvalidNode;
    int fragment = -1;
    std::string tier;
    net::FlowId flow = 0;
    bool flow_active = false;
    bool landed = false;
    bool hedge = false;
    bool rotten = false;  // read a rotten payload (checksums off)
  };
  /// One read (DESIGN.md §13, "Read race"): branches race until `k` of
  /// them land — 1 for replicated GETs and block reads, ec_data for
  /// erasure-coded GETs. Everything else that differs between those
  /// reads is decided here, at the entry point.
  struct Read {
    ObjectKey key;
    cluster::NodeId client = cluster::kInvalidNode;
    util::Bytes size = 0;          // reported: the object, or the block
    util::Bytes branch_bytes = 0;  // read and moved by each branch
    int k = 1;
    /// Fragment race: every launch pays the metadata round, parity in
    /// the landed set reconstructs, the client decodes, and the result
    /// reports the nearest fragment rather than a winner.
    bool erasure = false;
    /// Point read: block_read_* metric names, never admits into the
    /// cache, never hedges.
    bool block = false;
    bool degraded = false;  // object below placement when the read began
    bool hedged = false;
    bool done = false;
    int waiting = 0;   // landings still needed
    int inflight = 0;  // launched branches neither landed nor finished
    util::TimeNs start = 0;
    trace::SpanId span = trace::kNoSpan;
    trace::SpanId hedge_span = trace::kNoSpan;
    GetCallback cb;
    std::set<cluster::NodeId> tried;  // holders any branch touched
    std::vector<ReadBranch> branches;
  };

  /// get() (`block` == 0) and read_block(): the miss/lost preamble,
  /// then the first launches and the hedge timer.
  void start_read(cluster::NodeId client, const ObjectKey& key,
                  util::Bytes block, GetCallback on_done);
  /// Launches one branch against `server`: tier selection, device read,
  /// checksum verification (failing over to the nearest untried clean
  /// holder), then the fabric transfer to the client.
  void launch_branch(const std::shared_ptr<Read>& read, cluster::NodeId server,
                     int fragment, bool hedge);
  /// Nearest untried holder of the read's object, clean ones first
  /// (kInvalidNode when every holder was tried).
  std::pair<cluster::NodeId, int> next_holder(const Read& read) const;
  /// A branch's transfer arrived: completes the read on the k-th landing.
  void land_branch(const std::shared_ptr<Read>& read, std::size_t branch);
  /// A branch found no clean holder to fail over to: the read reports
  /// not-found once fewer than the missing landings are still in flight.
  void abandon_branch(const std::shared_ptr<Read>& read);
  /// k branches landed: cancel the losers, then decode (erasure) and
  /// deliver.
  void complete_read(const std::shared_ptr<Read>& read);

  /// Drops a corrupted replica from its object's replica set and queues
  /// re-replication (the checksum-detected analogue of a media crash).
  void drop_corrupted_replica(const ObjectKey& key, cluster::NodeId server);
  void purge_corrupted(const ObjectKey& key);
  void arm_scrub();
  void scrub_pass();

  /// Replicas/fragments the object should hold (capped by server count).
  int placed_copies() const;
  /// Live copies below which the object is unreadable (1 or k).
  int min_live_copies() const;
  Health health(const ObjectMeta& meta) const;
  /// Missing fragments/replicas a degraded object owes the rebuild
  /// queue (0 when full or lost).
  int at_risk_fragments(const ObjectMeta& meta) const;
  /// All live servers ranked by rendezvous hash for `key`.
  std::vector<cluster::NodeId> ranked_servers(const ObjectKey& key) const;
  /// The rack-capped HRW walk behind placement and the repair target:
  /// extends `chosen` to `want` servers in `ranked` order, skipping any
  /// server whose rack already holds ceil(`spread` / live racks) of
  /// `chosen` (when rack-aware placement is on), then tops up in plain
  /// HRW order when that cap is infeasible.
  std::vector<cluster::NodeId> hrw_walk(
      const std::vector<cluster::NodeId>& ranked,
      std::vector<cluster::NodeId> chosen, std::size_t want,
      int spread) const;
  /// Folds the running under-replication integral up to now, then
  /// applies `delta` to the current count.
  void shift_underrep(int delta);
  /// Same for the missing-fragment (at-risk) integral.
  void shift_at_risk(int delta);
  /// Applies a replica-set health transition: under-replication and
  /// at-risk accounting, loss counting, and repair queueing.
  void note_health_change(const ObjectKey& key, const ObjectMeta& meta,
                          Health before, int risk_before);
  /// A replica left `node` outside the failure path (delete, overwrite,
  /// corruption drop): keeps the suspect at-risk count in sync.
  void note_replica_removed(cluster::NodeId node);
  void enqueue_repair(const ObjectKey& key);
  void pump_repairs();
  /// One rebuild (DESIGN.md §13, "Write path"): `waiting` source
  /// copies or fragments still to land at `target`, then the optional
  /// decode, then finish_repair.
  struct Rebuild {
    ObjectKey key;
    cluster::NodeId target = cluster::kInvalidNode;
    int version = 0;
    int waiting = 0;
    util::Bytes fragment = 0;  // bytes each source reads and moves
    std::optional<util::TimeNs> decode;
    trace::SpanId span = trace::kNoSpan;
  };
  /// Claims a concurrency slot and (if capped) waits out the rebuild
  /// bandwidth admission before starting the transfers.
  void start_repair(const ObjectKey& key);
  /// Picks the target and streams the min_live_copies() survivors
  /// nearest it there.
  void begin_repair_transfers(const ObjectKey& key, int version);
  void finish_repair(const ObjectKey& key, cluster::NodeId target,
                     int version);

  sim::Simulation& sim_;
  const cluster::Cluster& cluster_;
  net::Fabric& fabric_;
  IoSubsystem& io_;
  std::vector<cluster::NodeId> servers_;
  ObjectStoreConfig config_;
  std::map<std::string, bool> buckets_;
  std::map<ObjectKey, ObjectMeta> objects_;
  std::map<cluster::NodeId, ServerState> server_states_;
  std::map<std::int64_t, MultipartUpload> uploads_;
  std::int64_t next_upload_id_ = 1;
  // Failure/repair state.
  std::set<cluster::NodeId> dead_servers_;
  /// Suspected (possibly failed) servers awaiting the hysteresis window.
  struct SuspectState {
    int at_risk = 0;  // replicas counted into the at-risk integral
    sim::EventId escalate = 0;
  };
  std::map<cluster::NodeId, SuspectState> suspects_;
  /// Pending repairs. Drained risk-first: the object with the fewest
  /// surviving spare copies (an EC stripe one fragment from loss) is
  /// repaired before a freshly degraded one, ties in key order.
  std::set<ObjectKey> repair_queued_;
  std::set<ObjectKey> repair_stalled_;  // no live target; retry on recovery
  int repairs_in_flight_ = 0;
  /// Token-bucket edge for the rebuild bandwidth cap: the sim time at
  /// which the next repair's fabric bytes may be admitted.
  util::TimeNs rebuild_admit_at_ = 0;
  util::TimeNs rebuild_throttle_wait_ns_ = 0;
  util::Rng repair_rng_;  // repair-delay jitter (config.repair_seed)
  util::CircuitBreaker* repair_breaker_ = nullptr;  // non-owned, optional
  bool repair_pump_armed_ = false;  // breaker-deferred pump pending
  // Fencing state: minimum write epoch per node (absent = 1).
  std::map<cluster::NodeId, std::int64_t> fence_epoch_;
  // Gray-failure state: replicas whose stored payload is bit-rotten.
  std::set<std::pair<ObjectKey, cluster::NodeId>> corrupted_replicas_;
  /// Entries under scrub verification right now (subset of the above;
  /// they stay corrupted until the verification read completes).
  std::set<std::pair<ObjectKey, cluster::NodeId>> scrub_inflight_;
  bool scrub_armed_ = false;
  int underrep_count_ = 0;
  util::TimeNs underrep_last_ = 0;
  double underrep_ns_ = 0;  // object·ns integral up to underrep_last_
  int at_risk_count_ = 0;   // missing fragments on degraded objects
  util::TimeNs at_risk_last_ = 0;
  double at_risk_ns_ = 0;   // fragment·ns integral up to at_risk_last_
  metrics::Registry metrics_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace evolve::storage
