#include "storage/object_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace evolve::storage {

namespace {

/// Stateless 64-bit mix for rendezvous hashing.
std::uint64_t mix_hash(std::uint64_t seed) {
  return util::splitmix64(seed);
}

std::uint64_t string_hash(const std::string& text) {
  // FNV-1a, then a SplitMix finalizer for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return mix_hash(h);
}

}  // namespace

ObjectStore::ObjectStore(sim::Simulation& sim,
                         const cluster::Cluster& cluster, net::Fabric& fabric,
                         IoSubsystem& io, std::vector<cluster::NodeId> servers,
                         ObjectStoreConfig config)
    : sim_(sim),
      cluster_(cluster),
      fabric_(fabric),
      io_(io),
      servers_(std::move(servers)),
      config_(config),
      repair_rng_(config.repair_seed) {
  if (servers_.empty()) {
    throw std::invalid_argument("object store needs at least one server");
  }
  if (config_.replicas < 1) {
    throw std::invalid_argument("replicas must be >= 1");
  }
  if (config_.redundancy == Redundancy::kErasure) {
    if (config_.ec_data < 1 || config_.ec_parity < 0) {
      throw std::invalid_argument("bad erasure-coding parameters");
    }
    if (config_.ec_data + config_.ec_parity >
        static_cast<int>(servers_.size())) {
      throw std::invalid_argument(
          "erasure coding needs at least k+m storage servers");
    }
  }
  if (config_.cache_capacity_fraction <= 0 ||
      config_.cache_capacity_fraction > 1.0) {
    throw std::invalid_argument("cache_capacity_fraction must be in (0, 1]");
  }
  for (cluster::NodeId node : servers_) {
    const auto& spec = cluster_.node(node);
    if (spec.devices.empty()) {
      throw std::invalid_argument("storage server '" + spec.name +
                                  "' has no devices");
    }
    ServerState state;
    state.node = node;
    state.durable_device = spec.devices.back().name;
    std::vector<TierConfig> tiers;
    for (std::size_t i = 0; i + 1 < spec.devices.size(); ++i) {
      tiers.push_back(TierConfig{
          spec.devices[i].name,
          static_cast<util::Bytes>(
              static_cast<double>(spec.devices[i].capacity) *
              config_.cache_capacity_fraction)});
      state.cache_tiers.push_back(spec.devices[i].name);
    }
    if (tiers.empty()) {
      // Single-device server: the durable device is also the only "cache".
      tiers.push_back(TierConfig{spec.devices.back().name, 0});
      state.cache_tiers.push_back(spec.devices.back().name);
    }
    state.cache = std::make_unique<TieredCache>(std::move(tiers));
    server_states_.emplace(node, std::move(state));
  }
}

ObjectStore::ServerState& ObjectStore::server_state(cluster::NodeId node) {
  auto it = server_states_.find(node);
  if (it == server_states_.end()) {
    throw std::out_of_range("node is not a storage server");
  }
  return it->second;
}

const ObjectStore::ServerState& ObjectStore::server_state(
    cluster::NodeId node) const {
  auto it = server_states_.find(node);
  if (it == server_states_.end()) {
    throw std::out_of_range("node is not a storage server");
  }
  return it->second;
}

void ObjectStore::create_bucket(const std::string& bucket) {
  if (bucket.empty()) throw std::invalid_argument("empty bucket name");
  // full() names a key in the caches and the placement hash; it stays
  // unique only while no bucket holds a '/'.
  if (bucket.find('/') != std::string::npos) {
    throw std::invalid_argument("bucket name contains '/': " + bucket);
  }
  buckets_[bucket] = true;
}

bool ObjectStore::bucket_exists(const std::string& bucket) const {
  return buckets_.count(bucket) != 0;
}

std::vector<cluster::NodeId> ObjectStore::ranked_servers(
    const ObjectKey& key) const {
  // Rendezvous hashing: rank live servers by hash(key, server).
  std::vector<std::pair<std::uint64_t, cluster::NodeId>> ranked;
  ranked.reserve(servers_.size());
  const std::uint64_t kh = string_hash(key.full());
  for (cluster::NodeId node : servers_) {
    if (dead_servers_.count(node) != 0) continue;
    ranked.emplace_back(mix_hash(kh ^ (0x9e3779b97f4a7c15ULL *
                                       static_cast<std::uint64_t>(node + 1))),
                        node);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<cluster::NodeId> out;
  out.reserve(ranked.size());
  for (const auto& [hash, node] : ranked) out.push_back(node);
  return out;
}

int ObjectStore::placed_copies() const {
  const int wanted = config_.redundancy == Redundancy::kReplication
                         ? config_.replicas
                         : config_.ec_data + config_.ec_parity;
  return std::min<int>(wanted, static_cast<int>(servers_.size()));
}

int ObjectStore::min_live_copies() const {
  return config_.redundancy == Redundancy::kReplication ? 1
                                                        : config_.ec_data;
}

ObjectStore::Health ObjectStore::health(const ObjectMeta& meta) const {
  // Lost means fewer than k live fragments (i.e. more than m dead) for
  // erasure coding, or zero live replicas for replication. Exactly m
  // dead fragments is still recoverable.
  const int live = static_cast<int>(meta.replicas.size());
  if (live < min_live_copies()) return Health::kLost;
  if (live < placed_copies()) return Health::kDegraded;
  return Health::kFull;
}

int ObjectStore::at_risk_fragments(const ObjectMeta& meta) const {
  const int live = static_cast<int>(meta.replicas.size());
  if (live < min_live_copies()) return 0;  // lost outright, not at risk
  return std::max(0, placed_copies() - live);
}

std::vector<cluster::NodeId> ObjectStore::hrw_walk(
    const std::vector<cluster::NodeId>& ranked,
    std::vector<cluster::NodeId> chosen, std::size_t want, int spread) const {
  const auto held = [&chosen](cluster::NodeId node) {
    return std::find(chosen.begin(), chosen.end(), node) != chosen.end();
  };
  if (config_.rack_aware_placement) {
    // Failure-domain spread: let no rack exceed ceil(spread / live
    // racks), so a whole-rack outage kills at most that many fragments
    // of any one stripe.
    std::set<int> live_racks;
    for (cluster::NodeId node : ranked) {
      live_racks.insert(cluster_.node(node).rack);
    }
    const int racks = std::max<int>(1, static_cast<int>(live_racks.size()));
    const int cap = (spread + racks - 1) / racks;
    std::map<int, int> per_rack;
    for (cluster::NodeId node : chosen) ++per_rack[cluster_.node(node).rack];
    for (cluster::NodeId node : ranked) {
      if (chosen.size() >= want) break;
      if (held(node)) continue;
      int& used = per_rack[cluster_.node(node).rack];
      if (used >= cap) continue;
      ++used;
      chosen.push_back(node);
    }
  }
  // Uneven rack sizes can make the cap infeasible (a rack with fewer
  // live servers than its share); top up in plain HRW order.
  for (cluster::NodeId node : ranked) {
    if (chosen.size() >= want) break;
    if (!held(node)) chosen.push_back(node);
  }
  return chosen;
}

std::vector<cluster::NodeId> ObjectStore::locate(const ObjectKey& key) const {
  const auto ranked = ranked_servers(key);
  const std::size_t count =
      std::min<std::size_t>(placed_copies(), ranked.size());
  return hrw_walk(ranked, {}, count, static_cast<int>(count));
}

int ObjectStore::proximity(cluster::NodeId server,
                           cluster::NodeId client) const {
  if (server == client) return 0;
  return fabric_.topology().same_rack(server, client) ? 1 : 2;
}

void ObjectStore::write_durable(cluster::NodeId server, const ObjectKey& key,
                                util::Bytes size,
                                std::function<void()> on_done) {
  // A write that raced a crash lands nowhere: the crash handler already
  // dropped this server from the object's replica set (and wiped its
  // accounting), so skipping keeps durable_used consistent even if the
  // server has since recovered empty.
  if (dead_servers_.count(server) != 0) {
    sim_.defer(std::move(on_done));
    return;
  }
  if (auto it = objects_.find(key); it != objects_.end()) {
    const auto& replicas = it->second.replicas;
    if (std::find(replicas.begin(), replicas.end(), server) ==
        replicas.end()) {
      sim_.defer(std::move(on_done));
      return;
    }
  }
  ServerState& state = server_state(server);
  io_.device(server, state.durable_device)
      .submit(IoKind::kWrite, size, std::move(on_done));
  state.durable_used += size;
  if (config_.cache_on_put) {
    state.cache->put(key.full(), size);
  }
}

util::Bytes ObjectStore::per_server_bytes(util::Bytes size) const {
  if (config_.redundancy == Redundancy::kReplication) return size;
  return (size + config_.ec_data - 1) / config_.ec_data;  // fragment
}

std::optional<util::TimeNs> ObjectStore::codec_ns(util::Bytes size) const {
  if (config_.redundancy == Redundancy::kReplication) return std::nullopt;
  return static_cast<util::TimeNs>(
      std::ceil(static_cast<double>(size) * config_.ec_ns_per_byte));
}

std::vector<cluster::NodeId> ObjectStore::write_targets(
    const ObjectKey& key) const {
  auto replicas = locate(key);
  if (static_cast<int>(replicas.size()) < min_live_copies()) {
    throw std::runtime_error("put: not enough live storage servers");
  }
  return replicas;
}

const ObjectStore::ObjectMeta& ObjectStore::install(
    const ObjectKey& key, util::Bytes size,
    std::vector<cluster::NodeId> replicas) {
  int version = 0;
  if (auto old = objects_.find(key); old != objects_.end()) {
    version = old->second.version + 1;
    retire(key, old->second);
  }
  std::vector<int> fragments(replicas.size());
  std::iota(fragments.begin(), fragments.end(), 0);
  ObjectMeta& meta = objects_[key];
  meta = ObjectMeta{size, per_server_bytes(size), std::move(replicas),
                    std::move(fragments), version};
  // Born degraded when live servers cannot host every copy.
  shift_at_risk(at_risk_fragments(meta));
  if (health(meta) == Health::kDegraded) {
    shift_underrep(+1);
    enqueue_repair(key);
  }
  return meta;
}

void ObjectStore::retire(const ObjectKey& key, const ObjectMeta& meta) {
  const std::string full = key.full();
  for (cluster::NodeId r : meta.replicas) {
    ServerState& state = server_state(r);
    state.durable_used -= meta.per_server_bytes;
    state.cache->erase(full);
    note_replica_removed(r);
  }
  if (health(meta) == Health::kDegraded) shift_underrep(-1);
  shift_at_risk(-at_risk_fragments(meta));
  purge_corrupted(key);  // a new version replaces any rotten payload
}

void ObjectStore::fan_out(const ObjectKey& key,
                          const std::vector<cluster::NodeId>& replicas,
                          util::Bytes size, std::optional<util::TimeNs> encode,
                          trace::SpanId span, const PutCallback& finish) {
  if (encode) {
    sim_.after(*encode, [this, key, replicas, size, span, finish] {
      fan_out(key, replicas, size, std::nullopt, span, finish);
    });
    return;
  }
  const util::Bytes bytes = per_server_bytes(size);
  const cluster::NodeId primary = replicas.front();
  write_durable(primary, key, bytes, finish);
  trace::ScopedContext tctx(tracer_, span);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    const cluster::NodeId peer = replicas[i];
    fabric_.transfer(primary, peer, bytes, [this, peer, key, bytes, finish] {
      write_durable(peer, key, bytes, finish);
    });
  }
}

void ObjectStore::put(cluster::NodeId client, const ObjectKey& key,
                      util::Bytes size, PutCallback on_done) {
  if (!bucket_exists(key.bucket)) {
    throw std::invalid_argument("bucket does not exist: " + key.bucket);
  }
  if (size < 0) throw std::invalid_argument("put: negative size");
  auto replicas = write_targets(key);
  const util::TimeNs start = sim_.now();
  metrics_.count("put_requests");
  metrics_.count("put_bytes", size);
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kStorage, "store.put");
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "key", key.full());
    tracer_->annotate(span, "bytes", std::to_string(size));
  }
  install(key, size, replicas);

  auto remaining = std::make_shared<int>(static_cast<int>(replicas.size()));
  PutCallback finish = [this, remaining, start, span,
                        cb = std::move(on_done)] {
    if (--*remaining > 0) return;
    metrics_.observe("put_latency_us",
                     (sim_.now() - start) / util::kMicrosecond);
    trace::end_span(tracer_, span);
    cb();
  };
  // Metadata round, then the client streams the whole body to the
  // primary, which fans out. Done when every copy or fragment is durable.
  sim_.after(config_.metadata_latency,
             [this, client, key, size, replicas = std::move(replicas), span,
              finish = std::move(finish)] {
               trace::ScopedContext tctx(tracer_, span);
               fabric_.transfer(client, replicas.front(), size,
                                [this, key, size, replicas, span, finish] {
                                  fan_out(key, replicas, size, codec_ns(size),
                                          span, finish);
                                });
             });
}

void ObjectStore::get(cluster::NodeId client, const ObjectKey& key,
                      GetCallback on_done) {
  start_read(client, key, 0, std::move(on_done));
}

void ObjectStore::read_block(cluster::NodeId client, const ObjectKey& key,
                             util::Bytes bytes, GetCallback on_done) {
  if (bytes <= 0) throw std::invalid_argument("read_block: bytes <= 0");
  start_read(client, key, bytes, std::move(on_done));
}

void ObjectStore::start_read(cluster::NodeId client, const ObjectKey& key,
                             util::Bytes block, GetCallback on_done) {
  const bool is_block = block > 0;
  metrics_.count(is_block ? "block_read_requests" : "get_requests");
  const trace::SpanId span = trace::begin_span(
      tracer_, trace::Layer::kStorage,
      is_block ? "store.read_block" : "store.get");
  if (span != trace::kNoSpan) tracer_->annotate(span, "key", key.full());
  auto it = objects_.find(key);
  if (it == objects_.end() || health(it->second) == Health::kLost) {
    // Unknown, or every replica (too many fragments) died with its node:
    // the object is unreadable until someone re-writes it.
    const bool missing = it == objects_.end();
    metrics_.count(missing ? "get_misses" : "get_lost");
    if (span != trace::kNoSpan) {
      tracer_->annotate(span, "result", missing ? "miss" : "lost");
    }
    sim_.after(config_.metadata_latency,
               [this, span, cb = std::move(on_done)] {
                 trace::end_span(tracer_, span);
                 cb(GetResult{});
               });
    return;
  }
  const ObjectMeta& meta = it->second;
  auto read = std::make_shared<Read>();
  read->key = key;
  read->client = client;
  read->block = is_block;
  read->erasure = !is_block && config_.redundancy == Redundancy::kErasure;
  read->k = read->erasure ? config_.ec_data : 1;
  read->waiting = read->k;
  read->size = is_block ? std::min(block, meta.size) : meta.size;
  read->branch_bytes = read->erasure ? meta.per_server_bytes : read->size;
  read->start = sim_.now();
  read->span = span;
  read->cb = std::move(on_done);
  read->degraded = health(meta) == Health::kDegraded;
  if (read->degraded) {
    metrics_.count("degraded_reads");
    if (span != trace::kNoSpan) tracer_->annotate(span, "degraded", "1");
  }
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "bytes", std::to_string(read->size));
  }

  // Nearest holders first; an erasure read also puts every data
  // fragment ahead of parity (a pure-data read set skips the
  // reconstruction math), so parity fills in only for dead data.
  std::vector<std::pair<cluster::NodeId, int>> ranked;
  ranked.reserve(meta.replicas.size());
  for (std::size_t i = 0; i < meta.replicas.size(); ++i) {
    ranked.emplace_back(meta.replicas[i], meta.fragments[i]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const auto& a, const auto& b) {
                     const bool pa = read->erasure && a.second >= read->k;
                     const bool pb = read->erasure && b.second >= read->k;
                     if (pa != pb) return pb;
                     return proximity(a.first, client) <
                            proximity(b.first, client);
                   });
  if (read->erasure) {
    // Every fragment launch pays its own metadata round.
    for (int i = 0; i < read->k; ++i) {
      const auto [server, fragment] = ranked[static_cast<std::size_t>(i)];
      launch_branch(read, server, fragment, /*hedge=*/false);
    }
  } else {
    const auto [server, fragment] = ranked.front();
    sim_.after(config_.metadata_latency, [this, read, server, fragment] {
      launch_branch(read, server, fragment, /*hedge=*/false);
    });
  }

  if (is_block || !config_.hedged_reads ||
      static_cast<int>(meta.replicas.size()) <= read->k) {
    return;
  }
  // Straggler hedge: after the latency-quantile delay, one extra read at
  // the nearest untried holder; whichever k branches land first win.
  const util::TimeNs delay =
      config_.hedge.delay(metrics_.histogram("get_latency_us"));
  sim_.after(delay, [this, read] {
    if (read->done) return;
    const auto [target, fragment] = next_holder(*read);
    if (target == cluster::kInvalidNode) return;
    metrics_.count("hedges_launched");
    read->hedged = true;
    read->hedge_span = trace::begin_span(tracer_, trace::Layer::kStorage,
                                         "store.hedge", read->span);
    if (read->hedge_span != trace::kNoSpan) {
      tracer_->annotate(read->hedge_span, "server", std::to_string(target));
    }
    launch_branch(read, target, fragment, /*hedge=*/true);
  });
}

std::pair<cluster::NodeId, int> ObjectStore::next_holder(
    const Read& read) const {
  std::pair<cluster::NodeId, int> best{cluster::kInvalidNode, -1};
  auto obj = objects_.find(read.key);
  if (obj == objects_.end()) return best;
  const ObjectMeta& meta = obj->second;
  int best_rank = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < meta.replicas.size(); ++i) {
    const cluster::NodeId r = meta.replicas[i];
    if (read.tried.count(r) != 0) continue;
    // Clean before rotten, then nearest; ties keep metadata order.
    const int rank = (replica_corrupted(read.key, r) ? 3 : 0) +
                     proximity(r, read.client);
    if (rank < best_rank) {
      best_rank = rank;
      best = {r, meta.fragments[i]};
    }
  }
  return best;
}

void ObjectStore::launch_branch(const std::shared_ptr<Read>& read,
                                cluster::NodeId server, int fragment,
                                bool hedge) {
  const std::size_t branch = read->branches.size();
  read->tried.insert(server);
  ++read->inflight;
  ServerState& state = server_state(server);
  const std::string full = read->key.full();
  // Which tier serves the read? A GET may promote on a miss; a point
  // read never admits, so it cannot evict whole-object residents.
  std::optional<int> tier;
  if (!read->block && config_.cache_on_get) {
    tier = state.cache->get(full);
    if (!tier.has_value()) state.cache->put(full, read->branch_bytes);
  } else {
    tier = state.cache->peek(full);
  }
  const std::string& tier_name =
      tier.has_value() ? state.cache_tiers[static_cast<std::size_t>(*tier)]
                       : state.durable_device;
  read->branches.push_back(ReadBranch{
      .server = server, .fragment = fragment, .tier = tier_name,
      .hedge = hedge});
  const std::string prefix = read->block ? "block_read" : "get";
  metrics_.count(prefix + "_tier_" + tier_name);
  metrics_.count(prefix + "_bytes", read->branch_bytes);

  auto device_read = [this, read, branch] {
    const ReadBranch& b = read->branches[branch];
    io_.device(b.server, b.tier)
        .submit(IoKind::kRead, read->branch_bytes, [this, read, branch] {
          if (read->done) {  // a loser still in device I/O fizzles
            --read->inflight;
            return;
          }
          const cluster::NodeId server = read->branches[branch].server;
          // Checksum verification as the payload leaves the media.
          if (replica_corrupted(read->key, server)) {
            if (!config_.checksum_reads) {
              read->branches[branch].rotten = true;  // served as-is
            } else {
              metrics_.count("checksum_failures");
              drop_corrupted_replica(read->key, server);
              // Transparent failover: any clean holder substitutes (a
              // fragment race just decodes from a different set).
              const auto [next, next_fragment] = next_holder(*read);
              if (next == cluster::kInvalidNode ||
                  replica_corrupted(read->key, next)) {
                abandon_branch(read);
                return;
              }
              --read->inflight;  // replaced by the failover branch
              launch_branch(read, next, next_fragment,
                            read->branches[branch].hedge);
              return;
            }
          }
          ReadBranch& b = read->branches[branch];
          trace::ScopedContext tctx(tracer_,
                                    b.hedge ? read->hedge_span : read->span);
          b.flow = fabric_.transfer(server, read->client, read->branch_bytes,
                                    [this, read, branch] {
                                      land_branch(read, branch);
                                    });
          b.flow_active = true;
        });
  };
  if (read->erasure) {
    sim_.after(config_.metadata_latency, std::move(device_read));
  } else {
    device_read();
  }
}

void ObjectStore::land_branch(const std::shared_ptr<Read>& read,
                              std::size_t branch) {
  ReadBranch& b = read->branches[branch];
  b.flow_active = false;
  --read->inflight;
  if (read->done) return;
  b.landed = true;
  if (--read->waiting == 0) complete_read(read);
}

void ObjectStore::abandon_branch(const std::shared_ptr<Read>& read) {
  --read->inflight;
  if (read->done || read->inflight >= read->waiting) return;
  // Fewer clean branches than missing landings remain: with
  // verification on the read reports not-found rather than surfacing
  // rotten bytes. Branches still running fizzle against the done flag.
  read->done = true;
  metrics_.count("get_unreadable");
  if (read->span != trace::kNoSpan) {
    tracer_->annotate(read->span, "result", "unreadable");
  }
  trace::end_span(tracer_, read->hedge_span);
  trace::end_span(tracer_, read->span);
  read->cb(GetResult{});
}

void ObjectStore::complete_read(const std::shared_ptr<Read>& read) {
  read->done = true;
  // Every loser still in flight is cancelled: an active flow is torn
  // off the fabric (its bytes were wasted); a branch still in its
  // metadata round or device I/O fizzles on completion.
  if (read->inflight > 0) metrics_.count("hedges_cancelled", read->inflight);
  GetResult result;
  result.found = true;
  result.size = read->size;
  result.hedged = read->hedged;
  const ReadBranch* winner = nullptr;
  for (ReadBranch& b : read->branches) {
    if (b.flow_active) {
      fabric_.cancel(b.flow);
      b.flow_active = false;
      --read->inflight;  // its completion callback will never run
      metrics_.count("hedge_wasted_bytes", read->branch_bytes);
    }
    if (!b.landed) continue;
    winner = &b;
    result.hedge_won |= b.hedge;
    result.corrupted |= b.rotten;
    if (read->erasure && b.fragment >= read->k) ++result.parity_fragments_used;
  }
  const bool reconstructed = result.parity_fragments_used > 0;
  result.degraded = read->degraded || reconstructed;
  // A fragment race reports its nearest fragment, not a winner.
  const ReadBranch& shown = read->erasure ? read->branches.front() : *winner;
  result.served_by = shown.server;
  result.tier = shown.tier;
  if (result.hedge_won) {
    metrics_.count("hedge_wins");
    if (read->span != trace::kNoSpan) {
      tracer_->annotate(read->span, "hedge_won", "1");
    }
  }
  if (read->span != trace::kNoSpan) {
    tracer_->annotate(read->span, "tier", result.tier);
  }
  if (result.corrupted) {
    metrics_.count("corrupted_reads_surfaced");
    if (read->span != trace::kNoSpan) {
      tracer_->annotate(read->span, "corrupted", "1");
    }
  }
  trace::end_span(tracer_, read->hedge_span);

  auto deliver = [this, read, result] {
    const std::string prefix = read->block ? "block_read" : "get";
    const auto latency_us = (sim_.now() - read->start) / util::kMicrosecond;
    metrics_.observe(prefix + "_latency_us", latency_us);
    if (result.degraded) {
      metrics_.observe("degraded_" + prefix + "_latency_us", latency_us);
    }
    trace::end_span(tracer_, read->span);
    read->cb(result);
  };
  if (!read->erasure) {
    deliver();
    return;
  }
  // Decode at the client: stripe assembly, plus the Reed-Solomon
  // recovery math when parity stood in for dead data fragments.
  util::TimeNs decode_ns = *codec_ns(read->size);
  if (reconstructed) {
    decode_ns += static_cast<util::TimeNs>(std::ceil(
        static_cast<double>(read->size) * config_.ec_reconstruct_ns_per_byte));
    metrics_.count("ec_reconstructed_reads");
    if (read->span != trace::kNoSpan) {
      tracer_->annotate(read->span, "reconstructed", "1");
      tracer_->annotate(read->span, "parity_fragments",
                        std::to_string(result.parity_fragments_used));
    }
  }
  sim_.after(decode_ns, std::move(deliver));
}

void ObjectStore::preload(const ObjectKey& key, util::Bytes size,
                          bool warm_cache) {
  if (!bucket_exists(key.bucket)) create_bucket(key.bucket);
  if (size < 0) throw std::invalid_argument("preload: negative size");
  if (exists(key)) {
    throw std::invalid_argument("preload: object already exists: " +
                                key.full());
  }
  const ObjectMeta& meta = install(key, size, locate(key));
  for (cluster::NodeId r : meta.replicas) {
    ServerState& state = server_state(r);
    state.durable_used += meta.per_server_bytes;
    if (warm_cache) state.cache->put(key.full(), meta.per_server_bytes);
  }
}

void ObjectStore::remove(cluster::NodeId /*client*/, const ObjectKey& key,
                         PutCallback on_done) {
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    retire(key, it->second);
    objects_.erase(it);
    metrics_.count("delete_requests");
  }
  sim_.after(config_.metadata_latency, std::move(on_done));
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) != 0;
}

std::optional<util::Bytes> ObjectStore::object_size(
    const ObjectKey& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second.size;
}

std::vector<std::string> ObjectStore::list(const std::string& bucket,
                                           const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, meta] : objects_) {
    if (key.bucket != bucket) continue;
    if (key.name.compare(0, prefix.size(), prefix) != 0) continue;
    out.push_back(key.name);
  }
  return out;
}

std::int64_t ObjectStore::initiate_multipart(const ObjectKey& key) {
  if (!bucket_exists(key.bucket)) {
    throw std::invalid_argument("bucket does not exist: " + key.bucket);
  }
  const std::int64_t id = next_upload_id_++;
  uploads_[id] = MultipartUpload{key, 0, {}};
  return id;
}

void ObjectStore::upload_part(cluster::NodeId client, std::int64_t upload_id,
                              int part_number, util::Bytes size,
                              PutCallback on_done) {
  auto it = uploads_.find(upload_id);
  if (it == uploads_.end()) {
    throw std::invalid_argument("unknown multipart upload");
  }
  if (it->second.parts.count(part_number) != 0) {
    throw std::invalid_argument("duplicate part number");
  }
  if (size < 0) throw std::invalid_argument("upload_part: negative size");
  // Parts stream to the primary replica of the final key.
  const cluster::NodeId primary = write_targets(it->second.key).front();
  it->second.parts[part_number] = size;
  it->second.total += size;
  sim_.after(config_.metadata_latency,
             [this, client, primary, size, cb = std::move(on_done)]() mutable {
               fabric_.transfer(client, primary, size, std::move(cb));
             });
}

void ObjectStore::complete_multipart(std::int64_t upload_id,
                                     PutCallback on_done) {
  auto it = uploads_.find(upload_id);
  if (it == uploads_.end()) {
    throw std::invalid_argument("unknown multipart upload");
  }
  const ObjectKey key = it->second.key;
  const util::Bytes total = it->second.total;
  auto replicas = write_targets(key);
  uploads_.erase(it);
  install(key, total, replicas);

  // Assembly: the parts already sit on the primary, which encodes
  // within the metadata round and fans out.
  auto remaining = std::make_shared<int>(static_cast<int>(replicas.size()));
  PutCallback finish = [remaining, cb = std::move(on_done)] {
    if (--*remaining > 0) return;
    cb();
  };
  sim_.after(config_.metadata_latency + codec_ns(total).value_or(0),
             [this, key, total, replicas = std::move(replicas),
              finish = std::move(finish)] {
               fan_out(key, replicas, total, std::nullopt, trace::kNoSpan,
                       finish);
             });
}

void ObjectStore::shift_underrep(int delta) {
  underrep_ns_ += static_cast<double>(underrep_count_) *
                  static_cast<double>(sim_.now() - underrep_last_);
  underrep_last_ = sim_.now();
  underrep_count_ += delta;
  metrics_.set_gauge("under_replicated_objects", underrep_count_);
}

double ObjectStore::under_replicated_object_seconds() const {
  const double pending = static_cast<double>(underrep_count_) *
                         static_cast<double>(sim_.now() - underrep_last_);
  return (underrep_ns_ + pending) / 1e9;
}

void ObjectStore::shift_at_risk(int delta) {
  if (delta == 0) return;
  at_risk_ns_ += static_cast<double>(at_risk_count_) *
                 static_cast<double>(sim_.now() - at_risk_last_);
  at_risk_last_ = sim_.now();
  at_risk_count_ += delta;
  metrics_.set_gauge("at_risk_fragments", at_risk_count_);
}

double ObjectStore::at_risk_fragment_seconds() const {
  const double pending = static_cast<double>(at_risk_count_) *
                         static_cast<double>(sim_.now() - at_risk_last_);
  return (at_risk_ns_ + pending) / 1e9;
}

DurabilityStats ObjectStore::durability_stats() const {
  DurabilityStats stats;
  for (const auto& [key, meta] : objects_) {
    switch (health(meta)) {
      case Health::kFull:
        ++stats.objects_full;
        break;
      case Health::kDegraded:
        ++stats.objects_degraded;
        stats.missing_fragments += at_risk_fragments(meta);
        break;
      case Health::kLost:
        ++stats.objects_lost;
        break;
    }
  }
  stats.at_risk_fragment_seconds = at_risk_fragment_seconds();
  stats.objects_lost_total = lost_objects();
  return stats;
}

void ObjectStore::note_health_change(const ObjectKey& key,
                                     const ObjectMeta& meta, Health before,
                                     int risk_before) {
  const Health after = health(meta);
  if (before == Health::kDegraded && after != Health::kDegraded) {
    shift_underrep(-1);
  } else if (before != Health::kDegraded && after == Health::kDegraded) {
    shift_underrep(+1);
  }
  shift_at_risk(at_risk_fragments(meta) - risk_before);
  if (after == Health::kLost && before != Health::kLost) {
    metrics_.count("objects_lost");
    metrics_.count("bytes_lost", meta.size);
  }
  if (after == Health::kDegraded) enqueue_repair(key);
}

util::Bytes ObjectStore::expected_durable_bytes(cluster::NodeId server) const {
  util::Bytes total = 0;
  for (const auto& [key, meta] : objects_) {
    for (cluster::NodeId r : meta.replicas) {
      if (r == server) total += meta.per_server_bytes;
    }
  }
  return total;
}

void ObjectStore::suspect_node(cluster::NodeId node) {
  if (server_states_.count(node) == 0) return;  // not a storage server
  if (dead_servers_.count(node) != 0) return;   // already confirmed dead
  if (config_.repair_hysteresis <= 0) {
    handle_node_failure(node);
    return;
  }
  if (suspects_.count(node) != 0) return;
  metrics_.count("servers_suspected");
  // Replicas on a suspect server sit one step closer to loss for the
  // whole wait: the at-risk integral accrues even though no repair has
  // been queued yet.
  int held = 0;
  for (const auto& [key, meta] : objects_) {
    held += static_cast<int>(
        std::count(meta.replicas.begin(), meta.replicas.end(), node));
  }
  SuspectState st;
  st.at_risk = held;
  st.escalate = sim_.after(config_.repair_hysteresis, [this, node] {
    // The window expired with no sign of life: treat it as real loss.
    auto it = suspects_.find(node);
    if (it == suspects_.end()) return;
    shift_at_risk(-it->second.at_risk);
    suspects_.erase(it);
    metrics_.count("suspects_escalated");
    handle_node_failure(node);
  });
  suspects_[node] = st;
  shift_at_risk(held);
}

void ObjectStore::clear_suspect(cluster::NodeId node) {
  auto it = suspects_.find(node);
  if (it == suspects_.end()) return;
  sim_.cancel(it->second.escalate);
  shift_at_risk(-it->second.at_risk);
  suspects_.erase(it);
  metrics_.count("suspects_cleared");
}

void ObjectStore::note_replica_removed(cluster::NodeId node) {
  auto it = suspects_.find(node);
  if (it == suspects_.end() || it->second.at_risk <= 0) return;
  --it->second.at_risk;
  shift_at_risk(-1);
}

void ObjectStore::handle_node_failure(cluster::NodeId node) {
  auto state_it = server_states_.find(node);
  if (state_it == server_states_.end()) return;  // not a storage server
  if (auto sus = suspects_.find(node); sus != suspects_.end()) {
    // Confirmed failure overtakes the hysteresis window: stop the
    // suspect accrual (the per-object loop below re-counts the risk).
    sim_.cancel(sus->second.escalate);
    shift_at_risk(-sus->second.at_risk);
    suspects_.erase(sus);
  }
  if (!dead_servers_.insert(node).second) return;
  metrics_.count("server_failures");
  // Media loss: everything the server held is gone, cache included —
  // and so is any bit-rot it carried.
  state_it->second.durable_used = 0;
  state_it->second.cache->clear();
  for (auto corrupt = corrupted_replicas_.begin();
       corrupt != corrupted_replicas_.end();) {
    if (corrupt->second == node) {
      scrub_inflight_.erase(*corrupt);
      corrupt = corrupted_replicas_.erase(corrupt);
    } else {
      ++corrupt;
    }
  }
  for (auto& [key, meta] : objects_) {
    auto rep = std::find(meta.replicas.begin(), meta.replicas.end(), node);
    if (rep == meta.replicas.end()) continue;
    const Health before = health(meta);
    const int risk_before = at_risk_fragments(meta);
    meta.fragments.erase(meta.fragments.begin() +
                         (rep - meta.replicas.begin()));
    meta.replicas.erase(rep);
    ++meta.version;
    note_health_change(key, meta, before, risk_before);
  }
}

void ObjectStore::handle_node_recovery(cluster::NodeId node) {
  if (server_states_.count(node) == 0) return;
  clear_suspect(node);  // came back within the window: no rebuild needed
  if (dead_servers_.erase(node) == 0) return;
  metrics_.count("server_recoveries");
  // The node rejoins empty; repairs that had no live target re-arm.
  for (const ObjectKey& key : repair_stalled_) enqueue_repair(key);
  repair_stalled_.clear();
  // With jitter configured the re-enqueues above scheduled their own
  // staggered pumps — skipping the synchronous pump here is what spreads
  // the post-recovery repair wave out in time.
  if (config_.repair_jitter <= 0) pump_repairs();
}

bool ObjectStore::corrupt_replica(const ObjectKey& key,
                                  cluster::NodeId server) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return false;
  const auto& replicas = it->second.replicas;
  if (std::find(replicas.begin(), replicas.end(), server) == replicas.end()) {
    return false;
  }
  if (!corrupted_replicas_.insert({key, server}).second) return false;
  metrics_.count("replicas_corrupted");
  arm_scrub();
  return true;
}

int ObjectStore::corrupt_random_replicas(std::uint64_t seed, int count,
                                         bool spare_last_clean) {
  // Candidates in deterministic metadata order, sampled with a seeded RNG.
  std::vector<std::pair<ObjectKey, cluster::NodeId>> candidates;
  for (const auto& [key, meta] : objects_) {
    for (cluster::NodeId r : meta.replicas) {
      if (corrupted_replicas_.count({key, r}) != 0) continue;
      candidates.emplace_back(key, r);
    }
  }
  util::Rng rng(seed);
  int corrupted = 0;
  while (corrupted < count && !candidates.empty()) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    const auto [key, server] = candidates[pick];
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    if (spare_last_clean) {
      int clean = 0;
      for (cluster::NodeId r : objects_.at(key).replicas) {
        if (corrupted_replicas_.count({key, r}) == 0) ++clean;
      }
      // Keep the object recoverable: one clean copy for replication,
      // k clean fragments for erasure coding.
      if (clean <= min_live_copies()) continue;
    }
    corrupted_replicas_.insert({key, server});
    metrics_.count("replicas_corrupted");
    ++corrupted;
  }
  if (corrupted > 0) arm_scrub();
  return corrupted;
}

void ObjectStore::drop_corrupted_replica(const ObjectKey& key,
                                         cluster::NodeId server) {
  corrupted_replicas_.erase({key, server});
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  ObjectMeta& meta = it->second;
  auto rep = std::find(meta.replicas.begin(), meta.replicas.end(), server);
  if (rep == meta.replicas.end()) return;
  const Health before = health(meta);
  const int risk_before = at_risk_fragments(meta);
  meta.fragments.erase(meta.fragments.begin() + (rep - meta.replicas.begin()));
  meta.replicas.erase(rep);
  ++meta.version;
  if (dead_servers_.count(server) == 0) {
    ServerState& state = server_state(server);
    state.durable_used -= meta.per_server_bytes;
    state.cache->erase(key.full());
  }
  note_replica_removed(server);
  metrics_.count("corrupted_replicas_dropped");
  note_health_change(key, meta, before, risk_before);
}

void ObjectStore::purge_corrupted(const ObjectKey& key) {
  auto it = corrupted_replicas_.lower_bound(
      {key, std::numeric_limits<cluster::NodeId>::min()});
  while (it != corrupted_replicas_.end() && !(key < it->first) &&
         !(it->first < key)) {
    scrub_inflight_.erase(*it);
    it = corrupted_replicas_.erase(it);
  }
}

void ObjectStore::arm_scrub() {
  if (!config_.scrub || scrub_armed_) return;
  // Only corruption not already under verification needs a pass; the
  // scrubber stays idle otherwise, so the simulation drains.
  if (corrupted_replicas_.size() <= scrub_inflight_.size()) return;
  scrub_armed_ = true;
  sim_.after(config_.scrub_interval, [this] { scrub_pass(); });
}

void ObjectStore::scrub_pass() {
  scrub_armed_ = false;
  // Oracle-guided scrub: the simulator models the verification I/O and
  // the repair traffic for rotten replicas without simulating full-disk
  // scans of clean data.
  int budget = config_.scrub_replicas_per_pass;
  auto it = corrupted_replicas_.begin();
  while (it != corrupted_replicas_.end() && budget > 0) {
    if (scrub_inflight_.count(*it) != 0) {
      ++it;
      continue;
    }
    const auto [key, server] = *it;
    const auto obj = objects_.find(key);
    const bool live =
        obj != objects_.end() &&
        std::find(obj->second.replicas.begin(), obj->second.replicas.end(),
                  server) != obj->second.replicas.end() &&
        dead_servers_.count(server) == 0;
    if (!live) {
      // Stale entry (object deleted, replica already dropped, or the
      // server crashed): nothing on media left to verify.
      it = corrupted_replicas_.erase(it);
      continue;
    }
    --budget;
    scrub_inflight_.insert(*it);
    metrics_.count("replicas_scrubbed");
    const trace::SpanId span = trace::begin_span(
        tracer_, trace::Layer::kStorage, "store.scrub", trace::kNoSpan);
    if (span != trace::kNoSpan) {
      tracer_->annotate(span, "key", key.full());
      tracer_->annotate(span, "server", std::to_string(server));
    }
    // Verification read off the durable device, then drop + re-replicate.
    io_.device(server, server_state(server).durable_device)
        .submit(IoKind::kRead, obj->second.per_server_bytes,
                [this, key, server, span] {
                  scrub_inflight_.erase({key, server});
                  drop_corrupted_replica(key, server);
                  trace::end_span(tracer_, span);
                  arm_scrub();
                });
    ++it;
  }
  arm_scrub();  // re-arm if more corruption than this pass could take
}

void ObjectStore::enqueue_repair(const ObjectKey& key) {
  if (!config_.repair) return;
  if (!repair_queued_.insert(key).second) return;
  // Detection + scheduling grace before the repair traffic starts; the
  // optional seeded jitter keeps a mass-recovery repair wave from firing
  // as one synchronized pump.
  util::TimeNs delay = config_.repair_delay;
  if (config_.repair_jitter > 0) {
    delay = util::jittered(delay, repair_rng_, config_.repair_jitter);
  }
  sim_.after(delay, [this] { pump_repairs(); });
}

void ObjectStore::pump_repairs() {
  if (repair_breaker_ != nullptr && !repair_queued_.empty() &&
      !repair_breaker_->allow()) {
    // Breaker open: the repair path keeps failing (no viable targets,
    // churn under the transfers). Defer the whole scan instead of
    // launching more rebuild traffic; one pending probe event re-pumps.
    if (!repair_pump_armed_) {
      repair_pump_armed_ = true;
      sim_.after(std::max(config_.repair_delay, util::kMillisecond), [this] {
        repair_pump_armed_ = false;
        pump_repairs();
      });
    }
    return;
  }
  while (repairs_in_flight_ < config_.repair_concurrency &&
         !repair_queued_.empty()) {
    // Risk-first: repair the object with the fewest surviving spare
    // copies (live minus the minimum to stay readable) — an EC stripe
    // one fragment from loss beats a freshly degraded one. Ties break
    // in key order because the scan follows the ordered set.
    auto best = repair_queued_.end();
    int best_spares = std::numeric_limits<int>::max();
    for (auto it = repair_queued_.begin(); it != repair_queued_.end();) {
      const auto obj = objects_.find(*it);
      if (obj == objects_.end() || health(obj->second) != Health::kDegraded) {
        // Deleted, repaired, or lost while queued: drop the entry.
        it = repair_queued_.erase(it);
        continue;
      }
      const int spares = static_cast<int>(obj->second.replicas.size()) -
                         min_live_copies();
      if (spares < best_spares) {
        best_spares = spares;
        best = it;
      }
      ++it;
    }
    if (best == repair_queued_.end()) return;
    const ObjectKey key = *best;
    repair_queued_.erase(best);
    start_repair(key);
  }
}

void ObjectStore::start_repair(const ObjectKey& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return;  // deleted while queued
  ObjectMeta& meta = it->second;
  if (health(meta) != Health::kDegraded) return;  // repaired or lost
  const int version = meta.version;
  ++repairs_in_flight_;
  metrics_.count("repairs_started");
  // Admission throttle: a token-bucket edge over the fabric bytes this
  // repair will inject (its min_live_copies() source copies or
  // fragments). The repair holds its concurrency slot while it waits,
  // so a rebuild storm is paced below the cap instead of stampeding
  // foreground traffic.
  util::TimeNs wait = 0;
  if (config_.rebuild_bandwidth_bytes_per_s > 0) {
    const util::Bytes bytes = meta.per_server_bytes * min_live_copies();
    const auto duration = static_cast<util::TimeNs>(
        std::ceil(static_cast<double>(bytes) * 1e9 /
                  config_.rebuild_bandwidth_bytes_per_s));
    const util::TimeNs admit = std::max(rebuild_admit_at_, sim_.now());
    rebuild_admit_at_ = admit + duration;
    wait = admit - sim_.now();
    if (wait > 0) {
      rebuild_throttle_wait_ns_ += wait;
      metrics_.count("repairs_throttled");
    }
  }
  if (wait > 0) {
    sim_.after(wait, [this, key, version] {
      begin_repair_transfers(key, version);
    });
  } else {
    begin_repair_transfers(key, version);
  }
}

void ObjectStore::begin_repair_transfers(const ObjectKey& key, int version) {
  // Revalidate after the admission wait: the object may have been
  // deleted, fully repaired, or lost while the repair sat in the
  // throttle. The slot is released on every abort path.
  auto it = objects_.find(key);
  if (it == objects_.end() || health(it->second) != Health::kDegraded ||
      it->second.version != version) {
    --repairs_in_flight_;
    metrics_.count("repairs_abandoned");
    if (it != objects_.end() && health(it->second) == Health::kDegraded) {
      enqueue_repair(key);
    }
    pump_repairs();
    return;
  }
  const ObjectMeta& meta = it->second;
  // Target: the best-ranked live server not already holding a copy,
  // under the placement walk's rack cap.
  const auto placed = hrw_walk(ranked_servers(key), meta.replicas,
                               meta.replicas.size() + 1, placed_copies());
  if (placed.size() == meta.replicas.size()) {
    // Every live server already holds a copy; retry on the next recovery.
    --repairs_in_flight_;
    repair_stalled_.insert(key);
    if (repair_breaker_ != nullptr) repair_breaker_->record_failure();
    pump_repairs();
    return;
  }
  const cluster::NodeId target = placed.back();
  // Re-replication runs in the background, so the span is a root.
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kStorage, "store.repair",
                        trace::kNoSpan);
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "key", key.full());
    tracer_->annotate(span, "target", std::to_string(target));
  }

  // Sources: the survivors nearest the target, first in metadata order
  // among equals — one copy to stream, or k fragments to decode from.
  std::vector<cluster::NodeId> sources = meta.replicas;
  std::stable_sort(sources.begin(), sources.end(),
                   [&](cluster::NodeId a, cluster::NodeId b) {
                     return proximity(a, target) < proximity(b, target);
                   });
  sources.resize(static_cast<std::size_t>(min_live_copies()));
  auto rebuild = std::make_shared<Rebuild>(
      Rebuild{key, target, version, min_live_copies(), meta.per_server_bytes,
              codec_ns(meta.size), span});
  for (cluster::NodeId source : sources) {
    io_.device(source, server_state(source).durable_device)
        .submit(IoKind::kRead, rebuild->fragment, [this, rebuild, source] {
          trace::ScopedContext tctx(tracer_, rebuild->span);
          fabric_.transfer(
              source, rebuild->target, rebuild->fragment, [this, rebuild] {
                if (--rebuild->waiting > 0) return;
                auto done = [this, rebuild] {
                  trace::end_span(tracer_, rebuild->span);
                  finish_repair(rebuild->key, rebuild->target,
                                rebuild->version);
                };
                if (rebuild->decode) {
                  sim_.after(*rebuild->decode, std::move(done));
                } else {
                  done();
                }
              });
        });
  }
}

void ObjectStore::finish_repair(const ObjectKey& key, cluster::NodeId target,
                                int version) {
  --repairs_in_flight_;
  auto it = objects_.find(key);
  const bool valid =
      it != objects_.end() && it->second.version == version &&
      dead_servers_.count(target) == 0 &&
      std::find(it->second.replicas.begin(), it->second.replicas.end(),
                target) == it->second.replicas.end();
  if (!valid) {
    // The replica set moved (another failure, overwrite, delete) or the
    // target died mid-repair; whoever moved it re-queued as needed.
    metrics_.count("repairs_abandoned");
    if (it != objects_.end() && health(it->second) == Health::kDegraded) {
      enqueue_repair(key);
    }
    pump_repairs();
    return;
  }
  ObjectMeta& meta = it->second;
  const Health before = health(meta);
  const int risk_before = at_risk_fragments(meta);
  meta.replicas.push_back(target);
  // The rebuilt copy takes the smallest fragment id the stripe is
  // missing (for EC that is the actual reconstructed fragment; for
  // replication it just relabels the copy).
  int rebuilt = 0;
  while (std::find(meta.fragments.begin(), meta.fragments.end(), rebuilt) !=
         meta.fragments.end()) {
    ++rebuilt;
  }
  meta.fragments.push_back(rebuilt);
  ++meta.version;
  write_durable(target, key, meta.per_server_bytes, [] {});
  metrics_.count("objects_repaired");
  if (repair_breaker_ != nullptr) repair_breaker_->record_success();
  note_health_change(key, meta, before, risk_before);
  pump_repairs();
}

void ObjectStore::fence_node(cluster::NodeId node, std::int64_t epoch) {
  std::int64_t& fence = fence_epoch_[node];
  if (epoch > fence) fence = epoch;
  metrics_.count("nodes_fenced");
}

std::int64_t ObjectStore::fence_epoch(cluster::NodeId node) const {
  const auto it = fence_epoch_.find(node);
  return it == fence_epoch_.end() ? 1 : it->second;
}

bool ObjectStore::put_fenced(cluster::NodeId client, std::int64_t epoch,
                             const ObjectKey& key, util::Bytes size,
                             PutCallback on_done) {
  const auto it = fence_epoch_.find(client);
  if (it != fence_epoch_.end() && epoch < it->second) {
    // Zombie write: the client's lease expired (and its epoch was
    // bumped) while it was on the far side of a partition. Reject
    // synchronously — no metadata change, no bytes moved, no callback.
    metrics_.count("writes_fenced");
    return false;
  }
  put(client, key, size, std::move(on_done));
  return true;
}

util::Bytes ObjectStore::durable_bytes(cluster::NodeId server) const {
  return server_state(server).durable_used;
}

const TieredCache& ObjectStore::cache(cluster::NodeId server) const {
  return *server_state(server).cache;
}

}  // namespace evolve::storage
