#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = [] {
    constexpr Kind E = Kind::kEndToEnd;
    constexpr Kind L = Kind::kPerLayer;
    std::vector<MetricDef> t = {
        // End to end, from untraced runs.
        {"wall_s", "s", E},
        {"setup_s", "s", E},
        {"peak_rss_mb", "MiB", E},
        {"sim_mean_ms", "ms", E},
        {"sim_tail_ms", "ms", E},
        {"sim_makespan_s", "s", E},
        {"goodput_frac", "fraction", E},
        // Per layer, from traced runs.
        {"failed_frac", "fraction", L},
        {"sim_p50_ms", "ms", L},
        {"sim.events", "count", L},
        {"sim.host_ns_per_event", "ns", L},
        {"net.flows", "count", L},
        {"net.recomputes", "count", L},
        {"net.recomputes_per_flow", "ratio", L},
        {"net.flows_parked", "count", L},
        {"net.bytes_remote", "bytes", L},
        {"storage.get_requests", "count", L},
        {"storage.put_requests", "count", L},
        {"storage.block_read_requests", "count", L},
        {"storage.degraded_reads", "count", L},
        {"storage.hedges_launched", "count", L},
        {"storage.hedge_win_frac", "fraction", L},
        {"storage.repairs_started", "count", L},
        {"storage.writes_fenced", "count", L},
        {"tablet.wal_commits", "count", L},
        {"tablet.flushes", "count", L},
        {"tablet.memtable_hit_frac", "fraction", L},
        {"tablet.moves", "count", L},
        {"tablet.move_unavail_s", "s", L},
        {"tablet.unavailable_retries", "count", L},
        {"tablet.wrong_shard_retries", "count", L},
        {"tablet.exhausted", "count", L},
        {"tablet.submit_ns_p50", "ns", L},
        {"serve.hedges_launched", "count", L},
        {"serve.hedge_win_frac", "fraction", L},
        {"serve.hedges_suppressed", "count", L},
        {"serve.wasted_exec", "count", L},
        {"serve.rerouted", "count", L},
        {"serve.shed", "count", L},
        {"serve.sink_ns_p50", "ns", L},
        {"orch.lease_expiries", "count", L},
        {"orch.reconnects", "count", L},
        {"dataflow.tasks", "count", L},
        {"dataflow.locality_frac", "fraction", L},
        {"dataflow.task_retries", "count", L},
        {"dataflow.tasks_killed", "count", L},
        {"profile.overhead_s", "s", L},
        {"profile.samples", "count", L},
    };
    for (const std::string& layer : profiled_layers()) {
      t.push_back({layer + ".self_s", "s", L});
    }
    return t;
  }();
  return table;
}

const std::vector<std::string>& profiled_layers() {
  static const std::vector<std::string> layers = {
      "sim",  "net",     "storage", "tablet", "serve",  "orch",
      "dataflow", "hpc", "workflow", "accel", "metrics", "util",
      "fault", "trace",  "core",    "cluster", "workloads", "bench",
      "other"};
  return layers;
}

double percentile_ms(std::vector<std::int64_t> completed_ns,
                     std::int64_t not_completed, double p,
                     std::int64_t cap_ns) {
  const auto n = static_cast<std::int64_t>(completed_ns.size()) + not_completed;
  if (n <= 0) throw std::invalid_argument("percentile of no ops");
  auto rank = static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  if (rank > static_cast<std::int64_t>(completed_ns.size())) {
    return static_cast<double>(cap_ns) / 1e6;
  }
  const auto k = static_cast<std::size_t>(rank - 1);
  std::nth_element(completed_ns.begin(), completed_ns.begin() + static_cast<std::ptrdiff_t>(k),
                   completed_ns.end());
  return static_cast<double>(completed_ns[k]) / 1e6;
}

double mean_ms(const std::vector<std::int64_t>& completed_ns) {
  if (completed_ns.empty()) return 0.0;
  double sum = 0;
  for (std::int64_t ns : completed_ns) sum += static_cast<double>(ns);
  return sum / static_cast<double>(completed_ns.size()) / 1e6;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

void Digest::add(std::string_view text) {
  for (char c : text) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::map<std::string, double>& values,
                        Kind kind) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : metric_table()) {
    if (m.kind != kind) continue;
    const auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error("metric missing or not finite: " + m.name);
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
