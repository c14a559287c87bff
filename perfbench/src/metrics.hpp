// The benchmark's metric table and the arithmetic shared by every
// workload: percentiles over offered ops, the output digest, and the
// JSON result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Kind { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  Kind kind;
};

/// Every metric the benchmark prints. BENCHMARK.json lists the same
/// names and units, and is the only place that holds each metric's
/// better direction and bound; run.py checks every result line against
/// it.
const std::vector<MetricDef>& metric_table();

/// Modules under src/ whose samples the profiler reports as
/// `<module>.self_s`, plus "bench" (the benchmark's own callbacks) and
/// "other" (frames outside any evolve or benchmark function).
const std::vector<std::string>& profiled_layers();

/// Nearest-rank percentile `p` (0..100] over every offered op, where
/// `completed_ns` holds the latencies of completed ops and
/// `not_completed` ops (failed or shed) count as infinitely slow. When
/// the rank lands among those, returns `cap_ns` instead of infinity.
double percentile_ms(std::vector<std::int64_t> completed_ns,
                     std::int64_t not_completed, double p,
                     std::int64_t cap_ns);

/// Mean latency of the completed ops, in ms; 0 if none.
double mean_ms(const std::vector<std::int64_t>& completed_ns);

/// Median of `values` (mean of the middle pair for even sizes); 0 if
/// empty.
double median(std::vector<double> values);

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  void add(std::string_view text);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Values print with 17 significant digits.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::map<std::string, double>& values,
                        Kind kind);

}  // namespace perfbench
