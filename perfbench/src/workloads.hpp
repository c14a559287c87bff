// The benchmark's three workloads. Each builds its layers through the
// library's public API, runs one open-loop simulation to quiescence and
// returns every simulated output next to the host time it took.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Time the synchronous calls the benchmark makes into the library. Only
  /// traced runs do: the clock reads are not free.
  bool time_calls = false;
  /// Return right after set-up, without running the simulation.
  bool setup_only = false;
};

/// One simulated run. An "op" is a request or tablet op, or a whole
/// workflow in converged_mix.
struct RepResult {
  double setup_s = 0;  // host: build the layers, preload data, schedule
  double wall_s = 0;   // host: Simulation::run
  std::int64_t events = 0;

  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t goodput = 0;  // completed within SLO (workflows: succeeded)
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t in_flight = 0;  // after quiescence; must be 0
  std::vector<std::int64_t> latencies_ns;  // completed ops, in order
  std::int64_t makespan_ns = 0;  // simulated time of the last op's end
  /// Per-layer counters keyed by their metric name.
  std::map<std::string, double> counters;
  std::vector<std::int64_t> call_ns;  // when RunOptions::time_calls
  std::vector<std::string> violations;
};

/// Seed of a run without --seed, and the seed kept out of tuning for
/// verifying a later claim. Both hold for every workload.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHoldoutSeed = 1001;

struct Workload {
  const char* name;
  /// The tail percentile reported as sim_tail_ms: the highest with at
  /// least ten ops beyond it.
  double tail_percentile;
  /// Per-layer metric that reports the median of RepResult::call_ns,
  /// or null when the benchmark makes no timed synchronous calls.
  const char* call_metric;
  RepResult (*run)(const RunOptions&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
