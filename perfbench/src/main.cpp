// perfbench: runs one workload for a fixed host-time budget and prints
// its metrics. The last stdout line is the JSON result.
//
//   perfbench --workload <name> --seconds S --trace 0|1 [--seed N]
//
// The workload is simulated again and again with the same seed until
// `--seconds` have passed; host times are medians over those runs and
// every run must reproduce the first one's output digest. With
// --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced runs with runs under the sampling profiler and
// prints the per-layer metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "profiler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRuns = 201;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  int trace = -1;  // 0 or 1 once given
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seconds S "
               "--trace 0|1 [--seed N]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds == 0) usage("--seconds is required");
  if (a.trace < 0) usage("--trace is required");
  return a;
}

/// Digest of every simulated output of a run (host timings excluded).
std::uint64_t digest_of(const RepResult& r) {
  Digest d;
  for (std::int64_t v : {r.events, r.offered, r.completed, r.goodput, r.shed,
                         r.failed, r.in_flight, r.makespan_ns}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  for (std::int64_t v : r.latencies_ns) d.add(static_cast<std::uint64_t>(v));
  for (const auto& [name, value] : r.counters) {
    d.add(std::string_view(name));
    d.add(value);
  }
  return d.value();
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median host time of up to kSetupRuns set-ups of `w` within
/// kSetupSeconds. Set-up alone is milliseconds or less, so it is timed
/// many times. It runs in a forked child, so the set-ups' allocations do
/// not change the heap the measured runs use afterwards: timing them in
/// the measuring process first made its later runs about 9% slower.
double median_setup_s(const Workload& w, RunOptions opt) {
  opt.setup_only = true;
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::vector<double> setups;
    const auto start = Clock::now();
    while (setups.size() < kSetupRuns &&
           std::chrono::duration<double>(Clock::now() - start).count() <
               kSetupSeconds) {
      setups.push_back(w.run(opt).setup_s);
    }
    const double m = median(setups);
    const bool ok = write(fds[1], &m, sizeof(m)) == sizeof(m);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double m = 0;
  const bool got = read(fds[0], &m, sizeof(m)) == sizeof(m);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up timing child failed");
  }
  return m;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  RunOptions opt;
  opt.seed = args.seed;

  // Only the first run's outputs are kept whole; later runs keep their
  // host times and digest, so memory does not grow with the run count.
  std::optional<RepResult> first_run;
  std::uint64_t digest = 0;
  std::map<std::string, double> values;
  for (const MetricDef& m : metric_table()) {
    if (m.kind == Kind::kPerLayer) values[m.name] = 0.0;
  }
  std::vector<std::string> violations;
  std::int64_t attempted = 0;
  std::int64_t failed_runs = 0;
  // Correctness: each run's own checks, and every run (traced or not)
  // reproduces the first run's simulated outputs bit for bit.
  auto check = [&](RepResult r, const char* kind) {
    std::vector<std::string> v = std::move(r.violations);
    const std::uint64_t d = digest_of(r);
    if (!first_run) {
      digest = d;
    } else if (d != digest) {
      v.push_back("output digest differs from the first run");
    }
    for (const auto& [name, value] : r.counters) {
      if (!values.count(name)) v.push_back("unknown per-layer metric " + name);
    }
    for (const std::string& msg : v) {
      violations.push_back(std::string(kind) + " run " +
                           std::to_string(attempted) + ": " + msg);
    }
    ++attempted;
    if (!v.empty()) ++failed_runs;
    if (!first_run) first_run = std::move(r);
  };

  const double setup_s = args.trace ? 0.0 : median_setup_s(*w, opt);

  // plain_host and traced_host time the whole w->run call (set-up, run,
  // counter collection and teardown) the same way, so their difference
  // is the cost of tracing: the profiler and the timed calls.
  std::vector<double> plain_wall, plain_host, traced_host, calls;
  // The sample buffer is tens of MiB: allocate it only for traced runs,
  // so it stays out of peak_rss_mb.
  std::optional<Profiler> profiler;
  if (args.trace) profiler.emplace();
  const auto start = Clock::now();
  double elapsed = 0;
  double last = 0;  // host time of the previous iteration
  // Start another iteration only if it should end within the budget.
  do {
    const auto iteration_start = Clock::now();
    opt.time_calls = false;
    RepResult r = w->run(opt);
    plain_host.push_back(
        std::chrono::duration<double>(Clock::now() - iteration_start).count());
    plain_wall.push_back(r.wall_s);
    check(std::move(r), "untraced");
    if (args.trace) {
      opt.time_calls = true;
      const auto t0 = Clock::now();
      profiler->start();
      RepResult t = w->run(opt);
      profiler->stop();
      traced_host.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      for (std::int64_t ns : t.call_ns) calls.push_back(static_cast<double>(ns));
      check(std::move(t), "traced");
    }
    const auto now = Clock::now();
    last = std::chrono::duration<double>(now - iteration_start).count();
    elapsed = std::chrono::duration<double>(now - start).count();
  } while (elapsed + last < args.seconds);

  const RepResult& first = *first_run;
  std::printf("workload %s seed %" PRIu64 " (default %" PRIu64
              ", held-out %" PRIu64 ") runs %zu+%zu traced\n",
              w->name, opt.seed, kDefaultSeed, kHoldoutSeed,
              plain_wall.size(), traced_host.size());
  std::printf("output digest %016" PRIx64 "\n", digest);
  std::printf("ops offered %" PRId64 " completed %" PRId64 " goodput %" PRId64
              " shed %" PRId64 " failed %" PRId64 " events %" PRId64 "\n",
              first.offered, first.completed, first.goodput, first.shed,
              first.failed, first.events);
  std::printf("wall_s per run:");
  for (double s : plain_wall) std::printf(" %.4f", s);
  std::printf("\n");
  for (const std::string& v : violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }

  const double wall_s = median(plain_wall);
  const std::int64_t not_completed = first.shed + first.failed;
  if (!args.trace) {
    values["wall_s"] = wall_s;
    values["setup_s"] = setup_s;
    values["peak_rss_mb"] = peak_rss_mib();
    values["sim_mean_ms"] = mean_ms(first.latencies_ns);
    values["sim_tail_ms"] = percentile_ms(
        first.latencies_ns, not_completed, w->tail_percentile, first.makespan_ns);
    values["sim_makespan_s"] = static_cast<double>(first.makespan_ns) / 1e9;
    values["goodput_frac"] =
        static_cast<double>(first.goodput) / static_cast<double>(first.offered);
  } else {
    for (const auto& [name, value] : first.counters) values[name] = value;
    values["sim_p50_ms"] = percentile_ms(first.latencies_ns, not_completed,
                                         50.0, first.makespan_ns);
    values["failed_frac"] = static_cast<double>(not_completed) /
                            static_cast<double>(first.offered);
    values["sim.host_ns_per_event"] =
        wall_s * 1e9 / static_cast<double>(std::max<std::int64_t>(first.events, 1));
    if (w->call_metric != nullptr) values[w->call_metric] = median(calls);

    values["profile.overhead_s"] = median(traced_host) - median(plain_host);

    // A layer's self time per traced run: its share of the samples times
    // the profiled host time of one run.
    const Profiler::Attribution profile = profiler->attribute();
    std::int64_t total = 0;
    for (const auto& [layer, n] : profile.layers) total += n;
    values["profile.samples"] = static_cast<double>(total);
    double profiled_s = 0;
    for (double s : traced_host) profiled_s += s;
    profiled_s /= static_cast<double>(traced_host.size());
    const auto& known = profiled_layers();
    for (const auto& [layer, n] : profile.layers) {
      const std::string key =
          std::find(known.begin(), known.end(), layer) != known.end()
              ? layer
              : "other";
      values[key + ".self_s"] +=
          profiled_s * static_cast<double>(n) / static_cast<double>(total);
    }
    std::printf("profile: %" PRId64 " samples (%" PRId64
                " dropped) over %zu traced runs\n",
                total, profiler->dropped(), traced_host.size());
    std::vector<std::pair<std::int64_t, std::string>> layers, functions;
    for (const auto& [name, n] : profile.layers) layers.emplace_back(n, name);
    for (const auto& [name, n] : profile.functions) functions.emplace_back(n, name);
    std::sort(layers.rbegin(), layers.rend());
    std::sort(functions.rbegin(), functions.rend());
    for (const auto& [n, name] : layers) {
      std::printf("  layer %-10s %5.1f%%\n", name.c_str(),
                  100.0 * static_cast<double>(n) / static_cast<double>(total));
    }
    for (std::size_t i = 0; i < functions.size() && i < 12; ++i) {
      std::printf("  top   %5.1f%%  %.160s\n",
                  100.0 * static_cast<double>(functions[i].first) /
                      static_cast<double>(total),
                  functions[i].second.c_str());
    }
  }

  for (const MetricDef& m : metric_table()) {
    const Kind kind = args.trace ? Kind::kPerLayer : Kind::kEndToEnd;
    if (m.kind != kind) continue;
    std::printf("%-30s %18.6f %s\n", m.name.c_str(), values[m.name],
                m.unit.c_str());
  }
  const bool correct = violations.empty();
  std::printf("%s\n", result_json(correct, attempted, failed_runs, values,
                                  args.trace ? Kind::kPerLayer
                                             : Kind::kEndToEnd)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
