// Bench harness: the one place that decides what a bench run accepts on
// its command line and which report files it writes.
//
// A bench names itself once and lists the flags it takes; any other
// argument prints a one-line usage to stderr and exits 2 before the
// bench simulates anything. The harness owns the bench's MetricsReport
// and tracers, and finish() writes TRACE_<name>.json (under --trace)
// then BENCH_<name>.json (under --json), each with a "wrote <path>" line.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"

namespace evolve::bench {

/// Command-line flags a bench may accept; combine with `|`.
enum Flag : unsigned { kJson = 1u << 0, kTrace = 1u << 1, kQuick = 1u << 2 };

class Harness;

/// Where one scenario's spans go: a labelled process in the bench's
/// trace file, or nowhere (default-constructed, or --trace off).
class TraceSlot {
 public:
  TraceSlot() = default;

 private:
  friend class Harness;
  friend class ScopedTracer;
  TraceSlot(Harness* harness, std::string label)
      : harness_(harness), label_(std::move(label)) {}

  Harness* harness_ = nullptr;
  std::string label_;
};

/// One scenario's tracer; get() is nullptr for an untraced slot. Declare
/// it right after the scenario's Simulation: leaving scope closes the
/// open spans, which reads that Simulation's clock.
class ScopedTracer {
 public:
  ScopedTracer(const TraceSlot& slot, sim::Simulation& sim);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

  trace::Tracer* get() const { return tracer_; }

 private:
  trace::Tracer* tracer_ = nullptr;
};

class Harness {
 public:
  /// `name` is the report name (BENCH_<name>.json from bench_<name>);
  /// `accepted` the Flags it takes. Exits 2 on any other argument.
  Harness(std::string name, unsigned accepted, int argc, char** argv);

  bool json() const { return (given_ & kJson) != 0; }
  bool tracing() const { return (given_ & kTrace) != 0; }
  bool quick() const { return (given_ & kQuick) != 0; }

  core::MetricsReport& report() { return report_; }

  /// A slot tracing its scenario as process `label` under --trace.
  /// Processes appear in the order their scenarios ran.
  TraceSlot trace(std::string label);

  /// Writes the trace file, then the report; returns main's exit code.
  int finish();

 private:
  friend class ScopedTracer;

  std::string name_;
  unsigned given_ = 0;
  core::MetricsReport report_;
  std::vector<std::pair<std::string, std::unique_ptr<trace::Tracer>>>
      tracers_;
};

/// Exact p99: the element at rank (n-1)*99/100, found by nth_element
/// (so `values` is reordered); 0 when empty.
double exact_p99(std::vector<double>& values);

}  // namespace evolve::bench
