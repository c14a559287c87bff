// Outside-in layer profiler.
//
// A POSIX CLOCK_MONOTONIC timer sends SIGPROF every 500 us; the
// handler records the interrupted stack with backtrace() into a buffer
// allocated up front. After the run, each sample is attributed to the
// innermost frame whose function lives in an `evolve::<module>::`
// namespace (the module is the layer), using addr2line on this
// executable's debug info so inlined frames and internal-linkage
// functions resolve too. Frames of the benchmark program itself
// (`perfbench::`) attribute to "bench"; samples with neither attribute
// to "other".
//
// Nothing in the library is instrumented: almost all of a layer's work
// runs inside event callbacks during Simulation::run, so only stack
// sampling can split it by layer from outside. One Profiler may be
// armed at a time (the signal handler writes into process-wide state).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Layer of one demangled function name: the module after a leading
/// `evolve::` ("net" for `evolve::net::Fabric::solve_grouped()`),
/// "bench" for `perfbench::` functions, "" for anything else (libc,
/// libstdc++, and `std::` wrappers whose template arguments merely
/// mention evolve types). A leading return type is skipped.
std::string layer_of(std::string_view function);

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the timer; samples accumulate across start/stop pairs.
  void start();
  void stop();

  std::int64_t samples() const;
  /// Samples lost because the buffer was full.
  std::int64_t dropped() const;

  /// Sample counts per layer, and per attributed function (the frame
  /// that decided the layer). Layers with no samples are absent.
  struct Attribution {
    std::map<std::string, std::int64_t> layers;
    std::map<std::string, std::int64_t> functions;
  };
  /// Resolves every recorded sample. Runs addr2line on /proc/self/exe,
  /// writing its address list beside the executable.
  Attribution attribute() const;

 private:
  std::vector<void*> frames_;         // kMaxSamples x kDepth, preallocated
  std::vector<std::uint8_t> depths_;  // frames recorded per sample
  bool running_ = false;
  void* timer_ = nullptr;      // timer_t
};

}  // namespace perfbench
