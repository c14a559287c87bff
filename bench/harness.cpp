#include "harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "trace/export.hpp"

namespace evolve::bench {

namespace {

constexpr std::pair<Flag, std::string_view> kFlags[] = {
    {kJson, "--json"}, {kTrace, "--trace"}, {kQuick, "--quick"}};

}  // namespace

Harness::Harness(std::string name, unsigned accepted, int argc, char** argv)
    : name_(std::move(name)), report_(name_) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    unsigned flag = 0;
    for (const auto& [bit, text] : kFlags) {
      if (arg == text) flag = bit;
    }
    if ((accepted & flag) == 0) {
      std::cerr << "bench_" << name_ << ": unknown argument '" << arg
                << "'; usage: bench_" << name_;
      for (const auto& [bit, text] : kFlags) {
        if (accepted & bit) std::cerr << " [" << text << "]";
      }
      std::cerr << "\n";
      std::exit(2);
    }
    given_ |= flag;
  }
}

TraceSlot Harness::trace(std::string label) {
  return tracing() ? TraceSlot(this, std::move(label)) : TraceSlot();
}

int Harness::finish() {
  if (tracing()) {
    std::vector<trace::TraceProcess> processes;
    for (const auto& [label, tracer] : tracers_) {
      processes.push_back({label, tracer.get()});
    }
    std::cout << "wrote " << trace::write_chrome_trace(name_, processes)
              << "\n";
  }
  if (json()) std::cout << "wrote " << report_.write() << "\n";
  return 0;
}

ScopedTracer::ScopedTracer(const TraceSlot& slot, sim::Simulation& sim) {
  if (slot.harness_ == nullptr) return;
  auto& tracers = slot.harness_->tracers_;
  tracers.emplace_back(slot.label_, std::make_unique<trace::Tracer>(sim));
  tracer_ = tracers.back().second.get();
}

ScopedTracer::~ScopedTracer() {
  if (tracer_ != nullptr) tracer_->close_open_spans();
}

double exact_p99(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const std::size_t k = (values.size() - 1) * 99 / 100;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

}  // namespace evolve::bench
