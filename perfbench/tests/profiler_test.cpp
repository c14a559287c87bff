#include "profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "util/rng.hpp"

// A synthetic hot loop that lives in a library module's namespace: the
// profiler must charge its samples to that module.
namespace evolve::hpc {
__attribute__((noinline)) double perfbench_busy_loop(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  volatile double acc = 1.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) acc = acc * 1.0000001 + 1e-9;
  }
  return acc;
}
}  // namespace evolve::hpc

namespace perfbench {
namespace {

TEST(LayerOf, LeadingEvolveNamespaceNamesTheLayer) {
  EXPECT_EQ(layer_of("evolve::net::Fabric::solve_grouped()"), "net");
  EXPECT_EQ(layer_of("evolve::net::(anonymous namespace)::settle(int)"), "net");
  EXPECT_EQ(layer_of("evolve::storage::ObjectKey::full[abi:cxx11]() const"),
            "storage");
  EXPECT_EQ(layer_of("evolve::sim::Simulation::run()::{lambda()#1}::operator()() const"),
            "sim");
}

TEST(LayerOf, SkipsReturnTypesAndOperators) {
  EXPECT_EQ(layer_of("void evolve::util::SmallFn<void ()>::invoke<"
                     "evolve::net::Fabric::x()::{lambda()#1}>(void*)"),
            "util");
  EXPECT_EQ(layer_of("evolve::storage::ObjectKey::operator<("
                     "evolve::storage::ObjectKey const&) const"),
            "storage");
  EXPECT_EQ(layer_of("std::vector<int, std::allocator<int> > "
                     "evolve::metrics::f<int>(int)"),
            "metrics");
}

TEST(LayerOf, EvolveTypesInTemplateArgumentsDoNotCount) {
  EXPECT_EQ(layer_of("std::_Function_handler<void (), "
                     "evolve::core::Platform::run()::{lambda()#1}>::"
                     "_M_invoke(std::_Any_data const&)"),
            "");
  EXPECT_EQ(layer_of("std::less<evolve::storage::ObjectKey>::operator()("
                     "evolve::storage::ObjectKey const&) const"),
            "");
  EXPECT_EQ(layer_of("malloc"), "");
  EXPECT_EQ(layer_of("??"), "");
}

TEST(LayerOf, BenchmarkFrames) {
  EXPECT_EQ(layer_of("perfbench::(anonymous namespace)::run(perfbench::Args const&)"),
            "bench");
}

TEST(Profiler, AttributesSyntheticBusyLoopToItsModule) {
  Profiler profiler;
  profiler.start();
  const double acc = evolve::hpc::perfbench_busy_loop(0.3);
  profiler.stop();
  EXPECT_GT(acc, 0.0);
  const Profiler::Attribution a = profiler.attribute();
  const std::int64_t total = profiler.samples();
  ASSERT_GT(total, 100);  // 0.3 s at 500 us
  EXPECT_EQ(profiler.dropped(), 0);
  EXPECT_GE(a.layers.count("hpc") ? a.layers.at("hpc") : 0, total * 9 / 10);
}

TEST(Profiler, AttributesLibraryHotspotToItsModule) {
  evolve::util::Rng rng(7);
  Profiler profiler;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  std::int64_t sum = 0;
  profiler.start();
  while (std::chrono::steady_clock::now() < until) sum += rng.zipf(1 << 16, 1.05);
  profiler.stop();
  EXPECT_GE(sum, 0);
  const Profiler::Attribution a = profiler.attribute();
  const std::int64_t total = profiler.samples();
  ASSERT_GT(total, 100);
  // Rng::zipf dominates; the loop's own clock reads are charged elsewhere.
  EXPECT_GE(a.layers.count("util") ? a.layers.at("util") : 0, total * 3 / 4);
}

TEST(Profiler, SamplesAccumulateAcrossStartStop) {
  Profiler profiler;
  profiler.start();
  evolve::hpc::perfbench_busy_loop(0.05);
  profiler.stop();
  const std::int64_t first = profiler.samples();
  profiler.start();
  evolve::hpc::perfbench_busy_loop(0.05);
  profiler.stop();
  EXPECT_GT(first, 0);
  EXPECT_GT(profiler.samples(), first);
}

}  // namespace
}  // namespace perfbench
