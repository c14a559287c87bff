#include "metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <regex>
#include <set>

#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(MetricTable, NamesAndUnitsAreWellFormed) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const MetricDef& m : metric_table()) {
    EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.name << " " << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  for (const Workload& w : workloads()) {
    EXPECT_TRUE(std::regex_match(std::string(w.name), name_re)) << w.name;
    EXPECT_TRUE(seen.insert(w.name).second) << "duplicate " << w.name;
  }
}

TEST(MetricTable, EveryProfiledLayerHasASelfTimeMetric) {
  std::set<std::string> names;
  for (const MetricDef& m : metric_table()) names.insert(m.name);
  for (const std::string& layer : profiled_layers()) {
    EXPECT_TRUE(names.count(layer + ".self_s")) << layer;
  }
  EXPECT_TRUE(names.count("profile.overhead_s"));
  EXPECT_TRUE(names.count("setup_s"));
}

TEST(Percentile, FailedOpsCountAsInfinitelySlow) {
  // 95 completed at 1..95 ms, 5 failed: p50 = 50 ms, p95 = 95 ms, p99
  // lands among the failures and reports the cap.
  std::vector<std::int64_t> ns;
  for (int i = 1; i <= 95; ++i) ns.push_back(i * 1000000LL);
  EXPECT_DOUBLE_EQ(percentile_ms(ns, 5, 50.0, 7000000000LL), 50.0);
  EXPECT_DOUBLE_EQ(percentile_ms(ns, 5, 95.0, 7000000000LL), 95.0);
  EXPECT_DOUBLE_EQ(percentile_ms(ns, 5, 99.0, 7000000000LL), 7000.0);
  EXPECT_DOUBLE_EQ(percentile_ms(ns, 0, 100.0, 7000000000LL), 95.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Digest, SensitiveToEveryWordAndOrder) {
  Digest a, b, c;
  a.add(std::uint64_t{1});
  a.add(std::uint64_t{2});
  b.add(std::uint64_t{2});
  b.add(std::uint64_t{1});
  c.add(std::uint64_t{1});
  c.add(std::uint64_t{2});
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

TEST(ResultJson, RejectsMissingAndNonFiniteValues) {
  std::map<std::string, double> values;
  for (const MetricDef& m : metric_table()) {
    if (m.kind == Kind::kEndToEnd) values[m.name] = 1.5;
  }
  const std::string ok = result_json(true, 3, 0, values, Kind::kEndToEnd);
  EXPECT_EQ(ok.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, ", 0), 0u);
  EXPECT_NE(ok.find("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
  values["wall_s"] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(result_json(true, 3, 0, values, Kind::kEndToEnd),
               std::logic_error);
  values.erase("wall_s");
  EXPECT_THROW(result_json(true, 3, 0, values, Kind::kEndToEnd),
               std::logic_error);
}

}  // namespace
}  // namespace perfbench
