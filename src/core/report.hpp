// Plain-text table rendering for benchmark and example output, plus a
// machine-readable metric reporter (BENCH_<name>.json) so the perf
// trajectory of the simulation kernel can be tracked across PRs.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace evolve::core {

/// Fixed-column table printed in the style of the paper's result tables.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);

  /// Renders with column widths fitted to content.
  void print(std::ostream& out = std::cout) const;
  std::string to_string() const;

  int rows() const { return static_cast<int>(rows_.size()); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Flat metric-name → value report, written as `BENCH_<name>.json` in the
/// working directory. Insertion order is preserved in the output.
class MetricsReport {
 public:
  explicit MetricsReport(std::string bench_name);

  void set(const std::string& metric, double value);
  void set(const std::string& metric, std::int64_t value);
  void set(const std::string& metric, int value) {
    set(metric, static_cast<std::int64_t>(value));
  }

  std::string to_json() const;

  /// Writes `BENCH_<name>.json`; returns the file path.
  std::string write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

}  // namespace evolve::core
