// Reporting helpers: uniform rendering of job metrics (JobMetrics,
// workloads/comd.h) as tables and machine-readable CSV, available to the
// examples and bench binaries (which mostly print paper-style rows
// directly).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "workloads/comd.h"

namespace nvmecr::workloads {

/// One measured configuration: a label plus its job metrics.
struct ReportRow {
  std::string label;
  JobMetrics metrics;
};

/// Collects rows across a sweep and renders them once.
class ScalingReport {
 public:
  explicit ScalingReport(std::string title) : title_(std::move(title)) {}

  void add(std::string label, JobMetrics metrics) {
    rows_.push_back(ReportRow{std::move(label), std::move(metrics)});
  }

  /// Paper-style aligned table on stdout.
  void print_table(FILE* out = stdout) const;

  /// CSV (header + one line per row) for plotting; returns the text.
  std::string to_csv() const;

  /// Writes the CSV next to the binary (best effort; returns false on
  /// IO failure — benches treat the CSV as optional).
  bool write_csv(const std::string& path) const;

  const std::vector<ReportRow>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<ReportRow> rows_;
};

}  // namespace nvmecr::workloads
