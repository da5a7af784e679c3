#include "workloads/report.h"

#include "common/table.h"

namespace nvmecr::workloads {

void ScalingReport::print_table(FILE* out) const {
  std::fprintf(out, "\n== %s ==\n", title_.c_str());
  TablePrinter table({"config", "ckpt eff", "ckpt eff (makespan)",
                      "recovery eff", "ckpt time (s)", "recovery (s)",
                      "progress", "load CoV"});
  for (const ReportRow& row : rows_) {
    const auto& m = row.metrics;
    table.add_row({row.label,
                   TablePrinter::num(m.checkpoint_efficiency(), 3),
                   TablePrinter::num(m.checkpoint_efficiency_makespan(), 3),
                   TablePrinter::num(m.recovery_efficiency(), 3),
                   TablePrinter::num(to_seconds(m.checkpoint_time), 3),
                   TablePrinter::num(to_seconds(m.recovery_time), 3),
                   TablePrinter::num(m.progress_rate(), 3),
                   TablePrinter::num(m.load_cov(), 4)});
  }
  table.print(out);
}

std::string ScalingReport::to_csv() const {
  std::string csv =
      "config,ckpt_eff,ckpt_eff_makespan,recovery_eff,ckpt_time_s,"
      "recovery_time_s,progress_rate,load_cov\n";
  char line[256];
  for (const ReportRow& row : rows_) {
    const auto& m = row.metrics;
    std::snprintf(line, sizeof(line), "%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.5f\n",
                  row.label.c_str(), m.checkpoint_efficiency(),
                  m.checkpoint_efficiency_makespan(), m.recovery_efficiency(),
                  to_seconds(m.checkpoint_time), to_seconds(m.recovery_time),
                  m.progress_rate(), m.load_cov());
    csv += line;
  }
  return csv;
}

bool ScalingReport::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string csv = to_csv();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  return ok;
}

}  // namespace nvmecr::workloads
