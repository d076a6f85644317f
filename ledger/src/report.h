// Run report: every metric with its unit and sample count, attempted and
// failed counts per operation type, the output checks, and the host stamp.
// The last stdout line is the one-object JSON result; the full report goes
// to a file next to it.
#ifndef DDUP_LEDGER_REPORT_H_
#define DDUP_LEDGER_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

// Percentile p (0..100) of `samples` by nearest rank. A percentile is only
// trusted with at least ten samples beyond it; MinSamplesFor gives that
// count (p50 -> 20, p99 -> 1000).
double Percentile(std::vector<double> samples, double p);
int64_t MinSamplesFor(double p);
double Median(std::vector<double> samples);

class Report {
 public:
  struct Metric {
    std::string unit;
    double value = 0.0;
    int64_t samples = 0;
  };

  void Set(const std::string& name, const std::string& unit, double value,
           int64_t samples);
  // Sets the p-th percentile of `samples` and checks the sample count.
  // A tail percentile (p > 50) is the median over consecutive blocks of
  // the samples, each block long enough for that percentile, of the
  // block's percentile: one burst of lost CPU moves one block, not the
  // result.
  void SetPercentile(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples, double p);
  double Get(const std::string& name) const;

  // Records one output check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  // Per operation type: attempted and failed operations.
  void CountOps(const std::string& type, int64_t attempted, int64_t failed);
  void Stamp(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }
  int64_t attempted() const;
  int64_t failed() const;
  const std::vector<std::string>& failures() const { return failures_; }

  // Human-readable report on stdout, the full report as JSON at
  // `report_path`, and the result line (only `emit` metrics) last.
  void Print(const std::vector<std::string>& emit,
             const std::string& report_path) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::pair<int64_t, int64_t>> ops_;
  std::map<std::string, std::string> stamp_;
  std::vector<std::string> failures_;
  int64_t checks_ = 0;
};

}  // namespace ledger

#endif  // DDUP_LEDGER_REPORT_H_
