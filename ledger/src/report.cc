#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ledger {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision; non-finite values are not valid JSON, so they print as
// null (and a metric that reads null has already failed a check).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

int64_t MinSamplesFor(double p) {
  // n * (1 - p/100) >= 10 samples strictly beyond the percentile.
  return static_cast<int64_t>(std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9));
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value, int64_t samples) {
  metrics_[name] = Metric{unit, value, samples};
}

void Report::SetPercentile(const std::string& name, const std::string& unit,
                           const std::vector<double>& samples, double p) {
  const int64_t n = static_cast<int64_t>(samples.size());
  Check(n >= MinSamplesFor(p),
        name + ": " + std::to_string(n) + " samples, percentile " +
            std::to_string(p) + " needs " + std::to_string(MinSamplesFor(p)));
  const int64_t per_block = MinSamplesFor(p);
  const int64_t blocks = p > 50 ? std::max<int64_t>(1, n / per_block) : 1;
  std::vector<double> block_values;
  for (int64_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(n * b / blocks);
    const auto last =
        samples.begin() + static_cast<std::ptrdiff_t>(n * (b + 1) / blocks);
    block_values.push_back(Percentile(std::vector<double>(first, last), p));
  }
  Set(name, unit, Median(block_values), n);
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Check(bool ok, const std::string& what) {
  checks_ += 1;
  if (!ok && failures_.size() < 64) failures_.push_back(what);
}

void Report::CountOps(const std::string& type, int64_t attempted,
                      int64_t failed) {
  auto& counts = ops_[type];
  counts.first += attempted;
  counts.second += failed;
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_[key] = value;
}

int64_t Report::attempted() const {
  int64_t n = 0;
  for (const auto& [type, counts] : ops_) n += counts.first;
  return n;
}

int64_t Report::failed() const {
  int64_t n = 0;
  for (const auto& [type, counts] : ops_) n += counts.second;
  return n;
}

void Report::Print(const std::vector<std::string>& emit,
                   const std::string& report_path) const {
  std::printf("host:");
  for (const auto& [key, value] : stamp_) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n%-44s %16s %-10s %10s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, m] : metrics_) {
    std::printf("%-44s %16.6g %-10s %10lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("%-32s %12s %8s\n", "operation", "attempted", "failed");
  for (const auto& [type, counts] : ops_) {
    std::printf("%-32s %12lld %8lld\n", type.c_str(),
                static_cast<long long>(counts.first),
                static_cast<long long>(counts.second));
  }
  std::printf("checks: %lld, failed: %zu\n", static_cast<long long>(checks_),
              failures_.size());
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"correct\": %s, \"host\": {", correct() ? "true" : "false");
    bool first = true;
    for (const auto& [key, value] : stamp_) {
      std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(key).c_str(),
                   JsonString(value).c_str());
      first = false;
    }
    std::fprintf(f, "},\n \"metrics\": {");
    first = true;
    for (const auto& [name, m] : metrics_) {
      std::fprintf(f, "%s\n  %s: {\"value\": %s, \"unit\": %s, \"samples\": %lld}",
                   first ? "" : ",", JsonString(name).c_str(),
                   JsonNumber(m.value).c_str(), JsonString(m.unit).c_str(),
                   static_cast<long long>(m.samples));
      first = false;
    }
    std::fprintf(f, "},\n \"operations\": {");
    first = true;
    for (const auto& [type, counts] : ops_) {
      std::fprintf(f, "%s\n  %s: {\"attempted\": %lld, \"failed\": %lld}",
                   first ? "" : ",", JsonString(type).c_str(),
                   static_cast<long long>(counts.first),
                   static_cast<long long>(counts.second));
      first = false;
    }
    std::fprintf(f, "},\n \"check_failures\": [");
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::fprintf(f, "%s%s", i ? ", " : "", JsonString(failures_[i]).c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted()));
  line += ", \"failed\": " + std::to_string(failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : emit) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(it->second.value) +
            ", \"unit\": " + JsonString(it->second.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace ledger
