// In-memory span recorder for the ledger's traced mode (--trace 1).
//
// A Span is an RAII scope around one call into a ddup layer's public entry
// point, made from the benchmark's own code: nothing inside src/ is traced.
// Each span records its name, start, end, parent (the enclosing span on the
// same thread) and a request id (inherited from the parent when not given),
// into a per-thread buffer — no lock on the hot path. With tracing off a
// Span costs one relaxed atomic load.
//
// At exit the buffers are reduced to per-name totals: count, wall time, and
// self time (wall minus the time of direct children), which is what makes
// adjacent layers subtract cleanly into a ledger.
#ifndef DDUP_LEDGER_SPAN_H_
#define DDUP_LEDGER_SPAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

// Process-wide switch; set once before any worker thread starts.
void EnableTracing(bool on);
bool TracingEnabled();

// Monotonic seconds since the first call in this process.
double NowSeconds();

class Span {
 public:
  // `name` must outlive the process (a string literal).
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Re-labels the span before it closes (e.g. an Ingest classified by what
  // it turned out to do). No-op with tracing off.
  void Rename(const char* name);
  // Wall seconds so far (valid with tracing on or off).
  double Elapsed() const { return NowSeconds() - start_; }

 private:
  int64_t index_ = -1;  // slot in this thread's buffer; -1 when untraced
  double start_ = 0.0;
};

struct SpanStats {
  int64_t count = 0;
  double total_seconds = 0.0;  // wall time inside the span
  double self_seconds = 0.0;   // wall time minus direct children
  // Per-span wall durations, for medians.
  std::vector<double> durations;

  double MeanSeconds() const { return count > 0 ? total_seconds / count : 0.0; }
  double MedianSeconds() const;
};

struct TraceSummary {
  std::map<std::string, SpanStats> by_name;
  int64_t spans = 0;
  int64_t dropped = 0;  // spans past the per-thread cap (not recorded)
};

// Reduces every thread's buffer. Call after all traced threads joined.
TraceSummary ReduceTrace();

// Writes the reduced summary as JSON (name -> count/total/self/median).
bool WriteTraceSummary(const TraceSummary& summary, const std::string& path);

}  // namespace ledger

#endif  // DDUP_LEDGER_SPAN_H_
