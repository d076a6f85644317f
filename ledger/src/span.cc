#include "span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace ledger {
namespace {

struct Record {
  const char* name;
  double start;
  double end;
  int64_t parent;  // index in the same buffer, -1 for a root span
  uint64_t request;
};

// Bounds the memory a long traced run can take: ~40 MB per thread.
constexpr size_t kMaxSpansPerThread = size_t{1} << 20;

struct ThreadBuffer {
  std::vector<Record> records;
  std::vector<int64_t> open;  // stack of open span indices
  int64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Span::Span(const char* name, uint64_t request) : start_(NowSeconds()) {
  if (!TracingEnabled()) return;
  ThreadBuffer& b = Local();
  if (b.records.size() >= kMaxSpansPerThread) {
    b.dropped += 1;
    return;
  }
  const int64_t parent = b.open.empty() ? -1 : b.open.back();
  if (request == 0 && parent >= 0) {
    request = b.records[static_cast<size_t>(parent)].request;
  }
  index_ = static_cast<int64_t>(b.records.size());
  b.records.push_back(Record{name, start_, -1.0, parent, request});
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& b = Local();
  b.records[static_cast<size_t>(index_)].end = NowSeconds();
  b.open.pop_back();
}

void Span::Rename(const char* name) {
  if (index_ < 0) return;
  Local().records[static_cast<size_t>(index_)].name = name;
}

double SpanStats::MedianSeconds() const {
  if (durations.empty()) return 0.0;
  std::vector<double> v = durations;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

TraceSummary ReduceTrace() {
  TraceSummary summary;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    const std::vector<Record>& records = buffer->records;
    summary.dropped += buffer->dropped;
    std::vector<double> child_time(records.size(), 0.0);
    for (const Record& r : records) {
      if (r.end < 0.0) continue;  // still open: not reduced
      if (r.parent >= 0) {
        child_time[static_cast<size_t>(r.parent)] += r.end - r.start;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.end < 0.0) continue;
      SpanStats& s = summary.by_name[r.name];
      const double wall = r.end - r.start;
      s.count += 1;
      s.total_seconds += wall;
      s.self_seconds += wall - child_time[i];
      s.durations.push_back(wall);
      summary.spans += 1;
    }
  }
  return summary;
}

bool WriteTraceSummary(const TraceSummary& summary, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": %lld, \"dropped\": %lld, \"by_name\": {",
               static_cast<long long>(summary.spans),
               static_cast<long long>(summary.dropped));
  bool first = true;
  for (const auto& [name, s] : summary.by_name) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_s\": %.9g, "
                 "\"self_s\": %.9g, \"median_s\": %.9g}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(s.count), s.total_seconds,
                 s.self_seconds, s.MedianSeconds());
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace ledger
