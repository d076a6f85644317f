#include "workload/query.h"

#include <charconv>
#include <cmath>
#include <cstring>

#include "common/status.h"

namespace ddup::workload {

namespace {
const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLe:
      return "<=";
  }
  return "?";
}

const char* AggName(AggFunc agg) {
  switch (agg) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

// Shortest round-trip spelling ("nan", "1e+300", "4294967297").
std::string FormatValue(double value) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}
}  // namespace

std::string Query::ToString(const storage::Table& table) const {
  std::string s = "SELECT ";
  s += AggName(agg);
  s += "(";
  s += agg == AggFunc::kCount ? "*" : table.column(agg_column).name();
  s += ") WHERE ";
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) s += " AND ";
    const Predicate& p = predicates[i];
    s += table.column(p.column).name();
    s += OpName(p.op);
    s += std::to_string(p.value);
  }
  return s;
}

uint64_t QueryFingerprint(const Query& query) {
  // FNV-1a, 64-bit. Doubles hash by bit pattern, so 0.0 and -0.0 (or any
  // two values that merely compare equal) are distinct queries — exactly
  // the granularity at which estimates must be reproducible.
  constexpr uint64_t kOffset = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = kOffset;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= kPrime;
    }
  };
  for (const Predicate& p : query.predicates) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(p.column)));
    mix(static_cast<uint64_t>(p.op));
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(p.value), "double is 64-bit");
    std::memcpy(&bits, &p.value, sizeof(bits));
    mix(bits);
  }
  mix(static_cast<uint64_t>(query.agg));
  mix(static_cast<uint64_t>(static_cast<int64_t>(query.agg_column)));
  return h;
}

Status CheckQueryValues(const storage::Table& schema, const Query& query) {
  for (const Predicate& p : query.predicates) {
    if (p.column < 0 || p.column >= schema.num_columns()) {
      return Status::InvalidArgument("predicate on out-of-range column " +
                                     std::to_string(p.column));
    }
    const storage::Column& c = schema.column(p.column);
    if (std::isnan(p.value)) {
      return Status::InvalidArgument("predicate on column '" + c.name() +
                                     "' has value NaN");
    }
    if (!c.is_numeric() && p.op == CompareOp::kEq &&
        !(p.value >= 0.0 && p.value < static_cast<double>(c.cardinality()) &&
          p.value == std::floor(p.value))) {
      return Status::InvalidArgument(
          "equality on categorical column '" + c.name() + "' has value " +
          FormatValue(p.value) + ", not a code in its dictionary of " +
          std::to_string(c.cardinality()) + " entries");
    }
  }
  return Status::OK();
}

bool RowMatches(const storage::Table& table, const Query& query, int64_t row) {
  for (const Predicate& p : query.predicates) {
    double v = table.column(p.column).AsDouble(row);
    switch (p.op) {
      case CompareOp::kEq:
        if (v != p.value) return false;
        break;
      case CompareOp::kGe:
        if (!(v >= p.value)) return false;
        break;
      case CompareOp::kLe:
        if (!(v <= p.value)) return false;
        break;
    }
  }
  return true;
}

}  // namespace ddup::workload
