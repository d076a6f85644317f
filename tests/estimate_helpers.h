// Estimate-request helpers shared by the test binaries that drive
// api::Engine::Estimate and serving::Cluster::Estimate.
#ifndef DDUP_TESTS_ESTIMATE_HELPERS_H_
#define DDUP_TESTS_ESTIMATE_HELPERS_H_

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/router.h"
#include "gtest/gtest.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ddup::api {

inline constexpr EstimateRequest::Kind kCard =
    EstimateRequest::Kind::kCardinality;
inline constexpr EstimateRequest::Kind kAqp = EstimateRequest::Kind::kAqp;

// A single-table estimate request; a scalar estimate is the one-query
// request's answers[0].
inline EstimateRequest Request(EstimateRequest::Kind kind,
                               const std::string& table,
                               std::vector<workload::Query> queries) {
  EstimateRequest request;
  request.kind = kind;
  request.table = table;
  request.queries = workload::QueryBatch(std::move(queries));
  return request;
}

// Variants of `valid` (predicate 0 an equality on a 2-code categorical
// column, predicate 1 a bound on a numeric column) with values the schema
// cannot hold. Without a value check they come back OK with an answer to
// another query: NaN, 1e300 and 2^32 + 1 as category 0 or 1 (MDN), code -5
// as code 0 (DARN, SPN), and a NaN range bound as a NaN answer (MDN).
inline std::vector<workload::Query> HostileQueries(
    const workload::Query& valid) {
  std::vector<workload::Query> out;
  for (double code : {std::nan(""), 1e300, 4294967297.0, -5.0}) {
    workload::Query q = valid;
    q.predicates[0].value = code;
    out.push_back(q);
  }
  workload::Query nan_bound = valid;
  nan_bound.predicates[1].value = std::nan("");
  out.push_back(nan_bound);
  return out;
}

// Every hostile variant of `valid`, second in a two-query request, is an
// InvalidArgument naming its index and its column.
template <typename Frontend>
void ExpectHostileQueriesRefused(const Frontend& frontend,
                                 EstimateRequest::Kind kind,
                                 const std::string& table,
                                 const workload::Query& valid) {
  for (const workload::Query& hostile : HostileQueries(valid)) {
    auto refused = frontend.Estimate(Request(kind, table, {valid, hostile}));
    ASSERT_FALSE(refused.ok()) << table;
    const Status& status = refused.status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << table;
    EXPECT_EQ(status.message().rfind("query 1: ", 0), 0u) << status.ToString();
    EXPECT_NE(status.message().find("column '"), std::string::npos)
        << status.ToString();
  }
}

// A hostile code on a join's predicated table (joined to `other` on the
// numeric column "y") is a typed plan error.
template <typename Frontend>
void ExpectHostileJoinRefused(const Frontend& frontend,
                              const std::string& predicated,
                              const std::string& other) {
  workload::JoinQuery join;
  join.joins.push_back({predicated, "y", other, "y"});
  join.predicates.push_back({predicated, {0, workload::CompareOp::kEq, -5.0}});
  EstimateRequest request;
  request.joins.Add(join);
  auto refused = frontend.Estimate(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanErrorFromStatus(refused.status()), PlanError::kInvalidValue);
  EXPECT_EQ(refused.status().message().rfind(
                "join query 0: [plan:invalid-value] table '" + predicated, 0),
            0u)
      << refused.status().ToString();
}

}  // namespace ddup::api

#endif  // DDUP_TESTS_ESTIMATE_HELPERS_H_
