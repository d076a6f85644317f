// The traced layer walk (--trace 1): calls each layer's public entry points
// with the workload's own inputs, inside spans, and reduces the spans to
// the per-layer metrics and the two ledgers (read path, update path) that
// relate them to the workload's end-to-end numbers.
#ifndef DDUP_LEDGER_LAYERS_H_
#define DDUP_LEDGER_LAYERS_H_

#include <vector>

#include "fixture.h"
#include "workloads.h"

namespace ledger {

struct WalkInputs {
  const Stream* stream = nullptr;  // the census drift cycle
  // Engine-side InsertionReports of the run: every pass, and the first pass
  // over the stream (compared decision by decision with the core replay).
  const ReportsByTable* reports = nullptr;
  const ReportsByTable* first_pass = nullptr;
  // End-to-end staleness samples of the run (the update ledger's total).
  StalenessByTable staleness_ms;
};

void RunLayerWalk(RunContext* ctx, const WalkInputs& in);

}  // namespace ledger

#endif  // DDUP_LEDGER_LAYERS_H_
