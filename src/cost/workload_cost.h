#ifndef SNAKES_COST_WORKLOAD_COST_H_
#define SNAKES_COST_WORKLOAD_COST_H_

#include "cost/class_cost.h"
#include "cost/edge_model.h"
#include "curves/run_arena.h"
#include "lattice/workload.h"
#include "obs/obs.h"
#include "path/lattice_path.h"

namespace snakes {

/// cost_mu(S) (Section 4): the expected per-query seek cost of a strategy
/// whose per-class average costs are tabulated in `costs`, under workload mu.
double ExpectedCost(const Workload& mu, const ClassCostTable& costs);

/// Analytic cost_mu(P) for an unsnaked lattice path on the lattice cost
/// model: sum_u p_u * dist_P(u). This is the objective the Figure-4 DP
/// minimizes; exact for uniform hierarchies and defined for fractional
/// average fanouts.
double ExpectedPathCost(const Workload& mu, const LatticePath& path);

/// Analytic cost_mu of the snaked version of `path` on the lattice model.
double ExpectedSnakedPathCost(const Workload& mu, const LatticePath& path);

/// Ignored: one fill chooses how to count class costs (see
/// MeasureExpectedCostCached). Kept only because the perf ledger still
/// names it.
enum class CostEvalMode {
  kAuto,
};

/// Expected cost of an arbitrary linearization under `mu`, measured exactly.
/// This is the fill of MeasureExpectedCostCached (cost/cost_cache.h) over a
/// call-local table, with one difference: with nothing to amortize into, it
/// also takes the whole-table edge walk when the weighted classes hold more
/// queries than the grid has cells, since counting runs costs at least one
/// step per query. A query's fragment count *is* its rank-run count, so the
/// result is bit-identical to ExpectedCost(mu, MeasureClassCosts(lin))
/// whichever way the fill counts. `obs` (optional) wraps the measurement in
/// a "cost/measure" span and counts cost.cache_misses (one per class
/// filled) plus cost.cells_scanned (edge walk) or curves.runs_emitted
/// (per-class runs). `arena` (optional) is reused run storage — identical
/// results, fewer allocations; pass one per thread.
double MeasureExpectedCost(const Workload& mu, const Linearization& lin,
                           const ObsSink& obs = {}, RunArena* arena = nullptr);

}  // namespace snakes

#endif  // SNAKES_COST_WORKLOAD_COST_H_
