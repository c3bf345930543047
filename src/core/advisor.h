#ifndef SNAKES_CORE_ADVISOR_H_
#define SNAKES_CORE_ADVISOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "cost/cost_cache.h"
#include "curves/linearization.h"
#include "path/dp_cache.h"
#include "hierarchy/star_schema.h"
#include "lattice/workload.h"
#include "path/lattice_path.h"
#include "storage/executor.h"
#include "storage/fact_table.h"
#include "util/logging.h"
#include "util/result.h"

namespace snakes {

/// One evaluated strategy in a recommendation report.
struct StrategyReport {
  std::string name;
  /// Expected seek cost under the analytic cell-granularity model
  /// (cost_mu of Section 4 / the extended CV cost of Section 5). Model-
  /// independent: the ranking key, and what the class-cost cache memoizes.
  double expected_cost = 0.0;
  /// Expected per-query elapsed time under the request's CostModel: priced
  /// from the measured WorkloadIoStats when storage was measured, else from
  /// the seek surrogate alone (expected_cost * the model's per-seek ms).
  double expected_ms = 0.0;
  /// Measured expected I/O when the request set measure_storage.
  std::optional<WorkloadIoStats> io;
  /// The evaluated cell order itself, shared with the plan — lets callers
  /// (the recluster engine, storage) act on a recommendation without
  /// re-deriving the strategy from its name.
  std::shared_ptr<const Linearization> linearization;
};

/// The advisor's answer for one workload.
struct Recommendation {
  /// The optimal lattice path from the dynamic program (Section 4).
  LatticePath optimal_path;
  /// The path whose snaked clustering is cheapest (the snaked-cost DP,
  /// src/path/snaked_dp.h — Corollary 1's "optimal snaked lattice path").
  /// Often equal to optimal_path; never worse snaked.
  LatticePath optimal_snaked_path;
  /// cost_mu of the optimal path, unsnaked / snaked, and of the snaked
  /// optimum.
  double optimal_path_cost = 0.0;
  double snaked_optimal_cost = 0.0;
  double optimal_snaked_cost = 0.0;
  /// Every evaluated strategy, ascending expected cost. The first entry is
  /// the recommendation; on complete binary 2-D schemas Theorem 2 makes the
  /// optimal snaked path globally optimal, and it is first in almost every
  /// practical configuration.
  std::vector<StrategyReport> ranked;

  /// True when at least one strategy was evaluated. `ranked` is empty only
  /// when the request restricted the families and every one was inapplicable.
  bool has_best() const { return !ranked.empty(); }

  /// The cheapest evaluated strategy. Aborts with a clear message when no
  /// strategy was evaluated (check has_best() on restricted requests).
  const StrategyReport& best() const {
    SNAKES_CHECK(!ranked.empty())
        << "Recommendation::best(): no strategy was evaluated — every "
           "requested family was inapplicable to the schema";
    return ranked.front();
  }

  /// Plain-text report table.
  std::string ToString() const;
};

/// Bitwise recommendation equality: both DP paths, every cost double
/// compared by bit pattern (no epsilon), and the full ranking (names, order,
/// expected costs). This is the contract the memoized paths are held to —
/// AdviseIncremental vs a cold Advise, and the service's warm serving path
/// vs a direct library call. Shared so benches, tests, and the service
/// simulator all check the same predicate.
bool BitIdenticalRecommendations(const Recommendation& a,
                                 const Recommendation& b);

/// Memoized state threaded through AdviseIncremental calls. One instance
/// per (advisor, strategy set) sequence of workload epochs: the caller keeps
/// it alive across epochs and the advisor fills it as it goes. The caches
/// only ever hold workload-independent per-class integers (cost_cache) and
/// exactly-verified DP solutions (dp_cache), so reuse across epochs is
/// bit-identical to advising from scratch — just cheaper. A service tenant's
/// advise-verb state shares its engine state's class-cost table
/// (ClassCostCache::ShareTable); dp_cache and the counters stay per state.
struct IncrementalAdvisorState {
  ClassCostCache cost_cache;
  DpCache dp_cache;
  /// Completed AdviseIncremental calls.
  uint64_t advises = 0;
  /// Per-class cost evaluations (cache misses) and avoided re-evaluations
  /// (cache hits) during the most recent advise — the incremental-speedup
  /// numbers the recluster engine and the bench guard report.
  uint64_t last_cost_evaluations = 0;
  uint64_t last_cost_hits = 0;
  uint64_t last_dp_hits = 0;
  uint64_t last_dp_misses = 0;
};

/// The library's top-level API: given a star schema and an expected workload
/// over its query-class lattice, finds the optimal lattice path (DP), applies
/// snaking, evaluates the requested strategy families in parallel, and
/// recommends a clustering.
///
///   auto schema = ...; Workload mu = ...;
///   ClusteringAdvisor advisor(schema);
///   EvaluationRequest request{mu};
///   Result<Recommendation> rec = advisor.Advise(request);
///   auto order = advisor.RecommendedOrder(mu);   // rank <-> cell
///
/// Advise = Plan + Evaluate. Plan resolves the request against a strategy
/// registry (running the path DPs); Evaluate scores every planned candidate
/// — the analytic cost and, when requested, the packed-storage measurement —
/// as an independent task on a fixed-size thread pool. The ranking is
/// deterministic: identical at every thread count.
class ClusteringAdvisor {
 public:
  explicit ClusteringAdvisor(std::shared_ptr<const StarSchema> schema)
      : schema_(std::move(schema)) {}

  const StarSchema& schema() const { return *schema_; }

  /// Resolves `request` into a concrete evaluation plan: validates the
  /// workload, runs the optimal-path and snaked-path DPs, consults the
  /// strategy registry, and materializes every applicable candidate.
  /// Inapplicable families are recorded in plan.skipped.
  Result<EvaluationPlan> Plan(const EvaluationRequest& request) const;

  /// Scores every planned candidate across the thread pool and assembles the
  /// ranked recommendation.
  Result<Recommendation> Evaluate(const EvaluationPlan& plan) const;

  /// Plan + Evaluate in one call.
  Result<Recommendation> Advise(const EvaluationRequest& request) const;

  /// Advise through `state`'s memos: per-class strategy costs computed in
  /// earlier calls are reused (they are workload-independent), and the path
  /// DPs are reused when the workload is bit-identical to a previous epoch.
  /// The recommendation is bit-identical to Advise(request) on the same
  /// workload — same costs, same ranking — while re-advising after a small
  /// drift performs evaluations only for classes never costed before.
  /// Ignores request.cost_cache / request.dp_cache (the state's are used).
  /// `state` must outlive the call; one advise at a time per state.
  Result<Recommendation> AdviseIncremental(const EvaluationRequest& request,
                                           IncrementalAdvisorState* state) const;

  /// The physical cell order to hand to the storage layer: the snaked
  /// clustering of the optimal snaked lattice path for `mu`.
  Result<std::unique_ptr<Linearization>> RecommendedOrder(
      const Workload& mu) const;

  /// The workload's query-class lattice for this schema.
  QueryClassLattice Lattice() const { return QueryClassLattice(*schema_); }

 private:
  std::shared_ptr<const StarSchema> schema_;
};

}  // namespace snakes

#endif  // SNAKES_CORE_ADVISOR_H_
