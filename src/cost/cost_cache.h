#ifndef SNAKES_COST_COST_CACHE_H_
#define SNAKES_COST_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/workload_cost.h"
#include "curves/linearization.h"
#include "lattice/workload.h"
#include "obs/obs.h"

namespace snakes {

/// Memoized per-class strategy costs — the expensive half of re-advising.
///
/// A strategy's per-class average cost (fragments over queries) depends only
/// on the strategy and the schema, never on the workload; what the workload
/// changes is how the per-class averages are *weighted*. So across workload
/// epochs the fragment counts can be cached per (strategy, class) and a
/// re-advise only pays for classes it has never costed before — the
/// O(sum over queries of runs) or O(cells * levels) measurement work — while
/// the O(|L|) weighted summation is recomputed exactly every time, keeping
/// results bit-identical to an uncached evaluation.
///
/// Entries are exact integers (TotalFragments / NumQueries, the same values
/// ClassCostTable stores), so a cache hit reproduces the uncached AvgDouble
/// bit for bit regardless of which fill wrote it (run counting and the edge
/// walk agree exactly; see tests/rank_run_test).
///
/// Caches can share one table (ShareTable): a service tenant's advise verb
/// and its ReclusterEngine fill the same entries, each with its own hit/miss
/// counters. Thread-safety: the strategy map is mutex-guarded, entries are
/// node-stable, counters atomic, and MeasureExpectedCostCached holds an
/// entry's fill lock across its fill-and-sum, so any calls may run at once;
/// two on one strategy serialize, and the second hits what the first filled.
class ClassCostCache {
 public:
  /// Cumulative hit/miss counts. A miss is one per-class cost evaluation —
  /// the unit IncrementalAdvisorState::last_cost_evaluations counts.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Per-strategy memo: fragments/queries per dense lattice index, with a
  /// validity mask (a class is present once costed).
  struct StrategyCosts {
    /// Every class unknown (0 fragments over 1 query).
    explicit StrategyCosts(uint64_t num_classes = 0)
        : fragments(num_classes, 0),
          queries(num_classes, 1),
          known(num_classes, 0) {}

    std::vector<uint64_t> fragments;
    std::vector<uint64_t> queries;
    std::vector<char> known;
    std::mutex fill_mu;
  };

  /// The memo for `name`, created empty (sized `num_classes`) on first use.
  /// The returned pointer is stable while any cache holds the table.
  StrategyCosts* Strategy(const std::string& name, uint64_t num_classes);

  /// Number of distinct strategies with at least one costed class.
  uint64_t NumStrategies() const;

  /// Shares `other`'s table, keeping this cache's counters. Call before use.
  void ShareTable(const ClassCostCache& other) { table_ = other.table_; }

  Stats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  void RecordHits(uint64_t n) { hits_.fetch_add(n, std::memory_order_relaxed); }
  void RecordMisses(uint64_t n) {
    misses_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  struct Table {
    std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<StrategyCosts>> strategies;
  };
  std::shared_ptr<Table> table_ = std::make_shared<Table>();
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// The class-cost fill: MeasureExpectedCost with the per-class fragment
/// counts memoized in `cache`, computed at most once per cache lifetime.
/// The classes a non-zero probability selects and the cache lacks are
/// filled one of two ways. For a strategy without a run decomposition
/// (Linearization::HasRunDecomposition), one edge walk (MeasureClassCosts,
/// O(cells * dims)) fills every class at once. Otherwise each missing class
/// is counted on its own: the closed form num_cells() for
/// Linearization::ClassRunsDegenerate classes, else the run count of one
/// AppendClassRuns pass. Classes with zero probability are neither computed
/// nor charged. `cache` must not be null; pass the same instance across
/// epochs to amortize; it is charged this call's hits and misses. The mode
/// argument is ignored; it is kept while the perf ledger still passes one.
/// `arena` (optional) is per-thread reusable run storage for the per-class
/// fills — identical fragment integers either way.
double MeasureExpectedCostCached(const Workload& mu, const Linearization& lin,
                                 ClassCostCache* cache, const ObsSink& obs = {},
                                 CostEvalMode = CostEvalMode::kAuto,
                                 RunArena* arena = nullptr);

}  // namespace snakes

#endif  // SNAKES_COST_COST_CACHE_H_
