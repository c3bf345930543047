#ifndef SNAKES_STORAGE_EXECUTOR_H_
#define SNAKES_STORAGE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "curves/run_arena.h"
#include "lattice/grid_query.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "obs/obs.h"
#include "storage/backend.h"
#include "util/logging.h"
#include "util/result.h"

namespace snakes {

class Counter;
class Histogram;

/// Exact aggregates over every query of one query class.
struct ClassIoStats {
  uint64_t num_queries = 0;   // all queries in the class
  uint64_t num_nonempty = 0;  // queries selecting >= 1 record
  uint64_t total_pages = 0;
  uint64_t total_seeks = 0;
  double total_normalized = 0.0;  // sum of per-query NormalizedBlocks()

  /// Average seeks per non-empty query (empty queries read nothing; the
  /// paper's per-query minimum of 1 seek only applies to queries that
  /// retrieve data).
  double AvgSeeks() const {
    return num_nonempty == 0
               ? 0.0
               : static_cast<double>(total_seeks) /
                     static_cast<double>(num_nonempty);
  }

  /// Average normalized blocks read per non-empty query.
  double AvgNormalizedBlocks() const {
    return num_nonempty == 0 ? 0.0 : total_normalized /
                                         static_cast<double>(num_nonempty);
  }

  /// Average pages read per non-empty query.
  double AvgPages() const {
    return num_nonempty == 0
               ? 0.0
               : static_cast<double>(total_pages) /
                     static_cast<double>(num_nonempty);
  }
};

/// Expected I/O of a layout under a workload (the Table-4 metrics, plus the
/// raw page expectation the cost models price as transfer time).
struct WorkloadIoStats {
  double expected_seeks = 0.0;
  double expected_normalized_blocks = 0.0;
  double expected_pages = 0.0;
};

/// Measures grid-query I/O against any StorageBackend, exactly (aggregating
/// over every query of a class in one pass) or per query.
///
/// Queries are evaluated interval-first: the linearization decomposes the
/// query box into rank runs (Linearization::AppendRuns) and each run's page
/// footprint comes from StorageBackend::MeasureRange in O(1), so a query
/// costs O(runs) instead of O(cells in box). MeasureClass does the same for
/// a whole class in one batched Linearization::AppendClassRuns pass, on
/// every backend and every class. The seed's cell-walk evaluators are kept
/// as MeasureCellWalk / MeasureClassCellWalk — test oracles the run paths
/// are checked against, not production paths.
///
/// On partitioned backends Measure also counts, from the same runs, the
/// partitions that hold >= 1 record of the query: each run's first and last
/// page are located in StorageBackend::PartitionFirstPages, so the count
/// costs O(runs · log partitions) and never sweeps the directory. The
/// storage.partitions_scanned / storage.partitions_pruned counters expose
/// it. The zone maps (StorageBackend::PruneBox) are not consulted: the
/// partitions a read touches are a subset of the zone-map survivors, and
/// QueryIo is bit-identical across backends either way.
///
/// With an ObsSink the simulator mirrors its measurements into the registry
/// — storage.pages_read / storage.seeks counters on every path,
/// storage.cells_scanned on the cell-walk oracles, curves.runs_emitted and a
/// curves.cells_per_run histogram on the run paths, plus a
/// storage.run_length_pages histogram of sequential-run lengths — and
/// wraps MeasureAllClasses in a "storage/measure_all" span. Metric pointers
/// are resolved once here, so the per-measurement cost is a null test.
class IoSimulator {
 public:
  /// `arena`, when non-null, is the run storage every measurement on this
  /// simulator reuses (per-box scratch and batched per-class emission);
  /// otherwise the simulator owns one. Either way the arena makes the
  /// simulator single-threaded state: one IoSimulator (and one external
  /// arena) per thread. Results are bit-identical with or without a shared
  /// arena — only allocation traffic changes.
  explicit IoSimulator(const StorageBackend& backend, const ObsSink& obs = {},
                       RunArena* arena = nullptr);

  /// I/O of one query from its rank-run decomposition, O(runs). When
  /// `prune` is non-null it receives the partitions this query reads —
  /// scanned is the number holding >= 1 of its records, pruned the rest
  /// (zeros on unpartitioned backends) — the per-request attribution the
  /// service's flight recorder records; the aggregate counters are
  /// unaffected. When `cents` is non-null it receives the query's exact
  /// SUM of the measure in cents, from the same runs' rank-prefix sums (so
  /// COUNT is the returned records and SUM costs nothing extra per cell).
  /// Wrapped in a "storage/measure" span when tracing, so a request's trace
  /// nests request -> verb -> storage.
  QueryIo Measure(const GridQuery& query, PruneStats* prune = nullptr,
                  int64_t* cents = nullptr) const;

  /// I/O of one query by walking the query's cells in rank order. Reference
  /// implementation; identical results to Measure on every layout.
  QueryIo MeasureCellWalk(const GridQuery& query) const;

  /// Exact per-class aggregates from one batched AppendClassRuns pass
  /// through the arena: every query's runs are priced by MeasureRange and
  /// folded into per-query page-run state. O(runs in class) time when the
  /// strategy has a run decomposition, O(cells) otherwise;
  /// O(queries in class) space.
  ClassIoStats MeasureClass(const QueryClass& cls) const;

  /// Exact per-class aggregates in one pass over the layout: every cell is
  /// attributed to its enclosing class-`cls` query and per-query page runs
  /// are tracked incrementally. O(cells) time, O(queries-in-class) space.
  /// Reference implementation; identical stats to MeasureClass.
  ClassIoStats MeasureClassCellWalk(const QueryClass& cls) const;

  /// MeasureClass for every lattice point, indexed by lattice index.
  std::vector<ClassIoStats> MeasureAllClasses() const;

  /// Workload expectation of the per-class averages. `per_class` must come
  /// from MeasureAllClasses on the same schema.
  static WorkloadIoStats Expect(const Workload& mu,
                                const std::vector<ClassIoStats>& per_class);

 private:
  const StorageBackend& backend_;
  // Reused run storage; `mutable` because measurement is logically const.
  // Points at the caller's arena when one was supplied.
  mutable RunArena owned_arena_;
  RunArena* arena_ = nullptr;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* pages_read_ = nullptr;
  Counter* seeks_ = nullptr;
  Counter* runs_emitted_ = nullptr;
  Counter* partitions_scanned_ = nullptr;
  Counter* partitions_pruned_ = nullptr;
  Histogram* run_length_ = nullptr;
  Histogram* cells_per_run_ = nullptr;
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_EXECUTOR_H_
