#ifndef SNAKES_STORAGE_QUERY_ENGINE_H_
#define SNAKES_STORAGE_QUERY_ENGINE_H_

#include <cstdint>

#include "lattice/grid_query.h"
#include "storage/backend.h"
#include "storage/executor.h"

namespace snakes {

/// Answer of an aggregate grid query, with the I/O it cost.
struct QueryAnswer {
  uint64_t count = 0;       // records selected
  int64_t cents = 0;        // SUM of the measure attribute, in exact cents
  double sum = 0.0;         // the same SUM in measure units (cents / 100)
  QueryIo io;               // pages/seeks actually incurred
  double AvgMeasure() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Executes aggregate grid queries (COUNT / SUM / AVG of the measure) against
/// a storage backend — the operations the paper's OLAP sessions issue (Q1/Q2
/// of the motivating example are exactly this shape). A query is answered
/// from its rank-run decomposition, the same runs that price its I/O: COUNT
/// and SUM are differences of the backend's rank-prefix sums, so a query
/// costs O(runs), not O(cells in its box), and the SUM is exact integer
/// cents. Answers are bit-identical across backends: zone-map pruning only
/// changes how much metadata the simulator consults, never what a query
/// reads or returns.
class QueryEngine {
 public:
  /// `obs` is forwarded to the I/O simulator: storage counters mirror each
  /// query's cost and Execute runs under a "storage/measure" span.
  explicit QueryEngine(const StorageBackend& backend, const ObsSink& obs = {})
      : backend_(backend), simulator_(backend, obs) {}

  /// Runs one grid query. `prune`, when non-null, receives the zone-map
  /// outcome of the query's I/O measurement (see IoSimulator::Measure).
  QueryAnswer Execute(const GridQuery& query,
                      PruneStats* prune = nullptr) const;

  /// Runs the grid query of class `cls` containing `coord` (point-style
  /// drill-down sugar).
  QueryAnswer ExecuteAt(const QueryClass& cls, const CellCoord& coord) const;

  /// Reference implementation of Execute: COUNT and cents summed cell by
  /// cell over the query box straight from the fact table, I/O from
  /// IoSimulator::MeasureCellWalk. O(cells in box); the oracle Execute is
  /// tested against, not a serving path.
  QueryAnswer ExecuteCellWalk(const GridQuery& query) const;

 private:
  const StorageBackend& backend_;
  IoSimulator simulator_;
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_QUERY_ENGINE_H_
