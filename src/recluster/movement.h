#ifndef SNAKES_RECLUSTER_MOVEMENT_H_
#define SNAKES_RECLUSTER_MOVEMENT_H_

#include <cstdint>

#include "storage/backend.h"
#include "util/result.h"

namespace snakes {

/// Physical price of re-laying a packed fact table from one clustering to
/// another, measured in pages touched. Computed from the rank-run structure
/// of the permutation between the two backends, not record by record: the
/// proposed rank order is decomposed into maximal runs that are already
/// consecutive in the current order, and each side prices those runs at its
/// own rewrite granularity (StorageBackend::PriceRewrite — page spans per
/// run for PackedLayout, whole immutable partitions for
/// MicroPartitionStore).
///
/// The pricing is a handful of rank-order sweeps. One Walk of each order
/// gives the source map (proposed rank -> current rank) without a per-cell
/// CellAt or RankOf. The runs are then counted twice, each time along one
/// backend's own rank order (proposed order over the source map, current
/// order over its inverse), so every MeasureRange reads that backend's
/// prefix arrays sequentially; no run list is materialized. At partition
/// granularity the moved runs tile the suffix past the stable prefix on
/// both sides, so a partition is rewritten exactly when it holds a record
/// in that suffix: O(partitions), and the current side's inverse map is
/// never built.
struct MovementCost {
  /// Cells of the grid (ranks in either backend).
  uint64_t total_cells = 0;
  /// Length of the leading stretch of ranks whose cells already sit at the
  /// same rank in the current order. A rewrite can leave these pages in
  /// place entirely; they are charged nothing.
  uint64_t stable_prefix_cells = 0;
  /// Maximal already-consecutive source runs (with >= 1 record) that the
  /// rewrite copies — the permutation's structure, independent of either
  /// backend's rewrite granularity.
  uint64_t moved_runs = 0;
  /// Records copied (everything outside the stable prefix).
  uint64_t moved_records = 0;
  /// Pages fetched from the current backend to assemble the moved runs.
  uint64_t pages_read = 0;
  /// Pages produced in the proposed backend for the moved region.
  uint64_t pages_written = 0;
  /// Whole partitions fetched / produced; 0 when the corresponding side
  /// rewrites at run granularity (PackedLayout).
  uint64_t partitions_read = 0;
  uint64_t partitions_written = 0;

  /// Total page traffic of the rewrite — the movement cost the recluster
  /// planner charges against expected-cost improvement.
  uint64_t pages_moved() const { return pages_read + pages_written; }
};

/// Prices rewriting `current` into `proposed`. Both backends must pack the
/// same grid and the same fact table (checked by cell and record totals);
/// they need not be the same backend kind — each side is priced at its own
/// rewrite granularity. Identical cell orders cost exactly zero.
Result<MovementCost> ComputeMovementCost(const StorageBackend& current,
                                         const StorageBackend& proposed);

}  // namespace snakes

#endif  // SNAKES_RECLUSTER_MOVEMENT_H_
