#include "recluster/movement.h"

#include <vector>

namespace snakes {
namespace {

/// Run-granularity price of the moved runs as `side` lays them out: sweeps
/// ranks [from, n) of `side` in order, where `other[r]` is the rank of
/// side's rank-r cell in the other backend, so a run continues exactly while
/// `other` stays consecutive. Each run with >= 1 record costs its page span
/// as one sequential unit. The prefix arrays are read in rank order.
RewriteIo SweepRuns(const StorageBackend& side,
                    const std::vector<uint64_t>& other, uint64_t from) {
  RewriteIo io;
  const uint64_t n = other.size();
  uint64_t r = from;
  while (r < n) {
    uint64_t len = 1;
    while (r + len < n && other[r + len] == other[r] + len) ++len;
    const StorageBackend::RangeIo range = side.MeasureRange(r, len);
    if (range.records > 0) {
      io.pages += range.last_page - range.first_page + 1;
      ++io.units;
    }
    r += len;
  }
  return io;
}

}  // namespace

Result<MovementCost> ComputeMovementCost(const StorageBackend& current,
                                         const StorageBackend& proposed) {
  const uint64_t n = current.linearization().num_cells();
  if (proposed.linearization().num_cells() != n) {
    return Status::InvalidArgument(
        "movement cost requires backends over the same grid");
  }
  const uint64_t total_records = current.MeasureRange(0, n).records;
  if (proposed.MeasureRange(0, n).records != total_records) {
    return Status::InvalidArgument(
        "movement cost requires backends of the same fact table");
  }

  MovementCost cost;
  cost.total_cells = n;

  // Where each proposed rank's cell lives today, from one sweep of each
  // order: cell id -> current rank, then proposed rank -> current rank.
  // Both sweeps flatten coordinates through the current grid's schema.
  const StarSchema& schema = current.linearization().schema();
  std::vector<uint64_t> rank_map(n);
  current.linearization().Walk([&](uint64_t rank, const CellCoord& coord) {
    rank_map[schema.Flatten(coord)] = rank;
  });
  std::vector<uint64_t> source(n);
  proposed.linearization().Walk([&](uint64_t rank, const CellCoord& coord) {
    source[rank] = rank_map[schema.Flatten(coord)];
  });

  uint64_t stable = 0;
  while (stable < n && source[stable] == stable) ++stable;
  cost.stable_prefix_cells = stable;

  // The remainder decomposes into maximal runs consecutive in both orders.
  // They tile [stable, n) on each side, so the records they move are the
  // current side's records past the stable prefix, and the permutation
  // structure (moved_runs) is one sweep in proposed order. Each backend then
  // prices the same runs at its own rewrite granularity, sweeping them in
  // its own rank order.
  cost.moved_records = current.MeasureRange(stable, n - stable).records;
  const RewriteIo write_runs = SweepRuns(proposed, source, stable);
  cost.moved_runs = write_runs.units;
  const RewriteIo write =
      proposed.PriceRewrite(stable, [&write_runs] { return write_runs; });
  const RewriteIo read = current.PriceRewrite(stable, [&] {
    // rank_map becomes dest: current rank -> proposed rank.
    for (uint64_t r = 0; r < n; ++r) rank_map[source[r]] = r;
    return SweepRuns(current, rank_map, stable);
  });
  cost.pages_read = read.pages;
  cost.pages_written = write.pages;
  cost.partitions_read = read.partitions;
  cost.partitions_written = write.partitions;
  return cost;
}

}  // namespace snakes
