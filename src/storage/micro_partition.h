#ifndef SNAKES_STORAGE_MICRO_PARTITION_H_
#define SNAKES_STORAGE_MICRO_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "hierarchy/star_schema.h"
#include "obs/obs.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "util/result.h"

namespace snakes {

/// Snowflake-style storage backend: the same rank-order page packing as
/// PackedLayout, with consecutive rank runs of pages grouped into immutable
/// micro-partitions that carry per-dimension cell-coordinate min/max zone
/// maps. A query reads only the partitions its rank runs land in
/// (IoSimulator::Measure counts them from the runs' page spans through
/// PartitionFirstPages), and reclustering rewrites whole partitions —
/// immutable files are replaced, never patched in place. The zone maps
/// answer what the directory alone can rule out for a box (PruneBox,
/// PruneBoxMeasure), a conservative bound on the partitions a read touches.
///
/// Partitions tile the rank space exactly: every rank belongs to one
/// partition, partitions cover disjoint page ranges, and a partition closes
/// at the first clean page boundary once it spans at least
/// config.micro_partition_pages pages. Zone maps aggregate only non-empty
/// cells, so pruning is conservative: a pruned partition holds no record of
/// the query box. Measured QueryIo is bit-identical to PackedLayout.
class MicroPartitionStore : public StorageBackend {
 public:
  struct Partition {
    uint64_t first_rank = 0;
    uint64_t num_ranks = 0;
    /// Inclusive page span; inverted (first > last) when records == 0.
    uint64_t first_page = 1;
    uint64_t last_page = 0;
    uint64_t records = 0;
    /// Per-dimension min/max leaf coordinates over the partition's
    /// non-empty cells (inclusive); meaningful only when records > 0.
    CellCoord zone_lo;
    CellCoord zone_hi;
    /// Record-level min/max of the measure attribute over the partition's
    /// records (from FactTable's exact per-cell tracking); meaningful only
    /// when records > 0.
    double measure_lo = 0.0;
    double measure_hi = 0.0;

    uint64_t end_rank() const { return first_rank + num_ranks; }
    uint64_t num_data_pages() const {
      return records == 0 ? 0 : last_page - first_page + 1;
    }
  };

  /// Packs `facts` along `lin` and builds the partition directory on the
  /// same Walk of the order. Fails on
  /// the same degenerate configs as PackedLayout::Pack, and additionally
  /// when config.micro_partition_pages == 0.
  static Result<MicroPartitionStore> Pack(
      std::shared_ptr<const Linearization> lin,
      std::shared_ptr<const FactTable> facts, StorageConfig config = {},
      const ObsSink& obs = {});

  StorageBackendKind kind() const override {
    return StorageBackendKind::kMicroPartition;
  }

  const Partition& partition(uint64_t index) const {
    return partitions_[index];
  }

  std::span<const uint64_t> PartitionFirstPages() const override {
    return first_pages_;
  }

  /// Index of the partition whose rank range contains `rank`.
  uint64_t PartitionOf(uint64_t rank) const;

  /// Zone-map pruning: a partition survives iff it holds records and its
  /// zone box intersects `box` in every dimension.
  PruneStats PruneBox(const CellBox& box) const override;

  /// PruneBox with the record-level measure zone maps consulted too: a
  /// partition additionally prunes when [measure_lo, measure_hi] misses
  /// `bounds`. Conservative — a pruned partition holds no record of the box
  /// with its measure in `bounds` (the brute-force soundness contract
  /// micro_partition_test checks record by record).
  PruneStats PruneBoxMeasure(const CellBox& box,
                             const MeasureBounds& bounds) const override;

  /// Partition-granularity rewrite pricing in closed form: the moved runs
  /// tile [moved_from, n), so a partition is read (written) in full exactly
  /// when it holds >= 1 record at a rank >= moved_from. O(partitions); the
  /// runs themselves are never swept (`run_io` is not called).
  RewriteIo PriceRewrite(
      uint64_t moved_from,
      const std::function<RewriteIo()>& run_io) const override;

 private:
  MicroPartitionStore() = default;

  /// Adds the non-empty cell PackPages just placed at `rank` to the
  /// directory: it joins `open`, or first closes `open` onto partitions_
  /// and starts a new one when `open` is full and the cell begins a fresh
  /// page.
  void AddCell(Partition* open, uint64_t rank, const CellCoord& coord,
               CellId id);

  std::vector<Partition> partitions_;
  // partitions_[p].first_page, contiguous so a read's partition lookups
  // binary-search 8-byte keys instead of striding over zone maps.
  std::vector<uint64_t> first_pages_;
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_MICRO_PARTITION_H_
