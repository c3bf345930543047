#include "storage/micro_partition.h"

#include <algorithm>
#include <utility>

#include "storage/pager.h"
#include "util/logging.h"

namespace snakes {

Result<MicroPartitionStore> MicroPartitionStore::Pack(
    std::shared_ptr<const Linearization> lin,
    std::shared_ptr<const FactTable> facts, StorageConfig config,
    const ObsSink& obs) {
  if (config.micro_partition_pages == 0) {
    return Status::InvalidArgument(
        "micro_partition_pages must be >= 1 page per partition");
  }
  MicroPartitionStore store;
  Partition open;  // the partition being filled; first_rank 0
  Status packed = store.PackPages(
      std::move(lin), std::move(facts), config, obs,
      [&store, &open](uint64_t rank, const CellCoord& coord, CellId id) {
        store.AddCell(&open, rank, coord, id);
      });
  if (!packed.ok()) return packed;
  const uint64_t n = store.linearization().num_cells();
  if (n > 0) {
    open.num_ranks = n - open.first_rank;
    store.partitions_.push_back(open);
  }
  store.first_pages_.reserve(store.partitions_.size());
  for (const Partition& p : store.partitions_) {
    store.first_pages_.push_back(p.first_page);
  }
  return store;
}

void MicroPartitionStore::AddCell(Partition* open_partition, uint64_t rank,
                                  const CellCoord& coord, CellId id) {
  // Empty cells never reach here: they ride along with their run.
  Partition& open = *open_partition;
  const uint64_t first = CellFirstPage(rank);
  // Close the open partition at a clean page boundary once it is full:
  // the next cell must start a fresh page, or the two partitions would
  // share one (mutable) page and lose their immutability.
  if (open.records > 0 &&
      open.last_page - open.first_page + 1 >= config().micro_partition_pages &&
      first > open.last_page) {
    open.num_ranks = rank - open.first_rank;
    partitions_.push_back(open);
    open = Partition{};
    open.first_rank = rank;
  }
  const double cell_min = facts().measure_min(id);
  const double cell_max = facts().measure_max(id);
  if (open.records == 0) {
    open.first_page = first;
    open.zone_lo = coord;
    open.zone_hi = coord;
    open.measure_lo = cell_min;
    open.measure_hi = cell_max;
  } else {
    for (size_t d = 0; d < coord.size(); ++d) {
      open.zone_lo[d] = std::min(open.zone_lo[d], coord[d]);
      open.zone_hi[d] = std::max(open.zone_hi[d], coord[d]);
    }
    open.measure_lo = std::min(open.measure_lo, cell_min);
    open.measure_hi = std::max(open.measure_hi, cell_max);
  }
  open.last_page = CellLastPage(rank);
  open.records += CellRecords(rank);
}

uint64_t MicroPartitionStore::PartitionOf(uint64_t rank) const {
  SNAKES_DCHECK(!partitions_.empty() && rank < partitions_.back().end_rank());
  // Last partition whose first_rank <= rank.
  const auto it = std::upper_bound(
      partitions_.begin(), partitions_.end(), rank,
      [](uint64_t r, const Partition& p) { return r < p.first_rank; });
  return static_cast<uint64_t>(it - partitions_.begin()) - 1;
}

PruneStats MicroPartitionStore::PruneBox(const CellBox& box) const {
  PruneStats stats;
  stats.partitions = partitions_.size();
  for (const Partition& p : partitions_) {
    bool overlaps = p.records > 0;
    for (size_t d = 0; overlaps && d < box.lo.size(); ++d) {
      overlaps = p.zone_lo[d] < box.hi[d] && p.zone_hi[d] >= box.lo[d];
    }
    if (overlaps) {
      ++stats.scanned;
    } else {
      ++stats.pruned;
    }
  }
  return stats;
}

PruneStats MicroPartitionStore::PruneBoxMeasure(
    const CellBox& box, const MeasureBounds& bounds) const {
  PruneStats stats;
  stats.partitions = partitions_.size();
  for (const Partition& p : partitions_) {
    bool overlaps = p.records > 0;
    for (size_t d = 0; overlaps && d < box.lo.size(); ++d) {
      overlaps = p.zone_lo[d] < box.hi[d] && p.zone_hi[d] >= box.lo[d];
    }
    // Record-level measure zones: the partition's [lo, hi] envelope covers
    // every record measure inside it, so an empty intersection with `bounds`
    // proves no record qualifies.
    if (overlaps) {
      overlaps = p.measure_lo <= bounds.hi && p.measure_hi >= bounds.lo;
    }
    if (overlaps) {
      ++stats.scanned;
    } else {
      ++stats.pruned;
    }
  }
  return stats;
}

RewriteIo MicroPartitionStore::PriceRewrite(
    uint64_t moved_from, const std::function<RewriteIo()>& run_io) const {
  (void)run_io;
  RewriteIo io;
  const uint64_t n = linearization().num_cells();
  if (moved_from >= n) return io;
  for (uint64_t p = PartitionOf(moved_from); p < partitions_.size(); ++p) {
    // Only records at moved ranks matter: a partition that holds nothing
    // past moved_from, or only empty moved cells, is not rewritten.
    const Partition& part = partitions_[p];
    const uint64_t lo = std::max(moved_from, part.first_rank);
    if (MeasureRange(lo, part.end_rank() - lo).records == 0) continue;
    io.pages += part.num_data_pages();
    ++io.units;
    ++io.partitions;
  }
  return io;
}

Result<std::shared_ptr<const StorageBackend>> MakeStorageBackend(
    StorageBackendKind kind, std::shared_ptr<const Linearization> lin,
    std::shared_ptr<const FactTable> facts, StorageConfig config,
    const ObsSink& obs) {
  switch (kind) {
    case StorageBackendKind::kPacked: {
      SNAKES_ASSIGN_OR_RETURN(
          PackedLayout layout,
          PackedLayout::Pack(std::move(lin), std::move(facts), config, obs));
      return std::shared_ptr<const StorageBackend>(
          std::make_shared<const PackedLayout>(std::move(layout)));
    }
    case StorageBackendKind::kMicroPartition: {
      SNAKES_ASSIGN_OR_RETURN(MicroPartitionStore store,
                              MicroPartitionStore::Pack(
                                  std::move(lin), std::move(facts), config, obs));
      return std::shared_ptr<const StorageBackend>(
          std::make_shared<const MicroPartitionStore>(std::move(store)));
    }
  }
  return Status::InvalidArgument("unknown storage backend kind");
}

}  // namespace snakes
