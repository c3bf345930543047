#ifndef SNAKES_STORAGE_BACKEND_H_
#define SNAKES_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "curves/linearization.h"
#include "lattice/grid_query.h"
#include "obs/obs.h"
#include "storage/fact_table.h"
#include "util/logging.h"
#include "util/result.h"

namespace snakes {

/// Physical parameters of the simulated disk (Section 6.1 uses 125-byte
/// records on 8 KB pages).
struct StorageConfig {
  uint64_t page_size_bytes = 8192;
  uint64_t record_size_bytes = 125;
  /// Target size (in pages) of one micro-partition. Only the
  /// micro-partition backend reads it; PackedLayout ignores it.
  uint64_t micro_partition_pages = 16;

  /// Records that fit a fresh page.
  uint64_t RecordsPerPage() const {
    return page_size_bytes / record_size_bytes;
  }
};

/// The storage representations a fact table can be packed into.
enum class StorageBackendKind {
  /// One flat run of pages in rank order (the paper's Section 6.1 disk).
  kPacked,
  /// Pages grouped into immutable micro-partitions with per-dimension
  /// min/max zone maps (Snowflake-style cloud storage).
  kMicroPartition,
};

/// Stable lowercase name ("packed" / "micropartition").
const char* StorageBackendKindName(StorageBackendKind kind);

/// Inverse of StorageBackendKindName; InvalidArgument on unknown names.
Result<StorageBackendKind> ParseStorageBackendKind(std::string_view name);

/// Measured I/O of a single grid query against a storage backend.
struct QueryIo {
  uint64_t records = 0;    // records selected
  uint64_t pages = 0;      // distinct pages read
  uint64_t seeks = 0;      // non-sequential accesses (maximal page runs)
  uint64_t min_pages = 0;  // ceil(records * record_size / page_size)

  /// Pages read over the perfectly-clustered minimum (Section 6.1's
  /// normalized blocks). Defined only for non-empty queries; asking for it
  /// on an empty one aborts instead of silently returning inf/NaN.
  double NormalizedBlocks() const {
    SNAKES_CHECK(min_pages > 0)
        << "NormalizedBlocks is undefined for empty queries";
    return static_cast<double>(pages) / static_cast<double>(min_pages);
  }
};

/// A closed range predicate on the measure attribute — the record-level
/// filter measure zone maps prune against (SELECT ... WHERE measure BETWEEN
/// lo AND hi on top of the grid box).
struct MeasureBounds {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
};

/// How much of a backend's partition directory one query touches.
/// Non-partitioned backends report all-zero stats ("nothing to prune");
/// partitioned ones satisfy scanned + pruned == partitions. Two producers
/// fill it: IoSimulator::Measure counts, from the query's own runs, exactly
/// the partitions that hold >= 1 record of the query (what a read pays for);
/// StorageBackend::PruneBox reports the zone-map survivors, a superset of
/// those (what the directory alone can rule out).
struct PruneStats {
  uint64_t partitions = 0;  // directory size
  uint64_t scanned = 0;     // partitions read (Measure) or zone-map survivors
  uint64_t pruned = 0;      // partitions - scanned

  double PrunedFraction() const {
    return partitions == 0
               ? 0.0
               : static_cast<double>(pruned) / static_cast<double>(partitions);
  }
};

/// One side of a relayout priced at the backend's native rewrite
/// granularity: PackedLayout moves individual rank runs, MicroPartitionStore
/// rewrites whole partitions (immutable files are replaced, never patched).
struct RewriteIo {
  uint64_t pages = 0;       // pages read from / written to this side
  uint64_t units = 0;       // sequential transfer units (runs or partitions)
  uint64_t partitions = 0;  // whole partitions touched; 0 at run granularity
};

/// Abstract storage backend: the on-disk image of a fact table under one
/// clustering strategy. Every backend packs records page by page following
/// the linearization's rank order (a cell's records may span a page
/// boundary, but single records never split — when a page's remainder is
/// smaller than one record the page is closed and the record starts the next
/// page, Section 6.1), so rank-range measurement, query evaluation, and
/// movement-cost diffs share one representation. Backends differ in the
/// metadata layered on top: how pages group into partitions, what a query
/// may skip without reading (PruneBox), and the granularity at which a
/// relayout rewrites data (PriceRewrite).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Which concrete representation this is.
  virtual StorageBackendKind kind() const = 0;
  const char* kind_name() const { return StorageBackendKindName(kind()); }

  const Linearization& linearization() const { return *lin_; }
  std::shared_ptr<const Linearization> linearization_ptr() const {
    return lin_;
  }
  const FactTable& facts() const { return *facts_; }
  const StorageConfig& config() const { return config_; }

  /// Total pages used.
  uint64_t num_pages() const { return num_pages_; }

  /// First data page of every partition, ascending, one entry per
  /// partition; empty when the backend has no partition structure (every
  /// page lives in one implicit unit). Partitions never share a page, so the
  /// partition holding page p is the last one whose first page is <= p.
  virtual std::span<const uint64_t> PartitionFirstPages() const { return {}; }

  /// Partition directory size; 0 means the backend has no partition
  /// structure.
  uint64_t num_partitions() const { return PartitionFirstPages().size(); }

  /// True iff the cell at `rank` holds no records.
  bool CellEmpty(uint64_t rank) const {
    return cum_records_[rank + 1] == cum_records_[rank];
  }

  /// First/last page (inclusive) holding records of the cell at `rank`;
  /// meaningful only when !CellEmpty(rank). A non-empty cell is its own
  /// first non-empty cell at rank >= rank and its own last non-empty cell at
  /// rank <= rank, so both come straight from the MeasureRange prefixes.
  uint64_t CellFirstPage(uint64_t rank) const { return next_first_page_[rank]; }
  uint64_t CellLastPage(uint64_t rank) const {
    return prev_last_page_[rank + 1];
  }

  /// Record count of the cell at `rank`.
  uint32_t CellRecords(uint64_t rank) const {
    return static_cast<uint32_t>(cum_records_[rank + 1] - cum_records_[rank]);
  }

  /// Aggregate footprint of a rank run. Because records pack in rank order,
  /// the pages of any consecutive-rank range form one contiguous interval
  /// with no internal gaps; empty ranges report first > last.
  struct RangeIo {
    uint64_t records = 0;
    int64_t cents = 0;  // SUM of the range's measure, in exact cents
    uint64_t first_page = 1;
    uint64_t last_page = 0;
  };

  /// Footprint of ranks [start, start + len) in O(1), from the rank-prefix
  /// arrays built at pack time. Checked: a range reaching past the grid
  /// aborts instead of reading out of bounds (ranks approach 2^63 on wide
  /// schemas, so start + len itself is guarded against wraparound).
  RangeIo MeasureRange(uint64_t start, uint64_t len) const;

  /// Zone-map pruning of a query box: how much of the partition directory
  /// the metadata alone rules out. Pruning is conservative — a pruned
  /// partition holds no cell of the box, so the survivors include every
  /// partition a read of the box touches. The query path counts those from
  /// its runs instead (IoSimulator::Measure); this stays as the directory's
  /// own answer for tools and tests. The base backend has no partitions and
  /// returns all-zero stats.
  virtual PruneStats PruneBox(const CellBox& box) const {
    (void)box;
    return PruneStats{};
  }

  /// Zone-map pruning of a query box with a measure predicate layered on
  /// top: a partition may additionally be skipped when its record-level
  /// measure min/max range misses `bounds`. Same conservativeness contract
  /// as PruneBox — a pruned partition holds no record of the box whose
  /// measure lies in `bounds`. The base backend has no partitions and
  /// returns all-zero stats.
  virtual PruneStats PruneBoxMeasure(const CellBox& box,
                                     const MeasureBounds& bounds) const {
    (void)bounds;
    return PruneBox(box);
  }

  /// One side of a relayout priced at this backend's rewrite granularity.
  /// The relayout keeps ranks [0, moved_from) in place and moves the rest
  /// as maximal rank runs that tile [moved_from, n). `run_io` sweeps those
  /// runs in this backend's rank order and returns their run-granularity
  /// price: each run with >= 1 record costs its contiguous page span as one
  /// sequential unit. The default charges exactly that; a backend that
  /// rewrites coarser units prices the moved suffix in closed form and
  /// never calls `run_io`.
  virtual RewriteIo PriceRewrite(
      uint64_t moved_from, const std::function<RewriteIo()>& run_io) const {
    (void)moved_from;
    return run_io();
  }

 protected:
  StorageBackend() = default;
  // Copy/move stay available to concrete backends (Result<T> needs moves and
  // callers hold layouts by value) but are protected here against slicing.
  StorageBackend(const StorageBackend&) = default;
  StorageBackend& operator=(const StorageBackend&) = default;
  StorageBackend(StorageBackend&&) = default;
  StorageBackend& operator=(StorageBackend&&) = default;

  /// Called by PackPages for every cell that holds records, in rank order,
  /// right after the cell is placed: its CellRecords / CellFirstPage /
  /// CellLastPage are final by then.
  using CellHook =
      std::function<void(uint64_t rank, const CellCoord& coord, CellId id)>;

  /// Validates the inputs and packs `facts` along `lin` into the shared
  /// page representation: the rank-prefix arrays MeasureRange and the
  /// per-cell accessors read, built in one Walk plus one backward pass.
  /// `on_cell` (optional) rides along on that Walk, so a backend builds its
  /// own per-cell metadata without a second sweep of the order.
  /// Fails if config is degenerate (page smaller than a record) or the
  /// linearization belongs to a different grid. `obs`
  /// (optional) records a "storage/pack" span and the storage.pages_packed /
  /// storage.records_packed counters.
  Status PackPages(std::shared_ptr<const Linearization> lin,
                   std::shared_ptr<const FactTable> facts,
                   StorageConfig config, const ObsSink& obs,
                   const CellHook& on_cell = nullptr);

 private:
  std::shared_ptr<const Linearization> lin_;
  std::shared_ptr<const FactTable> facts_;
  StorageConfig config_;
  uint64_t num_pages_ = 0;
  // Rank-prefix arrays, n + 1 entries each, indexed by rank boundary r:
  // records and measure cents in ranks [0, r), the first page of the first
  // non-empty cell at rank >= r, and the last page of the last non-empty
  // cell at rank < r. The page entries are only read when the queried range
  // holds >= 1 record. Kept as four 8-byte arrays rather than one
  // interleaved 32-byte entry: a single 4x larger block raised glibc's
  // dynamic mmap threshold on the first repack, after which the service's
  // per-cell temporaries stayed in the heap and peak RSS rose.
  std::vector<uint64_t> cum_records_;
  std::vector<int64_t> cum_cents_;
  std::vector<uint64_t> next_first_page_;
  std::vector<uint64_t> prev_last_page_;
};

/// Packs `facts` along `lin` into a heap-allocated backend of the requested
/// kind — the single construction path the recluster engine, the advisor's
/// storage-measure scoring, and the service all share. Defined in
/// micro_partition.cc, where both concrete backends are visible.
Result<std::shared_ptr<const StorageBackend>> MakeStorageBackend(
    StorageBackendKind kind, std::shared_ptr<const Linearization> lin,
    std::shared_ptr<const FactTable> facts, StorageConfig config = {},
    const ObsSink& obs = {});

}  // namespace snakes

#endif  // SNAKES_STORAGE_BACKEND_H_
