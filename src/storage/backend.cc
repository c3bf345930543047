#include "storage/backend.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math.h"

namespace snakes {

const char* StorageBackendKindName(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kPacked:
      return "packed";
    case StorageBackendKind::kMicroPartition:
      return "micropartition";
  }
  SNAKES_CHECK(false) << "unknown StorageBackendKind";
  return "";
}

Result<StorageBackendKind> ParseStorageBackendKind(std::string_view name) {
  if (name == "packed") return StorageBackendKind::kPacked;
  if (name == "micropartition" || name == "micro-partition") {
    return StorageBackendKind::kMicroPartition;
  }
  return Status::InvalidArgument("unknown storage backend: \"" +
                                 std::string(name) +
                                 "\" (expected packed|micropartition)");
}

Status StorageBackend::PackPages(std::shared_ptr<const Linearization> lin,
                                 std::shared_ptr<const FactTable> facts,
                                 StorageConfig config, const ObsSink& obs,
                                 const CellHook& on_cell) {
  ScopedSpan span(obs.tracer, "storage/pack", "storage");
  span.AddArg("strategy", lin->name());
  if (config.record_size_bytes == 0 ||
      config.page_size_bytes < config.record_size_bytes) {
    return Status::InvalidArgument(
        "page must hold at least one whole record");
  }
  if (&lin->schema() != &facts->schema() &&
      lin->num_cells() != facts->num_cells()) {
    return Status::InvalidArgument(
        "linearization and fact table describe different grids");
  }
  lin_ = std::move(lin);
  facts_ = std::move(facts);
  config_ = config;
  const uint64_t n = lin_->num_cells();
  cum_records_.assign(n + 1, 0);
  cum_cents_.assign(n + 1, 0);
  next_first_page_.assign(n + 1, 0);
  prev_last_page_.assign(n + 1, 0);

  uint64_t page = 0;
  uint64_t used = 0;  // bytes used on the current page
  const StarSchema& schema = lin_->schema();
  lin_->Walk([&](uint64_t rank, const CellCoord& coord) {
    const CellId id = schema.Flatten(coord);
    const uint32_t records = facts_->count(id);
    // Checked: near-2^63-cell grids must abort rather than wrap the prefix
    // sums MeasureRange subtracts (the CellBox::NumCells convention). The
    // cents cannot wrap: FactTable bounds the sum of |cents| by int64.
    cum_records_[rank + 1] = CheckedAdd(cum_records_[rank], records);
    cum_cents_[rank + 1] = cum_cents_[rank] + facts_->measure_cents(id);
    if (records == 0) {
      // Empty cell: occupies nothing. Its next_first_page_ entry is filled
      // by the backward pass below.
      prev_last_page_[rank + 1] = prev_last_page_[rank];
      return;
    }
    uint64_t placed = 0;
    uint64_t first = UINT64_MAX;
    while (placed < records) {
      if (config.page_size_bytes - used < config.record_size_bytes) {
        // Close the page: the remainder cannot hold a whole record.
        ++page;
        used = 0;
      }
      // Place as many of the cell's remaining records as fit on this page.
      const uint64_t fit =
          (config.page_size_bytes - used) / config.record_size_bytes;
      const uint64_t take = std::min<uint64_t>(fit, records - placed);
      if (first == UINT64_MAX) first = page;
      used += take * config.record_size_bytes;
      placed += take;
    }
    next_first_page_[rank] = first;
    prev_last_page_[rank + 1] = page;
    if (on_cell) on_cell(rank, coord, id);
  });
  num_pages_ = page + (used > 0 ? 1 : 0);
  uint64_t first_page_so_far = 0;
  for (uint64_t rank = n; rank-- > 0;) {
    if (CellEmpty(rank)) {
      next_first_page_[rank] = first_page_so_far;
    } else {
      first_page_so_far = next_first_page_[rank];
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("storage.pages_packed")->Inc(num_pages_);
    obs.metrics->GetCounter("storage.records_packed")
        ->Inc(facts_->total_records());
  }
  return Status::OK();
}

StorageBackend::RangeIo StorageBackend::MeasureRange(uint64_t start,
                                                     uint64_t len) const {
  // Explicit overflow-safe bounds check: start + len may wrap uint64 when
  // cell counts approach 2^63, so compare against the grid without adding.
  const uint64_t n = cum_records_.size() - 1;
  SNAKES_CHECK(len <= n && start <= n - len)
      << "MeasureRange past the grid: start=" << start << " len=" << len
      << " cells=" << n;
  RangeIo io;
  if (len == 0) return io;
  const uint64_t end = start + len;
  io.records = cum_records_[end] - cum_records_[start];
  if (io.records == 0) return io;
  // Non-empty range: the first non-empty cell at rank >= start and the last
  // one at rank < start + len both lie inside the range, and packing makes
  // every page in between hold records of in-range cells.
  io.cents = cum_cents_[end] - cum_cents_[start];
  io.first_page = next_first_page_[start];
  io.last_page = prev_last_page_[end];
  return io;
}

}  // namespace snakes
