#include "storage/file_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/logging.h"
#include "util/math.h"

namespace snakes {

namespace {

// Slot header preceding the padding in every on-disk record.
struct RecordHeader {
  uint64_t cell_id;
  int64_t cents;
};
static_assert(sizeof(RecordHeader) == 16, "header layout");

// Sentinel cell id marking an unused slot (page tail).
constexpr uint64_t kEmptySlot = UINT64_MAX;

}  // namespace

Result<FileStore> FileStore::Create(
    const std::string& path, std::shared_ptr<const PackedLayout> layout) {
  const StorageConfig& config = layout->config();
  if (config.record_size_bytes < sizeof(RecordHeader)) {
    return Status::InvalidArgument(
        "record size must hold the 16-byte header");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot create " + path);

  const uint64_t page_size = config.page_size_bytes;
  const uint64_t record_size = config.record_size_bytes;
  std::vector<char> page(page_size, 0);
  std::vector<char> record(record_size, 0);
  uint64_t used = 0;       // bytes used on the current page
  uint64_t pages_out = 0;  // pages flushed

  auto init_page = [&]() {
    std::fill(page.begin(), page.end(), 0);
    // Pre-mark every slot empty.
    RecordHeader empty{kEmptySlot, 0};
    for (uint64_t offset = 0; offset + record_size <= page_size;
         offset += record_size) {
      std::memcpy(page.data() + offset, &empty, sizeof(empty));
    }
  };
  auto flush_page = [&]() {
    out.write(page.data(), static_cast<std::streamsize>(page_size));
    ++pages_out;
    used = 0;
    init_page();
  };
  init_page();

  const StarSchema& schema = layout->linearization().schema();
  const FactTable& facts = layout->facts();
  Status status = Status::OK();
  layout->linearization().Walk([&](uint64_t rank, const CellCoord& coord) {
    if (!status.ok()) return;
    const CellId id = schema.Flatten(coord);
    const uint32_t count = facts.count(id);
    if (count == 0) return;
    // Shares of the cell's cents: every record gets the truncated quotient,
    // the first one also the remainder.
    const int64_t cents = facts.measure_cents(id);
    const int64_t share = cents / count;
    for (uint32_t r = 0; r < count; ++r) {
      if (page_size - used < record_size) flush_page();
      const RecordHeader header{id, r == 0 ? cents - share * (count - 1)
                                           : share};
      std::memcpy(record.data(), &header, sizeof(header));
      std::memcpy(page.data() + used, record.data(), record_size);
      used += record_size;
    }
    // Cross-check against the pager's placement for this cell.
    const uint64_t expected_last = layout->CellLastPage(rank);
    const uint64_t actual_last = pages_out;  // current page index
    if (expected_last != actual_last) {
      status = Status::Internal("file writer diverged from the pager at rank " +
                                std::to_string(rank));
    }
  });
  SNAKES_RETURN_IF_ERROR(status);
  if (used > 0) flush_page();
  if (pages_out != layout->num_pages()) {
    return Status::Internal("file has " + std::to_string(pages_out) +
                            " pages, pager expected " +
                            std::to_string(layout->num_pages()));
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return FileStore(path, std::move(layout), pages_out * page_size);
}

Result<QueryAnswer> FileStore::Execute(const GridQuery& query) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::Internal("cannot open " + path_);

  const Linearization& lin = layout_->linearization();
  const StarSchema& schema = lin.schema();
  const StorageConfig& config = layout_->config();
  const CellBox box = BoxOf(schema, query);

  // Ranks of the query's cells, in disk order.
  std::vector<uint64_t> ranks;
  ranks.reserve(box.NumCells());
  {
    CellCoord coord = box.lo;
    const int k = schema.num_dims();
    for (;;) {
      ranks.push_back(lin.RankOf(coord));
      int d = k - 1;
      for (; d >= 0; --d) {
        if (++coord[static_cast<size_t>(d)] < box.hi[static_cast<size_t>(d)]) {
          break;
        }
        coord[static_cast<size_t>(d)] = box.lo[static_cast<size_t>(d)];
      }
      if (d < 0) break;
    }
    std::sort(ranks.begin(), ranks.end());
  }

  QueryAnswer answer;
  std::vector<char> page(config.page_size_bytes);
  int64_t last_page = -1;
  for (const uint64_t rank : ranks) {
    if (layout_->CellEmpty(rank)) continue;
    const int64_t first = static_cast<int64_t>(layout_->CellFirstPage(rank));
    const int64_t last = static_cast<int64_t>(layout_->CellLastPage(rank));
    if (first > last_page + 1 || last_page < 0) ++answer.io.seeks;
    for (int64_t p = std::max(first, last_page + 1); p <= last; ++p) {
      in.seekg(static_cast<std::streamoff>(p) *
               static_cast<std::streamoff>(config.page_size_bytes));
      in.read(page.data(),
              static_cast<std::streamsize>(config.page_size_bytes));
      if (!in.good()) {
        return Status::Internal("short read at page " + std::to_string(p));
      }
      ++answer.io.pages;
      for (uint64_t offset = 0;
           offset + config.record_size_bytes <= config.page_size_bytes;
           offset += config.record_size_bytes) {
        RecordHeader header;
        std::memcpy(&header, page.data() + offset, sizeof(header));
        if (header.cell_id == kEmptySlot) continue;
        if (!box.Contains(schema.Unflatten(header.cell_id))) continue;
        ++answer.count;
        answer.cents += header.cents;
      }
    }
    last_page = std::max(last_page, last);
  }
  answer.sum = static_cast<double>(answer.cents) / 100.0;
  answer.io.records = answer.count;
  answer.io.min_pages = CeilDiv(answer.count * config.record_size_bytes,
                                config.page_size_bytes);
  return answer;
}

Result<FileStore::TimedAnswer> FileStore::ExecuteTimed(const GridQuery& query,
                                                       Clock* clock) {
  if (clock == nullptr) clock = SteadyClock::Default();
  TimedAnswer timed;
  const uint64_t start_ns = clock->NowNs();
  SNAKES_ASSIGN_OR_RETURN(timed.answer, Execute(query));
  const uint64_t finish_ns = clock->NowNs();
  timed.elapsed_ns = finish_ns >= start_ns ? finish_ns - start_ns : 0;
  return timed;
}

}  // namespace snakes
