#ifndef SNAKES_STORAGE_FILE_STORE_H_
#define SNAKES_STORAGE_FILE_STORE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "lattice/grid_query.h"
#include "storage/pager.h"
#include "storage/query_engine.h"
#include "util/clock.h"
#include "util/result.h"

namespace snakes {

/// A real on-disk fact file behind the simulator: records are serialized
/// into page-aligned blocks in exactly the PackedLayout order (cells may
/// straddle pages, records never do), and grid queries are answered by
/// reading actual pages back. The measured I/O — pages touched, physical
/// seeks (non-consecutive page reads), bytes — must agree with IoSimulator,
/// which the test suite asserts; the aggregates must agree with the fact
/// table.
///
/// On disk every record slot is `config.record_size_bytes` wide and starts
/// with a 16-byte header {cell_id : u64, cents : i64}; the remainder pads
/// to the configured record size (125 bytes reproduces the paper's setup).
/// The fact table keeps one exact cents sum per cell, so a cell's records
/// split it into shares that add back to it exactly.
class FileStore {
 public:
  /// Serializes `layout` into `path` (overwrites). Fails if the record size
  /// cannot hold the 16-byte header.
  static Result<FileStore> Create(const std::string& path,
                                  std::shared_ptr<const PackedLayout> layout);

  /// Reads the query's pages from disk and aggregates its records.
  /// `io.pages`/`io.seeks` reflect the physical reads performed.
  Result<QueryAnswer> Execute(const GridQuery& query);

  /// An executed query with the wall time it took.
  struct TimedAnswer {
    QueryAnswer answer;
    uint64_t elapsed_ns = 0;
  };

  /// Execute wrapped in exactly two clock readings (before the file open,
  /// after the last page) — the measurement side of the calibration loop
  /// (cost/calibration.h). `clock` null = the process steady clock; a
  /// FakeClock makes the elapsed time deterministic for tests.
  Result<TimedAnswer> ExecuteTimed(const GridQuery& query,
                                   Clock* clock = nullptr);

  /// Total file size in bytes (num_pages * page_size).
  uint64_t file_bytes() const { return file_bytes_; }

  const PackedLayout& layout() const { return *layout_; }

 private:
  FileStore(std::string path, std::shared_ptr<const PackedLayout> layout,
            uint64_t file_bytes)
      : path_(std::move(path)),
        layout_(std::move(layout)),
        file_bytes_(file_bytes) {}

  std::string path_;
  std::shared_ptr<const PackedLayout> layout_;
  uint64_t file_bytes_ = 0;
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_FILE_STORE_H_
