#include "storage/executor.h"

#include <algorithm>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math.h"

namespace snakes {

namespace {

/// Incremental page-run tracker for one query. Cells arrive in rank order,
/// so page spans are non-decreasing. When `run_hist` is non-null the length
/// of every completed sequential run is recorded (the open run is flushed
/// by CloseRun); the branch costs nothing extra on the common in-run path.
struct RunState {
  int64_t last_page = -1;
  uint64_t pages = 0;
  uint64_t seeks = 0;
  uint64_t records = 0;
  uint64_t run_start_pages = 0;  // `pages` when the current run began

  void Add(uint64_t first, uint64_t last, uint64_t recs,
           Histogram* run_hist = nullptr) {
    records += recs;
    const int64_t f = static_cast<int64_t>(first);
    const int64_t l = static_cast<int64_t>(last);
    if (f > last_page + 1 || last_page < 0) {
      // Gap (or very first access): a new non-sequential access.
      ++seeks;
      if (run_hist != nullptr) {
        CloseRun(run_hist);
        run_start_pages = pages;
      }
    }
    if (l > last_page) {
      const int64_t from = std::max(last_page + 1, f);
      pages += static_cast<uint64_t>(l - from + 1);
      last_page = l;
    }
  }

  /// Records the in-progress run's length, if any.
  void CloseRun(Histogram* run_hist) const {
    if (pages > run_start_pages) run_hist->Record(pages - run_start_pages);
  }
};

/// The partitions one query's records live in, counted from its runs. Runs
/// arrive in rank order, so their page spans are non-decreasing, and
/// partitions never share a page: a run with records touches exactly the
/// partitions of its first through last page, and every partition before
/// `next` has already been counted or passed over.
struct PartitionTally {
  std::span<const uint64_t> first_pages;  // ascending, one per partition
  size_t next = 0;  // partitions [0, next) are counted or passed over
  uint64_t touched = 0;

  void Add(uint64_t first, uint64_t last) {
    // Common case on fine queries: the run ends inside the partition
    // counted last.
    if (next > 0 && (next == first_pages.size() || last < first_pages[next])) {
      return;
    }
    // One past the partitions of `first` and `last`.
    const auto begin = first_pages.begin();
    const size_t first_end = static_cast<size_t>(
        std::upper_bound(begin + static_cast<ptrdiff_t>(next),
                         first_pages.end(), first) -
        begin);
    const size_t last_end = static_cast<size_t>(
        std::upper_bound(begin + static_cast<ptrdiff_t>(first_end),
                         first_pages.end(), last) -
        begin);
    // The partition of `first` was counted already when it is next - 1.
    const size_t from = first_end > next ? first_end - 1 : next;
    touched += last_end - from;
    next = last_end;
  }
};

}  // namespace

IoSimulator::IoSimulator(const StorageBackend& backend, const ObsSink& obs,
                         RunArena* arena)
    : backend_(backend),
      arena_(arena != nullptr ? arena : &owned_arena_),
      tracer_(obs.tracer),
      metrics_(obs.metrics) {
  if (obs.metrics != nullptr) {
    pages_read_ = obs.metrics->GetCounter("storage.pages_read");
    seeks_ = obs.metrics->GetCounter("storage.seeks");
    runs_emitted_ = obs.metrics->GetCounter("curves.runs_emitted");
    partitions_scanned_ =
        obs.metrics->GetCounter("storage.partitions_scanned");
    partitions_pruned_ = obs.metrics->GetCounter("storage.partitions_pruned");
    run_length_ = obs.metrics->GetHistogram("storage.run_length_pages");
    cells_per_run_ = obs.metrics->GetHistogram("curves.cells_per_run");
  }
}

QueryIo IoSimulator::Measure(const GridQuery& query, PruneStats* prune,
                             int64_t* cents) const {
  ScopedSpan span(tracer_, "storage/measure", "storage");
  const Linearization& lin = backend_.linearization();
  std::vector<RankRun>& runs = arena_->scratch();
  runs.clear();
  lin.AppendRuns(BoxOf(lin.schema(), query), &runs);

  RunState run;
  PartitionTally tally{backend_.PartitionFirstPages()};
  int64_t sum_cents = 0;
  for (const RankRun& r : runs) {
    const StorageBackend::RangeIo range = backend_.MeasureRange(r.start, r.len);
    if (range.records == 0) continue;
    run.Add(range.first_page, range.last_page, range.records, run_length_);
    tally.Add(range.first_page, range.last_page);
    sum_cents += range.cents;
  }
  if (cents != nullptr) *cents = sum_cents;
  PruneStats read;
  read.partitions = tally.first_pages.size();
  read.scanned = tally.touched;
  read.pruned = read.partitions - read.scanned;
  if (prune != nullptr) *prune = read;
  QueryIo io;
  io.records = run.records;
  io.pages = run.pages;
  io.seeks = run.seeks;
  io.min_pages = CeilDiv(CheckedMul(run.records, backend_.config().record_size_bytes),
                         backend_.config().page_size_bytes);
  if (run_length_ != nullptr) run.CloseRun(run_length_);
  if (pages_read_ != nullptr) {
    pages_read_->Inc(io.pages);
    seeks_->Inc(io.seeks);
    runs_emitted_->Inc(runs.size());
    for (const RankRun& r : runs) cells_per_run_->Record(r.len);
    if (read.partitions > 0) {
      partitions_scanned_->Inc(read.scanned);
      partitions_pruned_->Inc(read.pruned);
    }
  }
  return io;
}

QueryIo IoSimulator::MeasureCellWalk(const GridQuery& query) const {
  const Linearization& lin = backend_.linearization();
  const StarSchema& schema = lin.schema();
  const CellBox box = BoxOf(schema, query);

  // Collect the ranks of the query's cells, then scan them in order.
  std::vector<uint64_t> ranks;
  ranks.reserve(box.NumCells());
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

  RunState run;
  for (uint64_t rank : ranks) {
    if (backend_.CellEmpty(rank)) continue;
    run.Add(backend_.CellFirstPage(rank), backend_.CellLastPage(rank),
            backend_.CellRecords(rank), run_length_);
  }
  QueryIo io;
  io.records = run.records;
  io.pages = run.pages;
  io.seeks = run.seeks;
  io.min_pages = CeilDiv(CheckedMul(run.records, backend_.config().record_size_bytes),
                         backend_.config().page_size_bytes);
  if (run_length_ != nullptr) run.CloseRun(run_length_);
  if (pages_read_ != nullptr) {
    pages_read_->Inc(io.pages);
    seeks_->Inc(io.seeks);
    metrics_->GetCounter("storage.cells_scanned")->Inc(ranks.size());
  }
  return io;
}

ClassIoStats IoSimulator::MeasureClass(const QueryClass& cls) const {
  const Linearization& lin = backend_.linearization();
  const uint64_t num_queries = NumQueriesInClass(lin.schema(), cls);

  // One AppendClassRuns pass emits every query's runs in global rank order;
  // per-query page-run state is keyed by dense query id, exactly as
  // MeasureClassCellWalk keys cells. Aggregation then visits queries in the
  // same ascending id order, so the stats (including the float normalized
  // sum) are bit-identical to the walk. Zone maps are not consulted: pruning
  // is conservative, so it could only skip runs that hold no records.
  lin.AppendClassRuns(cls, arena_);
  std::vector<RunState> state(num_queries);
  const size_t n = arena_->num_runs();
  for (size_t i = 0; i < n; ++i) {
    const RankRun& r = arena_->run(i);
    const StorageBackend::RangeIo range = backend_.MeasureRange(r.start, r.len);
    if (cells_per_run_ != nullptr) cells_per_run_->Record(r.len);
    if (range.records == 0) continue;
    state[arena_->run_qid(i)].Add(range.first_page, range.last_page,
                                  range.records, run_length_);
  }

  ClassIoStats stats;
  stats.num_queries = num_queries;
  const uint64_t record_size = backend_.config().record_size_bytes;
  const uint64_t page_size = backend_.config().page_size_bytes;
  for (const RunState& run : state) {
    if (run.records == 0) continue;
    ++stats.num_nonempty;
    stats.total_pages += run.pages;
    stats.total_seeks += run.seeks;
    if (run_length_ != nullptr) run.CloseRun(run_length_);
    const uint64_t min_pages =
        CeilDiv(CheckedMul(run.records, record_size), page_size);
    stats.total_normalized +=
        static_cast<double>(run.pages) / static_cast<double>(min_pages);
  }
  if (pages_read_ != nullptr) {
    pages_read_->Inc(stats.total_pages);
    seeks_->Inc(stats.total_seeks);
    runs_emitted_->Inc(n);
  }
  return stats;
}

ClassIoStats IoSimulator::MeasureClassCellWalk(const QueryClass& cls) const {
  const Linearization& lin = backend_.linearization();
  const StarSchema& schema = lin.schema();
  const int k = schema.num_dims();

  // Dense query-id strides for this class.
  FixedVector<uint64_t, kMaxDimensions> strides;
  strides.resize(static_cast<size_t>(k));
  uint64_t num_queries = 1;
  for (int d = k - 1; d >= 0; --d) {
    strides[static_cast<size_t>(d)] = num_queries;
    num_queries *= schema.dim(d).num_blocks(cls.level(d));
  }

  std::vector<RunState> state(num_queries);
  lin.Walk([&](uint64_t rank, const CellCoord& coord) {
    if (backend_.CellEmpty(rank)) return;
    uint64_t qid = 0;
    for (int d = 0; d < k; ++d) {
      qid += schema.dim(d).AncestorAt(coord[static_cast<size_t>(d)],
                                      cls.level(d)) *
             strides[static_cast<size_t>(d)];
    }
    state[qid].Add(backend_.CellFirstPage(rank), backend_.CellLastPage(rank),
                   backend_.CellRecords(rank), run_length_);
  });

  ClassIoStats stats;
  stats.num_queries = num_queries;
  const uint64_t record_size = backend_.config().record_size_bytes;
  const uint64_t page_size = backend_.config().page_size_bytes;
  for (const RunState& run : state) {
    if (run.records == 0) continue;
    ++stats.num_nonempty;
    stats.total_pages += run.pages;
    stats.total_seeks += run.seeks;
    if (run_length_ != nullptr) run.CloseRun(run_length_);
    const uint64_t min_pages = CeilDiv(CheckedMul(run.records, record_size), page_size);
    stats.total_normalized +=
        static_cast<double>(run.pages) / static_cast<double>(min_pages);
  }
  if (pages_read_ != nullptr) {
    pages_read_->Inc(stats.total_pages);
    seeks_->Inc(stats.total_seeks);
    metrics_->GetCounter("storage.cells_scanned")->Inc(schema.num_cells());
  }
  return stats;
}

std::vector<ClassIoStats> IoSimulator::MeasureAllClasses() const {
  const QueryClassLattice lat(backend_.linearization().schema());
  ScopedSpan span(tracer_, "storage/measure_all", "storage");
  span.AddArg("strategy", backend_.linearization().name());
  span.AddArg("classes", lat.size());
  std::vector<ClassIoStats> all;
  all.reserve(lat.size());
  for (uint64_t i = 0; i < lat.size(); ++i) {
    all.push_back(MeasureClass(lat.ClassAt(i)));
  }
  return all;
}

WorkloadIoStats IoSimulator::Expect(const Workload& mu,
                                    const std::vector<ClassIoStats>& per_class) {
  SNAKES_CHECK(per_class.size() == mu.lattice().size())
      << "per-class stats do not cover the workload lattice";
  WorkloadIoStats out;
  for (uint64_t i = 0; i < per_class.size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    out.expected_seeks += p * per_class[i].AvgSeeks();
    out.expected_normalized_blocks += p * per_class[i].AvgNormalizedBlocks();
    out.expected_pages += p * per_class[i].AvgPages();
  }
  return out;
}

}  // namespace snakes
