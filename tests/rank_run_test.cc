// Rank-run decomposition properties: for random schemas and boxes, every
// strategy's AppendRuns must emit the unique sorted/disjoint/coalesced run
// list covering exactly the box's ranks (cross-checked against the per-cell
// reference), and the interval-based IoSimulator / cost paths must reproduce
// the seed's cell-walk results number for number. Seeds are fixed, so
// failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_cache.h"
#include "cost/workload_cost.h"
#include "curves/hilbert.h"
#include "curves/linearization.h"
#include "curves/path_order.h"
#include "curves/rank_run.h"
#include "curves/row_major.h"
#include "curves/z_curve.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "storage/chunks.h"
#include "storage/executor.h"
#include "storage/fact_table.h"
#include "storage/pager.h"
#include "tpcd_snaked_layout.h"
#include "util/rng.h"

namespace snakes {
namespace {

// ---------------------------------------------------------------------------
// Unit tests of the run primitives.

TEST(RankRunTest, AppendRunCoalescesAdjacent) {
  std::vector<RankRun> runs;
  AppendRun(&runs, 0, 3, 2);
  AppendRun(&runs, 0, 5, 4);  // adjacent: merges
  AppendRun(&runs, 0, 12, 1);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (RankRun{3, 6}));
  EXPECT_EQ(runs[1], (RankRun{12, 1}));
  EXPECT_TRUE(ValidateRuns(runs).ok());
  EXPECT_EQ(TotalRunCells(runs), 7u);
}

TEST(RankRunTest, AppendRunRespectsFloor) {
  std::vector<RankRun> runs{{0, 5}};
  // floor == 1: the pre-existing run must not be merged into even though
  // rank 5 is adjacent to it.
  AppendRun(&runs, 1, 5, 3);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1], (RankRun{5, 3}));
}

TEST(RankRunTest, AppendRunDropsEmpty) {
  std::vector<RankRun> runs;
  AppendRun(&runs, 0, 7, 0);
  EXPECT_TRUE(runs.empty());
}

TEST(RankRunTest, SortAndCoalesce) {
  std::vector<RankRun> runs{{9, 1}, {0, 3}, {3, 2}, {7, 2}};
  SortAndCoalesce(&runs, 0);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (RankRun{0, 5}));
  EXPECT_EQ(runs[1], (RankRun{7, 3}));
  EXPECT_TRUE(ValidateRuns(runs).ok());
}

TEST(RankRunTest, ValidateRejectsBadLists) {
  EXPECT_FALSE(ValidateRuns({{0, 0}}).ok());          // empty run
  EXPECT_FALSE(ValidateRuns({{0, 2}, {1, 2}}).ok());  // overlap
  EXPECT_FALSE(ValidateRuns({{0, 2}, {2, 1}}).ok());  // not coalesced
  EXPECT_FALSE(ValidateRuns({{5, 1}, {0, 1}}).ok());  // unsorted
  EXPECT_TRUE(ValidateRuns({{0, 2}, {3, 4}}).ok());
}

TEST(RankRunTest, RowMajorBoxEmitterReusedAcrossBoxes) {
  // One emitter, many boxes of the same grid (the chunked-order reuse
  // pattern): identical output to the one-shot helper per box.
  const uint64_t extents[] = {3, 4, 5};
  RowMajorBoxEmitter emitter(extents, 3);
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    uint64_t lo[3];
    uint64_t hi[3];
    for (int p = 0; p < 3; ++p) {
      const uint64_t a = rng.Below(extents[p] + 1);
      const uint64_t b = rng.Below(extents[p] + 1);
      lo[p] = std::min(a, b);
      hi[p] = std::max(a, b);
    }
    const uint64_t base = rng.Below(1000);
    std::vector<RankRun> expected{{0, 1}};
    AppendRowMajorBoxRuns(extents, lo, hi, 3, base, 1, &expected);
    std::vector<RankRun> actual{{0, 1}};
    emitter.Append(lo, hi, base, 1, &actual);
    EXPECT_EQ(actual, expected);
  }
}

TEST(RankRunTest, RowMajorBoxRunsClippedInnermostRows) {
  // Regression pin for the odometer's offset bookkeeping: an innermost
  // position clipped on *both* sides, under an outer position that wraps,
  // exercises the per-wrap rewind (hi-lo)*stride against hand-computed runs.
  const uint64_t extents[] = {2, 3, 5};
  const uint64_t lo[] = {0, 1, 2};
  const uint64_t hi[] = {2, 3, 4};
  std::vector<RankRun> runs;
  AppendRowMajorBoxRuns(extents, lo, hi, 3, /*base=*/7, 0, &runs);
  // Rows (p0,p1): (0,1) off 5, (0,2) off 10, (1,1) off 20, (1,2) off 25 —
  // each clipped to cols [2,4), then shifted by base 7.
  const std::vector<RankRun> expected = {
      {14, 2}, {19, 2}, {29, 2}, {34, 2}};
  EXPECT_EQ(runs, expected);
  EXPECT_TRUE(ValidateRuns(runs).ok());

  // Same box with the innermost position fully covered: rows (0,1)-(0,2)
  // and (1,1)-(1,2) are contiguous and must coalesce into two runs.
  const uint64_t full_lo[] = {0, 1, 0};
  const uint64_t full_hi[] = {2, 3, 5};
  runs.clear();
  AppendRowMajorBoxRuns(extents, full_lo, full_hi, 3, /*base=*/0, 0, &runs);
  const std::vector<RankRun> folded = {{5, 10}, {20, 10}};
  EXPECT_EQ(runs, folded);
}

TEST(RankRunTest, RowMajorBoxRuns) {
  // 4x6 grid, box rows [1,3) x cols [2,5): two 3-cell runs.
  const uint64_t extents[] = {4, 6};
  const uint64_t lo[] = {1, 2};
  const uint64_t hi[] = {3, 5};
  std::vector<RankRun> runs;
  AppendRowMajorBoxRuns(extents, lo, hi, 2, /*base=*/0, 0, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (RankRun{8, 3}));
  EXPECT_EQ(runs[1], (RankRun{14, 3}));
  // Full-width rows fold into a single run.
  const uint64_t full_lo[] = {1, 0};
  const uint64_t full_hi[] = {3, 6};
  runs.clear();
  AppendRowMajorBoxRuns(extents, full_lo, full_hi, 2, /*base=*/0, 0, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (RankRun{6, 12}));
}

// ---------------------------------------------------------------------------
// Randomized cross-checks.

std::shared_ptr<const StarSchema> RandomSchema(Rng* rng, uint64_t max_cells,
                                               bool pow2 = false) {
  const char* kNames[] = {"x", "y", "z"};
  for (;;) {
    const int k = 2 + static_cast<int>(rng->Below(2));
    std::vector<Hierarchy> dims;
    uint64_t cells = 1;
    for (int d = 0; d < k; ++d) {
      std::vector<uint64_t> fanouts;
      const int levels = 1 + static_cast<int>(rng->Below(2));
      for (int l = 0; l < levels; ++l) {
        fanouts.push_back(pow2 ? (uint64_t{1} << (1 + rng->Below(2)))
                               : 2 + rng->Below(4));
      }
      auto h = Hierarchy::Uniform(kNames[d], fanouts).value();
      cells *= h.num_leaves();
      dims.push_back(std::move(h));
    }
    if (cells > max_cells) continue;
    return std::make_shared<StarSchema>(
        StarSchema::Make("random", std::move(dims)).value());
  }
}

LatticePath RandomPath(const QueryClassLattice& lat, Rng* rng) {
  std::vector<int> steps;
  for (int d = 0; d < lat.num_dims(); ++d) {
    for (int l = 0; l < lat.levels(d); ++l) steps.push_back(d);
  }
  for (size_t i = steps.size(); i > 1; --i) {
    std::swap(steps[i - 1], steps[rng->Below(i)]);
  }
  return LatticePath::FromSteps(lat, steps).value();
}

CellBox RandomBox(const StarSchema& schema, Rng* rng) {
  CellBox box;
  box.lo.resize(static_cast<size_t>(schema.num_dims()));
  box.hi.resize(static_cast<size_t>(schema.num_dims()));
  for (int d = 0; d < schema.num_dims(); ++d) {
    const uint64_t extent = schema.extent(d);
    const uint64_t a = rng->Below(extent + 1);
    const uint64_t b = rng->Below(extent + 1);
    box.lo[static_cast<size_t>(d)] = std::min(a, b);
    box.hi[static_cast<size_t>(d)] = std::max(a, b);
  }
  return box;
}

/// AppendRuns output must equal the per-cell reference exactly, pass
/// ValidateRuns, cover box.NumCells() ranks, and leave preceding entries of
/// the output vector untouched.
void CheckDecomposition(const Linearization& lin, const CellBox& box) {
  std::vector<RankRun> expected{{uint64_t{1} << 60, 1}};  // sentinel
  lin.AppendRunsByRankScan(box, &expected);
  std::vector<RankRun> actual{{uint64_t{1} << 60, 1}};
  lin.AppendRuns(box, &actual);
  ASSERT_FALSE(actual.empty());
  EXPECT_EQ(actual.front(), (RankRun{uint64_t{1} << 60, 1}))
      << lin.name() << ": AppendRuns disturbed existing entries";
  expected.erase(expected.begin());
  actual.erase(actual.begin());
  EXPECT_EQ(actual, expected) << lin.name();
  EXPECT_TRUE(ValidateRuns(actual).ok()) << lin.name();
  uint64_t cells = 1;
  bool empty = false;
  for (size_t d = 0; d < box.lo.size(); ++d) {
    cells *= box.hi[d] - box.lo[d];
    empty = empty || box.hi[d] <= box.lo[d];
  }
  EXPECT_EQ(TotalRunCells(actual), empty ? 0 : cells) << lin.name();
}

/// Random boxes (clipped and degenerate) plus every query box of every
/// lattice class.
void CheckStrategy(const Linearization& lin, Rng* rng) {
  const StarSchema& schema = lin.schema();
  for (int i = 0; i < 12; ++i) {
    CheckDecomposition(lin, RandomBox(schema, rng));
  }
  const QueryClassLattice lat(schema);
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    const uint64_t num_queries = NumQueriesInClass(schema, cls);
    for (uint64_t q = 0; q < num_queries; ++q) {
      CheckDecomposition(lin, BoxOf(schema, QueryAt(schema, cls, q)));
    }
  }
}

class RankRunRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankRunRandomizedTest, PathOrders) {
  Rng rng(GetParam() * 101);
  auto schema = RandomSchema(&rng, 1024);
  const QueryClassLattice lat(*schema);
  const LatticePath path = RandomPath(lat, &rng);
  auto plain = PathOrder::Make(schema, path, false).value();
  auto snaked = PathOrder::Make(schema, path, true).value();
  EXPECT_TRUE(plain->HasRunDecomposition());
  EXPECT_TRUE(snaked->HasRunDecomposition());
  CheckStrategy(*plain, &rng);
  CheckStrategy(*snaked, &rng);
}

TEST_P(RankRunRandomizedTest, RowMajorAndMaterialized) {
  Rng rng(GetParam() * 211);
  auto schema = RandomSchema(&rng, 1024);
  std::vector<int> perm(static_cast<size_t>(schema->num_dims()));
  for (size_t d = 0; d < perm.size(); ++d) perm[d] = static_cast<int>(d);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  auto row_major = RowMajorOrder::Make(schema, perm).value();
  EXPECT_TRUE(row_major->HasRunDecomposition());
  CheckStrategy(*row_major, &rng);

  // Materialized copy of a snaked path: correct via the inverse_ scan.
  const QueryClassLattice lat(*schema);
  auto snaked =
      PathOrder::Make(schema, RandomPath(lat, &rng), true).value();
  auto materialized = MaterializedLinearization::From(*snaked);
  EXPECT_FALSE(materialized->HasRunDecomposition());
  CheckStrategy(*materialized, &rng);
}

TEST_P(RankRunRandomizedTest, BitInterleavedCurves) {
  Rng rng(GetParam() * 307);
  auto schema = RandomSchema(&rng, 1024, /*pow2=*/true);
  auto z = ZCurve::Make(schema).value();
  auto gray = GrayCurve::Make(schema).value();
  EXPECT_TRUE(z->HasRunDecomposition());
  EXPECT_TRUE(gray->HasRunDecomposition());
  CheckStrategy(*z, &rng);
  CheckStrategy(*gray, &rng);
}

TEST_P(RankRunRandomizedTest, HilbertCurve) {
  Rng rng(GetParam() * 401);
  // Hilbert needs equal power-of-two extents; split the bits over 1-2
  // levels so class boxes are non-trivial.
  const int k = 2 + static_cast<int>(rng.Below(2));
  const int bits = 2 + static_cast<int>(rng.Below(k == 2 ? 2 : 1));
  const char* kNames[] = {"x", "y", "z"};
  std::vector<Hierarchy> dims;
  for (int d = 0; d < k; ++d) {
    std::vector<uint64_t> fanouts;
    if (bits > 1 && rng.Chance(0.5)) {
      fanouts = {uint64_t{1} << (bits - 1), 2};
    } else {
      fanouts = {uint64_t{1} << bits};
    }
    dims.push_back(Hierarchy::Uniform(kNames[d], fanouts).value());
  }
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Make("hilbert-grid", std::move(dims)).value());
  auto hilbert = HilbertCurve::Make(schema, rng.Chance(0.5)).value();
  EXPECT_TRUE(hilbert->HasRunDecomposition());
  CheckStrategy(*hilbert, &rng);
}

TEST_P(RankRunRandomizedTest, ChunkedOrders) {
  Rng rng(GetParam() * 503);
  auto schema = RandomSchema(&rng, 1024);
  // Random chunk class (strictly below the top in every dimension so the
  // chunk grid keeps at least one level); chunk order is a snaked path or
  // row-major over the chunk grid.
  const QueryClassLattice lat(*schema);
  QueryClass chunk_class = lat.Bottom();
  for (int d = 0; d < lat.num_dims(); ++d) {
    chunk_class.set_level(
        d, static_cast<int>(rng.Below(static_cast<uint64_t>(lat.levels(d)))));
  }
  auto chunk_grid = ChunkGridSchema(*schema, chunk_class).value();
  std::shared_ptr<const Linearization> chunk_order;
  if (rng.Chance(0.5)) {
    const QueryClassLattice chunk_lat(*chunk_grid);
    chunk_order = std::shared_ptr<const Linearization>(
        MakePathOrder(chunk_grid, RandomPath(chunk_lat, &rng), true)
            .value());
  } else {
    std::vector<int> perm(static_cast<size_t>(chunk_grid->num_dims()));
    for (size_t d = 0; d < perm.size(); ++d) perm[d] = static_cast<int>(d);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Below(i)]);
    }
    chunk_order = std::shared_ptr<const Linearization>(
        RowMajorOrder::Make(chunk_grid, perm).value());
  }
  auto chunked = ChunkedOrder::Make(schema, chunk_class, chunk_order).value();
  EXPECT_TRUE(chunked->HasRunDecomposition());
  CheckStrategy(*chunked, &rng);
}

/// A spread of run-decomposing strategies (plus one materialized copy) over
/// one schema, shared by the class-emission and simulator cross-checks.
std::vector<std::shared_ptr<const Linearization>> RandomStrategies(
    std::shared_ptr<const StarSchema> schema, Rng* rng) {
  const QueryClassLattice lat(*schema);
  std::vector<std::shared_ptr<const Linearization>> strategies;
  const LatticePath path = RandomPath(lat, rng);
  strategies.push_back(PathOrder::Make(schema, path, false).value());
  strategies.push_back(PathOrder::Make(schema, path, true).value());
  std::vector<int> perm(static_cast<size_t>(schema->num_dims()));
  for (size_t d = 0; d < perm.size(); ++d) perm[d] = static_cast<int>(d);
  strategies.push_back(RowMajorOrder::Make(schema, perm).value());
  strategies.push_back(
      MaterializedLinearization::From(*strategies.back()));
  return strategies;
}

// ---------------------------------------------------------------------------
// Batched class emission, arena reuse and the degenerate-class detector.

/// AppendClassRuns into an arena must equal the per-box AppendRuns reference
/// query for query; a reused arena must reproduce a fresh one exactly (no
/// stale-run leakage); and ClassRunsDegenerate must be sound: when it fires,
/// every run of the class is a single cell and the class's queries tile the
/// grid (total fragments == num_cells). With `exact_detector`, additionally
/// pin the converse: the detector fires on *every* class whose runs are all
/// single cells — it never leaves closed-form classes on the slow path, and
/// never fires on a class whose runs would coalesce.
void CheckClassEmission(const Linearization& lin, bool exact_detector,
                        RunArena* reused) {
  const StarSchema& schema = lin.schema();
  const QueryClassLattice lat(schema);
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    const uint64_t num_queries = NumQueriesInClass(schema, cls);
    std::vector<std::vector<RankRun>> expected(num_queries);
    uint64_t total = 0;
    bool all_single_cell = true;
    for (uint64_t q = 0; q < num_queries; ++q) {
      lin.AppendRuns(BoxOf(schema, QueryAt(schema, cls, q)), &expected[q]);
      total += expected[q].size();
      for (const RankRun& run : expected[q]) {
        all_single_cell = all_single_cell && run.len == 1;
      }
    }

    RunArena fresh;
    lin.AppendClassRuns(cls, &fresh);
    lin.AppendClassRuns(cls, reused);

    // Arena reuse is bit-identical to a fresh arena: same emission order,
    // same runs, same query ids — previous (larger) classes leave nothing.
    ASSERT_EQ(fresh.num_queries(), num_queries) << lin.name();
    ASSERT_EQ(reused->num_queries(), num_queries) << lin.name();
    ASSERT_EQ(fresh.num_runs(), reused->num_runs()) << lin.name();
    for (size_t r = 0; r < fresh.num_runs(); ++r) {
      ASSERT_EQ(fresh.run(r), reused->run(r)) << lin.name();
      ASSERT_EQ(fresh.run_qid(r), reused->run_qid(r)) << lin.name();
    }

    // Batched emission == per-box reference, query by query.
    ASSERT_EQ(fresh.num_runs(), total) << lin.name() << " " << cls.ToString();
    std::vector<std::vector<RankRun>> grouped(num_queries);
    for (size_t r = 0; r < fresh.num_runs(); ++r) {
      ASSERT_LT(fresh.run_qid(r), num_queries) << lin.name();
      grouped[fresh.run_qid(r)].push_back(fresh.run(r));
    }
    for (uint64_t q = 0; q < num_queries; ++q) {
      ASSERT_EQ(grouped[q], expected[q])
          << lin.name() << " " << cls.ToString() << " query " << q;
      ASSERT_EQ(fresh.query_run_count(q), expected[q].size()) << lin.name();
    }

    // Detector soundness (and exactness where promised).
    const bool degenerate = lin.ClassRunsDegenerate(cls);
    if (degenerate) {
      EXPECT_EQ(total, lin.num_cells())
          << lin.name() << ": detector fired but runs do not tile the grid ("
          << cls.ToString() << ")";
      EXPECT_TRUE(all_single_cell)
          << lin.name() << ": detector fired on a class with a coalesced run ("
          << cls.ToString() << ")";
    }
    if (exact_detector) {
      EXPECT_EQ(degenerate, all_single_cell && total == lin.num_cells())
          << lin.name() << " " << cls.ToString();
    }
  }
}

TEST_P(RankRunRandomizedTest, BatchedClassEmissionMatchesPerBox) {
  Rng rng(GetParam() * 809);
  auto schema = RandomSchema(&rng, 512);
  RunArena reused;
  const auto strategies = RandomStrategies(schema, &rng);
  // Path orders carry exact degeneracy predicates; row-major and
  // materialized fall back to the (sound, inexact) base detector.
  CheckClassEmission(*strategies[0], /*exact_detector=*/true, &reused);
  CheckClassEmission(*strategies[1], /*exact_detector=*/true, &reused);
  CheckClassEmission(*strategies[2], /*exact_detector=*/false, &reused);
  CheckClassEmission(*strategies[3], /*exact_detector=*/false, &reused);
}

TEST_P(RankRunRandomizedTest, BatchedClassEmissionInterleavedCurves) {
  Rng rng(GetParam() * 907);
  auto schema = RandomSchema(&rng, 512, /*pow2=*/true);
  RunArena reused;
  // Uniform power-of-two hierarchies: the Z and Gray detectors are exact.
  CheckClassEmission(*ZCurve::Make(schema).value(), /*exact_detector=*/true,
                     &reused);
  CheckClassEmission(*GrayCurve::Make(schema).value(), /*exact_detector=*/true,
                     &reused);
}

TEST_P(RankRunRandomizedTest, BatchedClassEmissionHilbertAndChunked) {
  Rng rng(GetParam() * 1009);
  RunArena reused;
  // Hilbert on a two-level grid (the partial-level rotation edge).
  std::vector<Hierarchy> dims;
  dims.push_back(Hierarchy::Uniform("x", {2, 4}).value());
  dims.push_back(Hierarchy::Uniform("y", {2, 4}).value());
  auto hschema = std::make_shared<StarSchema>(
      StarSchema::Make("hilbert-grid", std::move(dims)).value());
  CheckClassEmission(*HilbertCurve::Make(hschema, rng.Chance(0.5)).value(),
                     /*exact_detector=*/false, &reused);

  // A chunked order exercises the default per-box AppendClassRuns.
  auto schema = RandomSchema(&rng, 256);
  const QueryClassLattice lat(*schema);
  QueryClass chunk_class = lat.Bottom();
  for (int d = 0; d < lat.num_dims(); ++d) {
    chunk_class.set_level(
        d, static_cast<int>(rng.Below(static_cast<uint64_t>(lat.levels(d)))));
  }
  auto chunk_grid = ChunkGridSchema(*schema, chunk_class).value();
  const QueryClassLattice chunk_lat(*chunk_grid);
  auto chunk_order = std::shared_ptr<const Linearization>(
      MakePathOrder(chunk_grid, RandomPath(chunk_lat, &rng), true).value());
  auto chunked = ChunkedOrder::Make(schema, chunk_class, chunk_order).value();
  CheckClassEmission(*chunked, /*exact_detector=*/false, &reused);
}

// ---------------------------------------------------------------------------
// Simulator and cost-model cross-checks: run-based evaluation must equal the
// seed's cell walk on every number it produces.

/// Class aggregates: the batched MeasureClass and MeasureClassCellWalk
/// produce identical stats, including the bit-identical normalized-blocks
/// sum (same summation order).
void ExpectClassStatsMatchCellWalk(const IoSimulator& sim,
                                   const QueryClass& cls) {
  const ClassIoStats runs_stats = sim.MeasureClass(cls);
  const ClassIoStats walk_stats = sim.MeasureClassCellWalk(cls);
  EXPECT_EQ(runs_stats.num_queries, walk_stats.num_queries) << cls.ToString();
  EXPECT_EQ(runs_stats.num_nonempty, walk_stats.num_nonempty)
      << cls.ToString();
  EXPECT_EQ(runs_stats.total_pages, walk_stats.total_pages) << cls.ToString();
  EXPECT_EQ(runs_stats.total_seeks, walk_stats.total_seeks) << cls.ToString();
  EXPECT_EQ(runs_stats.total_normalized, walk_stats.total_normalized)
      << cls.ToString();
}

/// Every number the run-based simulator produces on `backend` must equal
/// the cell walk's: per query, and per class.
void CheckSimulatorAgainstCellWalk(const StorageBackend& backend) {
  const StarSchema& schema = backend.linearization().schema();
  const QueryClassLattice lat(schema);
  const IoSimulator sim(backend);
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    // Query-by-query: run-based Measure equals the cell walk exactly.
    const uint64_t num_queries = NumQueriesInClass(schema, cls);
    for (uint64_t q = 0; q < num_queries; ++q) {
      const GridQuery query = QueryAt(schema, cls, q);
      const QueryIo runs_io = sim.Measure(query);
      const QueryIo walk_io = sim.MeasureCellWalk(query);
      EXPECT_EQ(runs_io.records, walk_io.records) << query.ToString();
      EXPECT_EQ(runs_io.pages, walk_io.pages) << query.ToString();
      EXPECT_EQ(runs_io.seeks, walk_io.seeks) << query.ToString();
      EXPECT_EQ(runs_io.min_pages, walk_io.min_pages) << query.ToString();
    }
    ExpectClassStatsMatchCellWalk(sim, cls);
  }
}

TEST_P(RankRunRandomizedTest, SimulatorMatchesCellWalk) {
  Rng rng(GetParam() * 607);
  auto schema = RandomSchema(&rng, 512);
  auto facts = std::make_shared<FactTable>(schema);
  const uint64_t records = 1 + rng.Below(6 * schema->num_cells());
  for (uint64_t r = 0; r < records; ++r) {
    facts->AddRecord(schema->Unflatten(rng.Below(schema->num_cells())), 1.0);
  }
  const StorageConfig config{64 + rng.Below(512), 16};

  for (auto& lin : RandomStrategies(schema, &rng)) {
    const auto layout = PackedLayout::Pack(lin, facts, config).value();
    CheckSimulatorAgainstCellWalk(layout);
    // The same facts on the micro-partition backend, cut as finely as
    // clean page boundaries allow so the zone maps have edges to prune at.
    StorageConfig micro_config = config;
    micro_config.micro_partition_pages = 1;
    const auto micro = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                          lin, facts, micro_config)
                           .value();
    // A partition can only close where a cell starts a fresh page; when the
    // packing has such a boundary, the backend must have used it.
    bool clean_boundary = false;
    int64_t last_page = -1;
    for (uint64_t r = 0; r < lin->num_cells(); ++r) {
      if (layout.CellEmpty(r)) continue;
      clean_boundary = clean_boundary ||
                       (last_page >= 0 &&
                        static_cast<int64_t>(layout.CellFirstPage(r)) > last_page);
      last_page = static_cast<int64_t>(layout.CellLastPage(r));
    }
    if (clean_boundary) {
      EXPECT_GE(micro->num_partitions(), 2u) << lin->name();
    }
    CheckSimulatorAgainstCellWalk(*micro);
  }
}

TEST_P(RankRunRandomizedTest, ExpectedCostMatchesEdgeWalk) {
  Rng rng(GetParam() * 701);
  auto schema = RandomSchema(&rng, 1024);
  const QueryClassLattice lat(*schema);
  const Workload mu = Workload::Random(lat, &rng);
  // `mu` weights the leaf class, so its classes hold more queries than the
  // grid has cells and the uncached fill is one edge walk. `coarse` keeps
  // only the coarsest classes whose queries number at most the cells in
  // total, so there strategies with a run decomposition count each class's
  // runs, as cached fills always do.
  std::vector<double> p(lat.size(), 0.0);
  uint64_t queries = 0;
  for (uint64_t i = lat.size(); i-- > 0;) {
    const uint64_t q = NumQueriesInClass(*schema, lat.ClassAt(i));
    if (queries + q > schema->num_cells()) continue;
    queries += q;
    p[i] = mu.probability_at(i);
  }
  const Workload coarse = Workload::FromDense(lat, p, true).value();
  for (auto& lin : RandomStrategies(schema, &rng)) {
    const ClassCostTable oracle = MeasureClassCosts(*lin);
    for (const Workload* w : {&mu, &coarse}) {
      const double edge = ExpectedCost(*w, oracle);
      const double measured = MeasureExpectedCost(*w, *lin);
      ClassCostCache cache;
      const double cached = MeasureExpectedCostCached(*w, *lin, &cache);
      // Bit-identical, not just close: either fill feeds the same per-class
      // integers through the same summation.
      EXPECT_EQ(edge, measured) << lin->name();
      EXPECT_EQ(edge, cached) << lin->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankRunRandomizedTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// The TPC-D layout EXPERIMENTS.md and DESIGN.md quote: the snaked uniform
// optimum over the full 168,000-cell grid. The randomized suites above hold
// every query to the references; here the class-level quantities are pinned
// exactly: the per-class fragment counts and the run decomposition's
// operation counts.

TEST(RankRunTpcdTest, RunDecompositionMatchesCellWalkAndCompressesCoarseClasses) {
  const TpcdSnakedLayout& tpcd = SharedTpcdSnakedLayout();
  const StarSchema& schema = *tpcd.warehouse.schema;
  const auto layout =
      PackedLayout::Pack(tpcd.lin, tpcd.warehouse.facts).value();
  const IoSimulator sim(layout);
  // Coarse classes are aggregated past the leaves in the path's innermost
  // dimension, so their boxes span whole inner blocks and runs merge. The
  // cell walk touches every cell of every box; the simulator pays one
  // MeasureRange per run.
  const int inner_dim = tpcd.path.steps().front();
  const QueryClassLattice lat(schema);
  uint64_t cell_ops = 0, run_ops = 0;
  std::vector<RankRun> runs;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    ExpectClassStatsMatchCellWalk(sim, cls);
    if (cls.level(inner_dim) < 1) continue;
    for (uint64_t q = 0; q < NumQueriesInClass(schema, cls); ++q) {
      const CellBox box = BoxOf(schema, QueryAt(schema, cls, q));
      runs.clear();
      tpcd.lin->AppendRuns(box, &runs);
      cell_ops += box.NumCells();
      run_ops += runs.size();
    }
  }
  EXPECT_EQ(cell_ops, 2016000u);
  EXPECT_EQ(run_ops, 17566u);
  EXPECT_GE(cell_ops, 10 * run_ops);
}

TEST(RankRunTpcdTest, BatchedEmissionMatchesPerQueryLoopAndPinnedFragments) {
  // Per-class fragments in lattice order.
  const std::vector<uint64_t> kFragments = {
      168000, 164150, 164120, 167685, 163835, 163805, 4200, 350, 320,
      3885,   35,     5,      4196,   346,    316,    3881, 31,  1};
  const Linearization& lin = *SharedTpcdSnakedLayout().lin;
  const StarSchema& schema = lin.schema();
  const QueryClassLattice lat(schema);
  std::vector<uint64_t> per_query, batched;
  std::vector<RankRun> runs;
  RunArena arena;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    uint64_t fragments = 0;
    for (uint64_t q = 0; q < NumQueriesInClass(schema, cls); ++q) {
      runs.clear();
      lin.AppendRuns(BoxOf(schema, QueryAt(schema, cls, q)), &runs);
      fragments += runs.size();
    }
    per_query.push_back(fragments);
    // The cost path's count: the degenerate-class closed form, else one
    // batched pass into a reused arena.
    if (lin.ClassRunsDegenerate(cls)) {
      batched.push_back(lin.num_cells());
    } else {
      lin.AppendClassRuns(cls, &arena);
      batched.push_back(arena.num_runs());
    }
  }
  EXPECT_EQ(per_query, kFragments);
  EXPECT_EQ(batched, kFragments);
}

}  // namespace
}  // namespace snakes
