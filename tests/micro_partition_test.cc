// Differential suite for the micro-partition storage backend: on randomized
// schemas, fact tables, and clusterings, MicroPartitionStore must answer
// every grid query bit-identically to PackedLayout (zone-map pruning is
// conservative metadata, never a result change), its partition directory
// must satisfy the tiling/immutability invariants, pruning must be sound
// against a brute-force cell walk, and the partition-granularity rewrite
// pricing must reduce to the shared permutation structure. On the TPC-D
// warehouse the same properties hold with the quoted figures pinned.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cost/edge_model.h"
#include "curves/row_major.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "recluster/movement.h"
#include "storage/backend.h"
#include "storage/executor.h"
#include "storage/micro_partition.h"
#include "storage/pager.h"
#include "storage/query_engine.h"
#include "tpcd_snaked_layout.h"
#include "util/rng.h"

namespace snakes {
namespace {

/// Random 2-3 dimensional schema with 1-2 levels and fanouts 2-4 per
/// dimension — the same family the parser/service fuzzers draw from.
std::shared_ptr<const StarSchema> RandomSchema(Rng* rng) {
  const int num_dims = 2 + static_cast<int>(rng->Below(2));
  std::vector<Hierarchy> hierarchies;
  for (int d = 0; d < num_dims; ++d) {
    const int levels = 1 + static_cast<int>(rng->Below(2));
    std::vector<uint64_t> fanouts;
    for (int l = 0; l < levels; ++l) fanouts.push_back(2 + rng->Below(3));
    hierarchies.push_back(
        Hierarchy::Uniform("dim" + std::to_string(d), fanouts).value());
  }
  return std::make_shared<StarSchema>(
      StarSchema::Make("rand", std::move(hierarchies)).value());
}

/// Sparse random facts: ~70% of cells populated with 1-3 records.
std::shared_ptr<const FactTable> RandomFacts(
    const std::shared_ptr<const StarSchema>& schema, Rng* rng) {
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    if (!rng->Chance(0.7)) continue;
    const uint64_t records = 1 + rng->Below(3);
    for (uint64_t r = 0; r < records; ++r) {
      facts->AddRecord(schema->Unflatten(id), rng->NextDouble());
    }
  }
  return facts;
}

/// A random row-major clustering of `schema`.
std::shared_ptr<const Linearization> RandomOrder(
    const std::shared_ptr<const StarSchema>& schema, Rng* rng) {
  auto orders = AllRowMajorOrders(schema);
  return std::shared_ptr<const Linearization>(
      std::move(orders[rng->Below(orders.size())]));
}

/// Small pages and a tiny partition target so even fuzz-sized grids produce
/// multi-page cells and a multi-partition directory.
StorageConfig SmallConfig() {
  StorageConfig config;
  config.page_size_bytes = 64;
  config.record_size_bytes = 30;
  config.micro_partition_pages = 2;
  return config;
}

void ExpectSameIo(const QueryIo& a, const QueryIo& b, const std::string& ctx) {
  EXPECT_EQ(a.records, b.records) << ctx;
  EXPECT_EQ(a.pages, b.pages) << ctx;
  EXPECT_EQ(a.seeks, b.seeks) << ctx;
  EXPECT_EQ(a.min_pages, b.min_pages) << ctx;
}

class MicroPartitionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MicroPartitionDifferentialTest, QueryAnswersBitIdenticalAcrossBackends) {
  Rng rng(0xA11CE + static_cast<uint64_t>(GetParam()) * 7919);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);

  const auto packed = MakeStorageBackend(StorageBackendKind::kPacked, lin,
                                         facts, SmallConfig())
                          .value();
  const auto micro = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                        lin, facts, SmallConfig())
                         .value();
  ASSERT_EQ(packed->kind(), StorageBackendKind::kPacked);
  ASSERT_EQ(micro->kind(), StorageBackendKind::kMicroPartition);
  EXPECT_EQ(packed->num_pages(), micro->num_pages());

  const QueryEngine packed_engine(*packed);
  const QueryEngine micro_engine(*micro);
  const IoSimulator packed_sim(*packed);
  const IoSimulator micro_sim(*micro);

  const QueryClassLattice lat(*schema);
  for (uint64_t c = 0; c < lat.size(); ++c) {
    const QueryClass cls = lat.ClassAt(c);
    const uint64_t queries = NumQueriesInClass(*schema, cls);
    for (uint64_t q = 0; q < queries; ++q) {
      const GridQuery query = QueryAt(*schema, cls, q);
      const std::string ctx = lin->name() + " " + query.ToString();
      const QueryAnswer a = packed_engine.Execute(query);
      const QueryAnswer b = micro_engine.Execute(query);
      EXPECT_EQ(a.count, b.count) << ctx;
      EXPECT_EQ(a.sum, b.sum) << ctx;  // bit pattern, no epsilon
      ExpectSameIo(a.io, b.io, ctx);
      ExpectSameIo(packed_sim.Measure(query), micro_sim.Measure(query), ctx);
      // The pruned run path agrees with the reference cell walk too.
      ExpectSameIo(micro_sim.Measure(query), micro_sim.MeasureCellWalk(query),
                   ctx);
    }
    // Class aggregates (the cost pipeline's inputs) match field by field.
    const ClassIoStats pa = packed_sim.MeasureClass(cls);
    const ClassIoStats mb = micro_sim.MeasureClass(cls);
    EXPECT_EQ(pa.num_queries, mb.num_queries) << cls.ToString();
    EXPECT_EQ(pa.num_nonempty, mb.num_nonempty) << cls.ToString();
    EXPECT_EQ(pa.total_pages, mb.total_pages) << cls.ToString();
    EXPECT_EQ(pa.total_seeks, mb.total_seeks) << cls.ToString();
    EXPECT_EQ(pa.total_normalized, mb.total_normalized) << cls.ToString();
  }
}

TEST_P(MicroPartitionDifferentialTest, PartitionDirectoryInvariants) {
  Rng rng(0xD1CE + static_cast<uint64_t>(GetParam()) * 104729);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  const StorageConfig config = SmallConfig();
  const auto store = MicroPartitionStore::Pack(lin, facts, config).value();

  const uint64_t n = schema->num_cells();
  ASSERT_GT(store.num_partitions(), 0u);

  uint64_t next_rank = 0;
  uint64_t last_data_page = 0;
  bool seen_data = false;
  for (uint64_t p = 0; p < store.num_partitions(); ++p) {
    const auto& part = store.partition(p);
    // Partitions tile the rank space in order with no gaps or overlaps.
    EXPECT_EQ(part.first_rank, next_rank);
    EXPECT_GT(part.num_ranks, 0u);
    next_rank = part.end_rank();

    // Every rank resolves back to its partition.
    EXPECT_EQ(store.PartitionOf(part.first_rank), p);
    EXPECT_EQ(store.PartitionOf(part.end_rank() - 1), p);

    if (part.records > 0) {
      // Page ranges are disjoint and ascending: immutable partitions never
      // share a page.
      if (seen_data) {
        EXPECT_GT(part.first_page, last_data_page);
      }
      EXPECT_GE(part.last_page, part.first_page);
      last_data_page = part.last_page;
      seen_data = true;

      // Non-final partitions close only after reaching the size target.
      if (p + 1 < store.num_partitions()) {
        EXPECT_GE(part.num_data_pages(), config.micro_partition_pages);
      }

      // The zone map is the exact min/max over non-empty member cells.
      CellCoord lo, hi;
      bool first = true;
      for (uint64_t r = part.first_rank; r < part.end_rank(); ++r) {
        if (store.CellRecords(r) == 0) continue;
        const CellCoord coord = lin->CellAt(r);
        if (first) {
          lo = coord;
          hi = coord;
          first = false;
          continue;
        }
        for (size_t d = 0; d < coord.size(); ++d) {
          if (coord[d] < lo[d]) lo[d] = coord[d];
          if (coord[d] > hi[d]) hi[d] = coord[d];
        }
      }
      ASSERT_FALSE(first);
      EXPECT_EQ(part.zone_lo, lo);
      EXPECT_EQ(part.zone_hi, hi);

      // Records in the partition reconcile with the range accelerator.
      EXPECT_EQ(part.records,
                store.MeasureRange(part.first_rank, part.num_ranks).records);
    }
  }
  EXPECT_EQ(next_rank, n);
}

TEST_P(MicroPartitionDifferentialTest, PruningIsSoundAgainstBruteForce) {
  Rng rng(0xBADA + static_cast<uint64_t>(GetParam()) * 7919);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  const auto store = MicroPartitionStore::Pack(lin, facts, SmallConfig())
                         .value();

  const QueryClassLattice lat(*schema);
  const Workload mu = Workload::Uniform(lat);
  for (int trial = 0; trial < 32; ++trial) {
    const QueryClass cls = mu.Sample(&rng);
    const GridQuery query = SampleQuery(*schema, cls, &rng);
    const CellBox box = BoxOf(*schema, query);

    uint64_t scanned = 0, pruned = 0;
    for (uint64_t p = 0; p < store.num_partitions(); ++p) {
      const auto& part = store.partition(p);
      bool zone_overlaps = part.records > 0;
      for (size_t d = 0; zone_overlaps && d < box.lo.size(); ++d) {
        zone_overlaps = part.zone_lo[d] < box.hi[d] &&
                        part.zone_hi[d] >= box.lo[d];
      }
      zone_overlaps ? ++scanned : ++pruned;

      // Soundness: a pruned partition holds NO non-empty cell of the box.
      if (!zone_overlaps) {
        for (uint64_t r = part.first_rank; r < part.end_rank(); ++r) {
          if (store.CellRecords(r) == 0) continue;
          EXPECT_FALSE(box.Contains(lin->CellAt(r)))
              << "partition " << p << " pruned but holds in-box rank " << r;
        }
      }
    }

    const PruneStats stats = store.PruneBox(box);
    EXPECT_EQ(stats.partitions, store.num_partitions());
    EXPECT_EQ(stats.scanned, scanned);
    EXPECT_EQ(stats.pruned, pruned);
    EXPECT_EQ(stats.scanned + stats.pruned, stats.partitions);
  }
}

TEST_P(MicroPartitionDifferentialTest, MeasureCountsExactlyThePartitionsRead) {
  // Measure counts partitions from the query's runs; the oracle walks the
  // box cell by cell and resolves each non-empty cell's partition by rank.
  Rng rng(0xC0DE + static_cast<uint64_t>(GetParam()) * 7919);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  const auto store = MicroPartitionStore::Pack(lin, facts, SmallConfig())
                         .value();
  const auto packed = MakeStorageBackend(StorageBackendKind::kPacked, lin,
                                         facts, SmallConfig())
                          .value();
  ASSERT_GT(store.num_partitions(), 1u);
  MetricsRegistry metrics;
  const IoSimulator sim(store, ObsSink{&metrics, nullptr});
  const IoSimulator packed_sim(*packed);

  const QueryClassLattice lat(*schema);
  uint64_t total_scanned = 0, total_pruned = 0;
  for (uint64_t c = 0; c < lat.size(); ++c) {
    const QueryClass cls = lat.ClassAt(c);
    const uint64_t queries = NumQueriesInClass(*schema, cls);
    for (uint64_t q = 0; q < queries; ++q) {
      const GridQuery query = QueryAt(*schema, cls, q);
      const CellBox box = BoxOf(*schema, query);
      std::vector<bool> holds(store.num_partitions(), false);
      CellCoord coord = box.lo;
      for (;;) {
        const uint64_t rank = lin->RankOf(coord);
        if (store.CellRecords(rank) > 0) holds[store.PartitionOf(rank)] = true;
        int d = schema->num_dims() - 1;
        for (; d >= 0; --d) {
          const size_t i = static_cast<size_t>(d);
          if (++coord[i] < box.hi[i]) break;
          coord[i] = box.lo[i];
        }
        if (d < 0) break;
      }
      const uint64_t exact =
          static_cast<uint64_t>(std::count(holds.begin(), holds.end(), true));

      const std::string ctx = lin->name() + " " + query.ToString();
      PruneStats read;
      sim.Measure(query, &read);
      EXPECT_EQ(read.partitions, store.num_partitions()) << ctx;
      EXPECT_EQ(read.scanned, exact) << ctx;
      EXPECT_EQ(read.scanned + read.pruned, read.partitions) << ctx;
      EXPECT_LE(read.scanned, store.PruneBox(box).scanned) << ctx;
      total_scanned += read.scanned;
      total_pruned += read.pruned;

      // A backend without a directory reports nothing to prune.
      PruneStats none{1, 1, 1};
      packed_sim.Measure(query, &none);
      EXPECT_EQ(none.partitions, 0u) << ctx;
      EXPECT_EQ(none.scanned, 0u) << ctx;
      EXPECT_EQ(none.pruned, 0u) << ctx;
    }
  }
  // The aggregate counters add up the per-query counts.
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter("storage.partitions_scanned"), total_scanned);
  EXPECT_EQ(snap.counter("storage.partitions_pruned"), total_pruned);
}

TEST_P(MicroPartitionDifferentialTest, MeasurePruningIsSoundPerRecord) {
  // Record-level soundness of the measure zone maps: the test keeps its own
  // list of every (coord, measure) record it inserts, so a partition pruned
  // by PruneBoxMeasure can be checked record by record — it must hold NO
  // record inside the query box whose measure lies in the bounds.
  Rng rng(0x5EED + static_cast<uint64_t>(GetParam()) * 7919);
  const auto schema = RandomSchema(&rng);
  auto facts = std::make_shared<FactTable>(schema);
  std::vector<std::pair<CellCoord, double>> records;
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    if (!rng.Chance(0.7)) continue;
    const uint64_t n = 1 + rng.Below(3);
    for (uint64_t r = 0; r < n; ++r) {
      const CellCoord coord = schema->Unflatten(id);
      const double measure = rng.NextDouble() * 100.0;
      facts->AddRecord(coord, measure);
      records.emplace_back(coord, measure);
    }
  }
  ASSERT_FALSE(records.empty());
  const auto lin = RandomOrder(schema, &rng);
  const auto store =
      MicroPartitionStore::Pack(lin, facts, SmallConfig()).value();

  // The per-partition measure envelope is the exact record-level min/max.
  for (uint64_t p = 0; p < store.num_partitions(); ++p) {
    const auto& part = store.partition(p);
    if (part.records == 0) continue;
    double lo = 0.0, hi = 0.0;
    bool first = true;
    uint64_t count = 0;
    for (const auto& [coord, measure] : records) {
      const uint64_t rank = lin->RankOf(coord);
      if (rank < part.first_rank || rank >= part.end_rank()) continue;
      ++count;
      if (first || measure < lo) lo = measure;
      if (first || measure > hi) hi = measure;
      first = false;
    }
    ASSERT_FALSE(first) << "partition " << p << " claims records it lacks";
    EXPECT_EQ(part.records, count);
    EXPECT_EQ(part.measure_lo, lo) << "partition " << p;
    EXPECT_EQ(part.measure_hi, hi) << "partition " << p;
  }

  const QueryClassLattice lat(*schema);
  const Workload mu = Workload::Uniform(lat);
  for (int trial = 0; trial < 32; ++trial) {
    const QueryClass cls = mu.Sample(&rng);
    const GridQuery query = SampleQuery(*schema, cls, &rng);
    const CellBox box = BoxOf(*schema, query);
    MeasureBounds bounds;
    bounds.lo = rng.NextDouble() * 80.0;
    bounds.hi = bounds.lo + rng.NextDouble() * 40.0;

    const PruneStats with_measure = store.PruneBoxMeasure(box, bounds);
    const PruneStats box_only = store.PruneBox(box);
    EXPECT_EQ(with_measure.partitions, store.num_partitions());
    EXPECT_EQ(with_measure.scanned + with_measure.pruned,
              with_measure.partitions);
    // The measure predicate only ever prunes MORE, never less.
    EXPECT_GE(with_measure.pruned, box_only.pruned);

    // Brute force: replay the pruning decision per partition and check every
    // pruned one against the raw record list.
    uint64_t pruned = 0;
    for (uint64_t p = 0; p < store.num_partitions(); ++p) {
      const auto& part = store.partition(p);
      bool overlaps = part.records > 0;
      for (size_t d = 0; overlaps && d < box.lo.size(); ++d) {
        overlaps =
            part.zone_lo[d] < box.hi[d] && part.zone_hi[d] >= box.lo[d];
      }
      if (overlaps) {
        overlaps = part.measure_lo <= bounds.hi && part.measure_hi >= bounds.lo;
      }
      if (overlaps) continue;
      ++pruned;
      for (const auto& [coord, measure] : records) {
        const uint64_t rank = lin->RankOf(coord);
        if (rank < part.first_rank || rank >= part.end_rank()) continue;
        EXPECT_FALSE(box.Contains(coord) && bounds.Contains(measure))
            << "partition " << p
            << " pruned but holds a qualifying record: measure " << measure;
      }
    }
    EXPECT_EQ(with_measure.pruned, pruned);
  }

  // Wide-open bounds reduce the measure pruner to the box pruner.
  MeasureBounds open;
  open.lo = -1.0;
  open.hi = 101.0;
  const CellBox all = BoxOf(*schema, QueryAt(*schema, lat.ClassAt(0), 0));
  EXPECT_EQ(store.PruneBoxMeasure(all, open).scanned,
            store.PruneBox(all).scanned);
}

TEST(MicroPartitionTest, BaseBackendMeasurePruningDelegatesToPruneBox) {
  // A backend with no partition directory reports the same "nothing to
  // prune" stats whether or not a measure predicate rides along.
  Rng rng(0xBEEF);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  const auto packed = MakeStorageBackend(StorageBackendKind::kPacked, lin,
                                         facts, SmallConfig())
                          .value();
  const QueryClassLattice lat(*schema);
  const GridQuery query = QueryAt(*schema, lat.ClassAt(0), 0);
  const CellBox box = BoxOf(*schema, query);
  MeasureBounds bounds;
  bounds.lo = 0.25;
  bounds.hi = 0.75;
  const PruneStats plain = packed->PruneBox(box);
  const PruneStats measured = packed->PruneBoxMeasure(box, bounds);
  EXPECT_EQ(measured.partitions, plain.partitions);
  EXPECT_EQ(measured.scanned, plain.scanned);
  EXPECT_EQ(measured.pruned, plain.pruned);
  EXPECT_EQ(measured.partitions, 0u);
}

TEST_P(MicroPartitionDifferentialTest, MovementPricingSharesPermutation) {
  Rng rng(0xF00D + static_cast<uint64_t>(GetParam()) * 104729);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  auto orders = AllRowMajorOrders(schema);
  ASSERT_GE(orders.size(), 2u);
  const std::shared_ptr<const Linearization> from = std::move(orders[0]);
  const std::shared_ptr<const Linearization> to =
      std::move(orders[orders.size() - 1]);

  const auto packed_from = MakeStorageBackend(StorageBackendKind::kPacked,
                                              from, facts, SmallConfig())
                               .value();
  const auto packed_to = MakeStorageBackend(StorageBackendKind::kPacked, to,
                                            facts, SmallConfig())
                             .value();
  const auto micro_from =
      MakeStorageBackend(StorageBackendKind::kMicroPartition, from, facts,
                         SmallConfig())
          .value();
  const auto micro_to = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                           to, facts, SmallConfig())
                            .value();

  // Identical orders cost exactly zero at every granularity.
  const MovementCost none =
      ComputeMovementCost(*micro_from, *micro_from).value();
  EXPECT_EQ(none.moved_runs, 0u);
  EXPECT_EQ(none.moved_records, 0u);
  EXPECT_EQ(none.pages_moved(), 0u);
  EXPECT_EQ(none.partitions_read + none.partitions_written, 0u);

  const MovementCost run_cost =
      ComputeMovementCost(*packed_from, *packed_to).value();
  const MovementCost part_cost =
      ComputeMovementCost(*micro_from, *micro_to).value();

  // The permutation structure is granularity-independent...
  EXPECT_EQ(run_cost.total_cells, part_cost.total_cells);
  EXPECT_EQ(run_cost.stable_prefix_cells, part_cost.stable_prefix_cells);
  EXPECT_EQ(run_cost.moved_runs, part_cost.moved_runs);
  EXPECT_EQ(run_cost.moved_records, part_cost.moved_records);

  // ...while the page pricing differs in kind: run granularity reports no
  // partitions, partition granularity reports whole partitions whenever
  // anything moves.
  EXPECT_EQ(run_cost.partitions_read + run_cost.partitions_written, 0u);
  if (part_cost.moved_records > 0) {
    EXPECT_GT(part_cost.partitions_read, 0u);
    EXPECT_GT(part_cost.partitions_written, 0u);
    EXPECT_GT(part_cost.pages_moved(), 0u);
    // A rewritten partition is at least as big as the runs inside it.
    EXPECT_GE(part_cost.pages_read, run_cost.moved_runs > 0 ? 1u : 0u);
  }

  // Mixed-granularity pricing (packed source, micro destination) works too.
  const MovementCost mixed =
      ComputeMovementCost(*packed_from, *micro_to).value();
  EXPECT_EQ(mixed.moved_records, run_cost.moved_records);
  EXPECT_EQ(mixed.partitions_read, 0u);
  if (mixed.moved_records > 0) {
    EXPECT_GT(mixed.partitions_written, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MicroPartitionDifferentialTest,
                         ::testing::Range(1, 9));

TEST(MicroPartitionTest, EmptyBoxReadsNoDataAndCountsEveryPartitionPruned) {
  // Populate only the dim0 < 2 half; a query over another dim0 block holds
  // no record, so it reads no partition and measures an all-zero QueryIo.
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Symmetric(2, 2, 2).value());
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    const CellCoord coord = schema->Unflatten(id);
    if (coord[0] < 2) facts->AddRecord(coord, 1.0);
  }
  auto lin = RowMajorOrder::Make(schema, {0, 1}).value();
  const auto micro = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                        std::move(lin), facts, SmallConfig())
                         .value();
  ASSERT_GT(micro->num_partitions(), 1u);

  MetricsRegistry metrics;
  const ObsSink obs{&metrics, nullptr};
  const IoSimulator sim(*micro, obs);

  // A leaf-level query in the empty half of dim0.
  GridQuery query;
  query.cls = QueryClass{0, 2};  // dim0 at leaf level, dim1 at root
  query.block.resize(2);
  query.block[0] = schema->extent(0) - 1;
  query.block[1] = 0;
  const QueryIo io = sim.Measure(query);
  EXPECT_EQ(io.records, 0u);
  EXPECT_EQ(io.pages, 0u);
  EXPECT_EQ(io.seeks, 0u);
  EXPECT_EQ(io.min_pages, 0u);

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter("storage.partitions_scanned"), 0u);
  EXPECT_EQ(snap.counter("storage.partitions_pruned"),
            micro->num_partitions());
  // Its runs hold no record, so no page is read.
  EXPECT_EQ(snap.counter("storage.pages_read"), 0u);
}

TEST(MicroPartitionTest, SimulatedSeeksMatchAnalyticModelOnCellPages) {
  // The obs_cost_crosscheck bridge, on the partitioned backend: one record
  // per cell and page == record makes pages coincide with cells, so
  // measured seeks must equal the analytic edge model's curve fragments.
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Symmetric(2, 2, 2).value());
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    facts->AddRecord(schema->Unflatten(id), 1.0);
  }
  StorageConfig config;
  config.page_size_bytes = 125;
  config.record_size_bytes = 125;
  config.micro_partition_pages = 3;
  const std::shared_ptr<const Linearization> shared_lin =
      RowMajorOrder::Make(schema, {1, 0}).value();
  const auto micro = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                        shared_lin, facts, config)
                         .value();
  ASSERT_EQ(micro->num_pages(), schema->num_cells());

  const ClassCostTable analytic = MeasureClassCosts(*shared_lin);
  const IoSimulator sim(*micro);
  const QueryClassLattice lat(*schema);
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const QueryClass cls = lat.ClassAt(i);
    const ClassIoStats measured = sim.MeasureClass(cls);
    EXPECT_EQ(measured.total_seeks, analytic.TotalFragments(cls))
        << cls.ToString();
    EXPECT_EQ(measured.total_pages, schema->num_cells()) << cls.ToString();
  }
}

TEST(MicroPartitionTest, FactoryAndKindNamesRoundTrip) {
  EXPECT_STREQ(StorageBackendKindName(StorageBackendKind::kPacked), "packed");
  EXPECT_STREQ(StorageBackendKindName(StorageBackendKind::kMicroPartition),
               "micropartition");
  EXPECT_EQ(ParseStorageBackendKind("packed").value(),
            StorageBackendKind::kPacked);
  EXPECT_EQ(ParseStorageBackendKind("micropartition").value(),
            StorageBackendKind::kMicroPartition);
  EXPECT_EQ(ParseStorageBackendKind("micro-partition").value(),
            StorageBackendKind::kMicroPartition);
  EXPECT_FALSE(ParseStorageBackendKind("").ok());
  EXPECT_FALSE(ParseStorageBackendKind("flat-file").ok());

  Rng rng(99);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  for (const auto kind :
       {StorageBackendKind::kPacked, StorageBackendKind::kMicroPartition}) {
    const auto backend =
        MakeStorageBackend(kind, lin, facts, SmallConfig()).value();
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
    EXPECT_STREQ(backend->kind_name(), StorageBackendKindName(kind));
  }

  // A zero partition-size target is a config error, not a crash.
  StorageConfig bad = SmallConfig();
  bad.micro_partition_pages = 0;
  EXPECT_FALSE(MicroPartitionStore::Pack(lin, facts, bad).ok());
}

// ---------------------------------------------------------------------------
// The TPC-D warehouse: the figures EXPERIMENTS.md quotes for zone-map pruning
// (the micro-partition claim of Liu et al., PAPERS.md), pinned exactly.

struct TpcdBackends {
  std::shared_ptr<const StorageBackend> packed;
  std::shared_ptr<const StorageBackend> micro;
};

/// Both backends packed from the shared TPC-D layout at the paper's
/// 125-byte records on 8 KB pages, once per test binary.
const TpcdBackends& SharedTpcdBackends() {
  static const TpcdBackends backends = [] {
    const TpcdSnakedLayout& tpcd = SharedTpcdSnakedLayout();
    TpcdBackends out;
    out.packed = MakeStorageBackend(StorageBackendKind::kPacked, tpcd.lin,
                                    tpcd.warehouse.facts, StorageConfig())
                     .value();
    out.micro = MakeStorageBackend(StorageBackendKind::kMicroPartition,
                                   tpcd.lin, tpcd.warehouse.facts,
                                   StorageConfig())
                    .value();
    return out;
  }();
  return backends;
}

/// Up to 256 queries of `cls`, strided so the sample spans the class instead
/// of clustering at the rank-space origin.
std::vector<GridQuery> SampledQueries(const StarSchema& schema,
                                      const QueryClass& cls) {
  const uint64_t queries = NumQueriesInClass(schema, cls);
  const uint64_t sample = std::min<uint64_t>(queries, 256);
  std::vector<GridQuery> out;
  for (uint64_t s = 0; s < sample; ++s) {
    out.push_back(QueryAt(schema, cls, s * (queries / sample)));
  }
  return out;
}

TEST(MicroPartitionTpcdTest, BackendsAgreeOnEveryClassAndSampledAnswer) {
  const StarSchema& schema = *SharedTpcdSnakedLayout().warehouse.schema;
  const TpcdBackends& tpcd = SharedTpcdBackends();
  const IoSimulator packed_sim(*tpcd.packed);
  const IoSimulator micro_sim(*tpcd.micro);
  const QueryEngine packed_engine(*tpcd.packed);
  const QueryEngine micro_engine(*tpcd.micro);
  const QueryClassLattice lat(schema);
  uint64_t answers = 0;
  for (uint64_t c = 0; c < lat.size(); ++c) {
    const QueryClass cls = lat.ClassAt(c);
    const ClassIoStats pa = packed_sim.MeasureClass(cls);
    const ClassIoStats mb = micro_sim.MeasureClass(cls);
    EXPECT_EQ(pa.num_queries, mb.num_queries) << cls.ToString();
    EXPECT_EQ(pa.num_nonempty, mb.num_nonempty) << cls.ToString();
    EXPECT_EQ(pa.total_pages, mb.total_pages) << cls.ToString();
    EXPECT_EQ(pa.total_seeks, mb.total_seeks) << cls.ToString();
    EXPECT_EQ(pa.total_normalized, mb.total_normalized) << cls.ToString();
    for (const GridQuery& query : SampledQueries(schema, cls)) {
      const QueryAnswer a = packed_engine.Execute(query);
      const QueryAnswer b = micro_engine.Execute(query);
      EXPECT_EQ(a.count, b.count) << query.ToString();
      EXPECT_EQ(a.sum, b.sum) << query.ToString();
      ExpectSameIo(a.io, b.io, query.ToString());
      ++answers;
    }
  }
  EXPECT_EQ(answers, 2766u);
}

TEST(MicroPartitionTpcdTest, RestrictedClassesPruneMostOfTheDirectory) {
  const StarSchema& schema = *SharedTpcdSnakedLayout().warehouse.schema;
  const TpcdBackends& tpcd = SharedTpcdBackends();
  EXPECT_EQ(tpcd.packed->num_pages(), 24616u);
  EXPECT_EQ(tpcd.micro->num_pages(), 24616u);
  EXPECT_EQ(tpcd.micro->num_partitions(), 1013u);

  // Restricted classes are every class below the grid-spanning top, where
  // the zone maps have a box edge to cut against. The zone maps bound what
  // a read touches; Measure counts the partitions that actually hold the
  // query's records, never more than survive.
  const QueryClassLattice lat(schema);
  const IoSimulator sim(*tpcd.micro);
  uint64_t scanned = 0, pruned = 0, read = 0, skipped = 0;
  for (uint64_t c = 0; c < lat.size(); ++c) {
    const QueryClass cls = lat.ClassAt(c);
    if (cls == lat.Top()) continue;
    for (const GridQuery& query : SampledQueries(schema, cls)) {
      const PruneStats stats = tpcd.micro->PruneBox(BoxOf(schema, query));
      scanned += stats.scanned;
      pruned += stats.pruned;
      PruneStats exact;
      sim.Measure(query, &exact);
      EXPECT_LE(exact.scanned, stats.scanned) << query.ToString();
      read += exact.scanned;
      skipped += exact.pruned;
    }
  }
  EXPECT_EQ(scanned, 77552u);
  EXPECT_EQ(pruned, 2723393u);
  const double fraction =
      static_cast<double>(pruned) / static_cast<double>(scanned + pruned);
  EXPECT_GE(fraction, 0.5);
  EXPECT_EQ(std::lround(1000.0 * fraction), 972);  // 97.2%
  EXPECT_EQ(read, 75595u);
  EXPECT_EQ(skipped, 2725350u);
}

TEST(MicroPartitionDeathTest, MeasureRangePastTheGridAborts) {
  Rng rng(7);
  const auto schema = RandomSchema(&rng);
  const auto facts = RandomFacts(schema, &rng);
  const auto lin = RandomOrder(schema, &rng);
  const auto layout = PackedLayout::Pack(lin, facts, SmallConfig()).value();
  const uint64_t n = schema->num_cells();
  // In-bounds edge cases stay fine.
  EXPECT_EQ(layout.MeasureRange(0, 0).records, 0u);
  EXPECT_EQ(layout.MeasureRange(n, 0).records, 0u);
  // Past the end, and wraparound shapes where start + len overflows back
  // into range: both must abort, not read out of bounds.
  EXPECT_DEATH(layout.MeasureRange(n, 1), "CHECK failed");
  EXPECT_DEATH(layout.MeasureRange(1, UINT64_MAX), "CHECK failed");
  EXPECT_DEATH(layout.MeasureRange(UINT64_MAX, 2), "CHECK failed");
}

}  // namespace
}  // namespace snakes
