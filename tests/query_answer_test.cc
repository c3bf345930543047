// Query answers from rank-prefix sums: QueryEngine::Execute answers COUNT
// and SUM from the query's rank runs (two prefix entries per run), and the
// cell walk survives only as the reference ExecuteCellWalk. This suite holds
// the run path to that oracle exactly — count, integer cents, the double sum
// bit for bit, and the I/O — for every registered strategy on both storage
// backends, and checks the pieces underneath: the fact table's rounding to
// cents and the backend's prefix arrays against a reference page packing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "curves/row_major.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "storage/query_engine.h"
#include "tpcd/dbgen.h"
#include "tpcd/workloads.h"
#include "util/rng.h"

namespace snakes {
namespace {

constexpr StorageBackendKind kBackends[] = {
    StorageBackendKind::kPacked, StorageBackendKind::kMicroPartition};

/// Small pages and a tiny partition target so small grids still produce
/// multi-page cells and a multi-partition directory.
StorageConfig SmallConfig() {
  StorageConfig config;
  config.page_size_bytes = 64;
  config.record_size_bytes = 30;
  config.micro_partition_pages = 2;
  return config;
}

/// ~70% of cells populated with 1-3 records whose measures are arbitrary
/// doubles of both signs (so rounding to cents is exercised, not just
/// whole-cent inputs).
std::shared_ptr<const FactTable> RandomFacts(
    const std::shared_ptr<const StarSchema>& schema, Rng* rng) {
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    if (!rng->Chance(0.7)) continue;
    const uint64_t records = 1 + rng->Below(3);
    for (uint64_t r = 0; r < records; ++r) {
      facts->AddRecord(schema->Unflatten(id),
                       (rng->NextDouble() - 0.3) * 1000.0);
    }
  }
  return facts;
}

/// Every candidate linearization of every built-in strategy family that
/// applies to `schema`, as the advisor's planner builds them.
std::vector<std::shared_ptr<const Linearization>> EveryStrategy(
    const std::shared_ptr<const StarSchema>& schema) {
  const ClusteringAdvisor advisor(schema);
  Rng rng(5);
  const EvaluationPlan plan =
      advisor.Plan(EvaluationRequest(Workload::Random(advisor.Lattice(), &rng)))
          .value();
  std::vector<std::shared_ptr<const Linearization>> out;
  for (const PlannedStrategy& s : plan.strategies) {
    out.push_back(s.linearization);
  }
  return out;
}

/// Sum of every cell's cents.
int64_t TotalCents(const FactTable& facts) {
  int64_t total = 0;
  for (CellId id = 0; id < facts.num_cells(); ++id) {
    total += facts.measure_cents(id);
  }
  return total;
}

/// Execute must equal the cell-walk oracle exactly: count, cents, the sum's
/// bit pattern and every I/O field.
void ExpectMatchesOracle(const QueryEngine& engine, const GridQuery& query,
                         const std::string& ctx) {
  PruneStats prune;
  const QueryAnswer got = engine.Execute(query, &prune);
  const QueryAnswer want = engine.ExecuteCellWalk(query);
  EXPECT_EQ(got.count, want.count) << ctx;
  EXPECT_EQ(got.cents, want.cents) << ctx;
  EXPECT_EQ(got.sum, want.sum) << ctx;  // bit pattern, no epsilon
  EXPECT_EQ(got.io.records, want.io.records) << ctx;
  EXPECT_EQ(got.io.pages, want.io.pages) << ctx;
  EXPECT_EQ(got.io.seeks, want.io.seeks) << ctx;
  EXPECT_EQ(got.io.min_pages, want.io.min_pages) << ctx;
  // A read touches a partition exactly when it holds one of its records.
  if (prune.partitions > 0) {
    EXPECT_EQ(prune.scanned == 0, got.count == 0) << ctx;
  }
}

// ---------------------------------------------------------------------------
// FactTable: measures become exact cents.

std::shared_ptr<const StarSchema> TinySchema() {
  return std::make_shared<StarSchema>(StarSchema::Symmetric(2, 1, 2).value());
}

TEST(FactTableCentsTest, RoundsEachRecordToTheNearestCent) {
  const auto schema = TinySchema();
  FactTable facts(schema);
  const CellCoord a = schema->Unflatten(0);
  const CellCoord b = schema->Unflatten(1);
  facts.AddRecord(a, 0.005);    // half a cent rounds away from zero
  facts.AddRecord(b, -0.005);
  EXPECT_EQ(facts.measure_cents(0), 1);
  EXPECT_EQ(facts.measure_cents(1), -1);
  facts.AddRecord(a, 12.344);   // rounds down
  facts.AddRecord(a, 0.1);
  facts.AddRecord(a, 0.2);      // 0.1 + 0.2 sums to exactly 30 cents
  EXPECT_EQ(facts.measure_cents(0), 1 + 1234 + 10 + 20);
  EXPECT_EQ(facts.measure_sum(0), 12.65);
  EXPECT_EQ(TotalCents(facts), 1265 - 1);
  // Min/max stay the exact record-level doubles.
  EXPECT_EQ(facts.measure_min(0), 0.005);
  EXPECT_EQ(facts.measure_max(0), 12.344);
}

TEST(FactTableCentsDeathTest, NonFiniteMeasureAborts) {
  const auto schema = TinySchema();
  FactTable facts(schema);
  const CellCoord c = schema->Unflatten(0);
  EXPECT_DEATH(facts.AddRecord(c, std::numeric_limits<double>::quiet_NaN()),
               "not finite");
  EXPECT_DEATH(facts.AddRecord(c, std::numeric_limits<double>::infinity()),
               "not finite");
  EXPECT_DEATH(facts.AddRecord(c, -std::numeric_limits<double>::infinity()),
               "not finite");
}

TEST(FactTableCentsDeathTest, CentsOverflowAborts) {
  const auto schema = TinySchema();
  FactTable facts(schema);
  const CellCoord c = schema->Unflatten(0);
  // One record past int64 cents.
  EXPECT_DEATH(facts.AddRecord(c, 1e17), "overflows int64 cents");
  // Two records that fit alone but not together, in one cell or across two.
  facts.AddRecord(c, 5e16);
  EXPECT_DEATH(facts.AddRecord(c, 5e16), "overflow int64 cents");
  EXPECT_DEATH(facts.AddRecord(schema->Unflatten(1), -5e16),
               "overflow int64 cents");
}

TEST(FactTableCentsTest, DbgenMeasuresAreWholeCents) {
  // dbgen prices a lineitem as quantity (1..50) x unit price (900.00 +
  // k/100, k < 100,000). Every such double product rounds to its exact
  // integer cents — checked exhaustively.
  for (uint64_t q = 0; q < 50; ++q) {
    const double quantity = 1.0 + static_cast<double>(q);
    for (uint64_t k = 0; k < 100'000; ++k) {
      const double unit_price = 900.0 + static_cast<double>(k) / 100.0;
      const int64_t exact = static_cast<int64_t>((q + 1) * (90'000 + k));
      ASSERT_EQ(std::llround(quantity * unit_price * 100.0), exact)
          << "quantity " << quantity << " price " << unit_price;
    }
  }
}

TEST(FactTableCentsTest, DbgenTotalIsTheSumOfPerRecordCents) {
  tpcd::Config config;
  config.parts_per_mfgr = 4;
  config.num_mfgrs = 3;
  config.num_suppliers = 4;
  config.months_per_year = 6;
  config.num_years = 2;
  config.num_orders = 3'000;
  const uint64_t seed = 23;
  const tpcd::Warehouse warehouse =
      tpcd::GenerateWarehouse(config, seed).value();
  const FactTable& facts = *warehouse.facts;

  // Replay dbgen's draws (uniform parts) and price each record in integer
  // cents: quantity x (90,000 + k).
  Rng rng(seed);
  const uint64_t num_months = config.num_months();
  int64_t expected = 0;
  uint64_t records = 0;
  for (uint64_t order = 0; order < config.num_orders; ++order) {
    (void)rng.Below(num_months);
    const uint64_t lineitems = 1 + rng.Below(7);
    for (uint64_t l = 0; l < lineitems; ++l) {
      (void)rng.Below(config.num_parts());
      (void)rng.Below(config.num_suppliers);
      (void)rng.Below(4);
      const int64_t quantity = 1 + static_cast<int64_t>(rng.Below(50));
      const int64_t price_cents =
          90'000 + static_cast<int64_t>(rng.Below(100'000));
      expected += quantity * price_cents;
      ++records;
    }
  }
  ASSERT_EQ(facts.total_records(), records);
  EXPECT_EQ(TotalCents(facts), expected);
}

// ---------------------------------------------------------------------------
// StorageBackend: the rank-prefix entries are the page packing.

TEST(BackendPrefixInvariantTest, DerivedCellSpansMatchReferencePacking) {
  Rng rng(0xCE475);
  for (const auto& schema :
       {std::make_shared<const StarSchema>(
            StarSchema::Symmetric(2, 2, 2).value()),
        std::make_shared<const StarSchema>(
            StarSchema::Symmetric(3, 1, 3).value())}) {
    const auto facts = RandomFacts(schema, &rng);
    for (const auto& lin : EveryStrategy(schema)) {
      for (StorageBackendKind kind : kBackends) {
        const StorageConfig config = SmallConfig();
        const auto backend =
            MakeStorageBackend(kind, lin, facts, config).value();
        const std::string ctx =
            lin->name() + " on " + StorageBackendKindName(kind);
        const uint64_t n = schema->num_cells();

        // The whole grid is one range: every record and every cent.
        const StorageBackend::RangeIo all = backend->MeasureRange(0, n);
        EXPECT_EQ(all.records, facts->total_records()) << ctx;
        EXPECT_EQ(all.cents, TotalCents(*facts)) << ctx;

        // Reference packing, cell by cell in rank order (Section 6.1:
        // records never split; a page whose remainder cannot hold one is
        // closed).
        uint64_t page = 0;
        uint64_t used = 0;
        for (uint64_t rank = 0; rank < n; ++rank) {
          const CellId id = schema->Flatten(lin->CellAt(rank));
          const uint32_t records = facts->count(id);
          ASSERT_EQ(backend->CellRecords(rank), records) << ctx;
          ASSERT_EQ(backend->CellEmpty(rank), records == 0) << ctx;
          const StorageBackend::RangeIo cell = backend->MeasureRange(rank, 1);
          ASSERT_EQ(cell.cents, facts->measure_cents(id)) << ctx;
          if (records == 0) continue;
          uint64_t first = UINT64_MAX;
          for (uint32_t r = 0; r < records; ++r) {
            if (config.page_size_bytes - used < config.record_size_bytes) {
              ++page;
              used = 0;
            }
            if (first == UINT64_MAX) first = page;
            used += config.record_size_bytes;
          }
          ASSERT_EQ(backend->CellFirstPage(rank), first) << ctx << " " << rank;
          ASSERT_EQ(backend->CellLastPage(rank), page) << ctx << " " << rank;
        }
        EXPECT_EQ(backend->num_pages(), page + (used > 0 ? 1 : 0)) << ctx;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Execute vs the cell-walk oracle.

TEST(QueryAnswerOracleTest, EveryQueryEveryStrategyBothBackends) {
  Rng rng(0x0AC1E);
  const std::vector<std::shared_ptr<const StarSchema>> schemas = {
      std::make_shared<const StarSchema>(
          StarSchema::Symmetric(2, 2, 2).value()),
      std::make_shared<const StarSchema>(
          StarSchema::Symmetric(3, 1, 3).value()),
      std::make_shared<const StarSchema>(
          StarSchema::Make("uneven",
                           {Hierarchy::Uniform("a", {2, 3}).value(),
                            Hierarchy::Uniform("b", {4}).value(),
                            Hierarchy::Uniform("c", {2, 2}).value()})
              .value())};
  for (const auto& schema : schemas) {
    const auto facts = RandomFacts(schema, &rng);
    const QueryClassLattice lat(*schema);
    for (const auto& lin : EveryStrategy(schema)) {
      for (StorageBackendKind kind : kBackends) {
        const auto backend =
            MakeStorageBackend(kind, lin, facts, SmallConfig()).value();
        const QueryEngine engine(*backend);
        for (uint64_t c = 0; c < lat.size(); ++c) {
          const QueryClass cls = lat.ClassAt(c);
          for (const GridQuery& q : AllQueriesInClass(*schema, cls)) {
            ExpectMatchesOracle(engine, q,
                                lin->name() + " " +
                                    StorageBackendKindName(kind) + " " +
                                    q.ToString());
          }
        }
      }
    }
  }
}

TEST(QueryAnswerOracleTest, FullyPrunedBoxAnswersZero) {
  // Only the dim0 < 2 half holds records, so a leaf query over the other
  // half prunes every micro-partition and must answer nothing — exactly as
  // the cell walk and the packed backend do.
  const auto schema =
      std::make_shared<StarSchema>(StarSchema::Symmetric(2, 2, 2).value());
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    const CellCoord coord = schema->Unflatten(id);
    if (coord[0] < 2) facts->AddRecord(coord, 1.25);
  }
  const std::shared_ptr<const Linearization> lin =
      RowMajorOrder::Make(schema, {0, 1}).value();
  GridQuery query;
  query.cls = QueryClass{0, 2};
  query.block.resize(2);
  query.block[0] = schema->extent(0) - 1;
  query.block[1] = 0;
  for (StorageBackendKind kind : kBackends) {
    const auto backend =
        MakeStorageBackend(kind, lin, facts, SmallConfig()).value();
    const QueryEngine engine(*backend);
    PruneStats prune;
    const QueryAnswer a = engine.Execute(query, &prune);
    if (kind == StorageBackendKind::kMicroPartition) {
      ASSERT_GT(prune.partitions, 1u);
      EXPECT_EQ(prune.scanned, 0u);
    }
    EXPECT_EQ(a.count, 0u);
    EXPECT_EQ(a.cents, 0);
    EXPECT_EQ(a.sum, 0.0);
    ExpectMatchesOracle(engine, query, StorageBackendKindName(kind));
  }
}

TEST(QueryAnswerOracleTest, SeededTpcdQueriesOnTheAdvisorsTopLayouts) {
  tpcd::Config config;
  config.parts_per_mfgr = 4;
  config.num_mfgrs = 5;
  config.num_suppliers = 10;
  config.months_per_year = 12;
  config.num_years = 2;
  config.num_orders = 10'000;
  const tpcd::Warehouse warehouse = tpcd::GenerateWarehouse(config, 1).value();
  const ClusteringAdvisor advisor(warehouse.schema);
  const QueryClassLattice& lat = advisor.Lattice();
  const Workload mu = tpcd::SectionSixWorkload(lat, 7).value();
  const Recommendation rec = advisor.Advise(EvaluationRequest(mu)).value();
  ASSERT_GE(rec.ranked.size(), 3u);

  Rng rng(2000);
  std::vector<GridQuery> queries;
  for (int i = 0; i < 2'000; ++i) {
    queries.push_back(SampleQuery(*warehouse.schema,
                                  lat.ClassAt(rng.Below(lat.size())), &rng));
  }
  for (size_t top = 0; top < 3; ++top) {
    const auto& lin = rec.ranked[top].linearization;
    for (StorageBackendKind kind : kBackends) {
      const auto backend =
          MakeStorageBackend(kind, lin, warehouse.facts).value();
      const QueryEngine engine(*backend);
      for (const GridQuery& q : queries) {
        ExpectMatchesOracle(engine, q,
                            lin->name() + " " + StorageBackendKindName(kind) +
                                " " + q.ToString());
      }
    }
  }
}

}  // namespace
}  // namespace snakes
