// Differential suite for relayout pricing: ComputeMovementCost (rank-order
// sweeps, closed-form partition pricing) must give every MovementCost field
// bit-identically to the per-cell reference — a RankOf(CellAt(r)) source
// map, materialized run lists, and each side priced range by range — over
// every strategy family, random permutations, both backend kinds in every
// pairing, and several page and partition sizes. Also holds the one-walk
// micro-partition directory to a two-walk rebuild.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "curves/hilbert.h"
#include "curves/linearization.h"
#include "curves/path_order.h"
#include "curves/rank_run.h"
#include "curves/row_major.h"
#include "curves/z_curve.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/star_schema.h"
#include "lattice/lattice.h"
#include "path/lattice_path.h"
#include "recluster/movement.h"
#include "storage/backend.h"
#include "storage/micro_partition.h"
#include "util/rng.h"

namespace snakes {
namespace {

// ---------------------------------------------------------------------------
// The per-cell reference pricing
// ---------------------------------------------------------------------------

/// Run granularity: each range with >= 1 record costs its page span as one
/// sequential unit.
RewriteIo OracleRunIo(const StorageBackend& side,
                      const std::vector<RankRun>& ranges) {
  RewriteIo io;
  for (const RankRun& r : ranges) {
    const StorageBackend::RangeIo range = side.MeasureRange(r.start, r.len);
    if (range.records == 0) continue;
    io.pages += range.last_page - range.first_page + 1;
    ++io.units;
  }
  return io;
}

/// Partition granularity: every partition that some range overlaps with
/// >= 1 record is rewritten whole.
RewriteIo OraclePartitionIo(const MicroPartitionStore& store,
                            const std::vector<RankRun>& ranges) {
  RewriteIo io;
  if (store.num_partitions() == 0) return io;
  std::vector<char> touched(store.num_partitions(), 0);
  for (const RankRun& r : ranges) {
    if (r.len == 0 || store.MeasureRange(r.start, r.len).records == 0) {
      continue;
    }
    const uint64_t end = r.start + r.len;
    for (uint64_t p = store.PartitionOf(r.start);
         p < store.num_partitions() && store.partition(p).first_rank < end;
         ++p) {
      const MicroPartitionStore::Partition& part = store.partition(p);
      const uint64_t lo = std::max(r.start, part.first_rank);
      const uint64_t hi = std::min(end, part.end_rank());
      if (store.MeasureRange(lo, hi - lo).records > 0) touched[p] = 1;
    }
  }
  for (uint64_t p = 0; p < store.num_partitions(); ++p) {
    if (touched[p] == 0) continue;
    io.pages += store.partition(p).num_data_pages();
    ++io.units;
    ++io.partitions;
  }
  return io;
}

RewriteIo OracleIo(const StorageBackend& side,
                   const std::vector<RankRun>& ranges) {
  if (const auto* store = dynamic_cast<const MicroPartitionStore*>(&side)) {
    return OraclePartitionIo(*store, ranges);
  }
  return OracleRunIo(side, ranges);
}

MovementCost OracleMovementCost(const StorageBackend& current,
                                const StorageBackend& proposed) {
  const uint64_t n = current.linearization().num_cells();
  MovementCost cost;
  cost.total_cells = n;
  std::vector<uint64_t> source(n);
  for (uint64_t r = 0; r < n; ++r) {
    source[r] =
        current.linearization().RankOf(proposed.linearization().CellAt(r));
  }
  uint64_t stable = 0;
  while (stable < n && source[stable] == stable) ++stable;
  cost.stable_prefix_cells = stable;
  std::vector<RankRun> src_ranges;
  std::vector<RankRun> dst_ranges;
  uint64_t r = stable;
  while (r < n) {
    uint64_t len = 1;
    while (r + len < n && source[r + len] == source[r] + len) ++len;
    const StorageBackend::RangeIo src = current.MeasureRange(source[r], len);
    if (src.records > 0) {
      ++cost.moved_runs;
      cost.moved_records += src.records;
      src_ranges.push_back(RankRun{source[r], len});
      dst_ranges.push_back(RankRun{r, len});
    }
    r += len;
  }
  const RewriteIo read = OracleIo(current, src_ranges);
  const RewriteIo write = OracleIo(proposed, dst_ranges);
  cost.pages_read = read.pages;
  cost.pages_written = write.pages;
  cost.partitions_read = read.partitions;
  cost.partitions_written = write.partitions;
  return cost;
}

void ExpectSameCost(const MovementCost& got, const MovementCost& want,
                    const std::string& ctx) {
  EXPECT_EQ(got.total_cells, want.total_cells) << ctx;
  EXPECT_EQ(got.stable_prefix_cells, want.stable_prefix_cells) << ctx;
  EXPECT_EQ(got.moved_runs, want.moved_runs) << ctx;
  EXPECT_EQ(got.moved_records, want.moved_records) << ctx;
  EXPECT_EQ(got.pages_read, want.pages_read) << ctx;
  EXPECT_EQ(got.pages_written, want.pages_written) << ctx;
  EXPECT_EQ(got.partitions_read, want.partitions_read) << ctx;
  EXPECT_EQ(got.partitions_written, want.partitions_written) << ctx;
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

using Lin = std::shared_ptr<const Linearization>;

/// Sparse facts with 1-40 records on ~70% of cells, so 8 KB pages (65
/// records) hold several cells and 256-byte pages split most of them.
std::shared_ptr<const FactTable> RandomFacts(
    const std::shared_ptr<const StarSchema>& schema, Rng* rng) {
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    if (!rng->Chance(0.7)) continue;
    const uint64_t records = 1 + rng->Below(40);
    for (uint64_t r = 0; r < records; ++r) {
      facts->AddRecord(schema->Unflatten(id), rng->NextDouble());
    }
  }
  return facts;
}

Lin Materialize(const std::shared_ptr<const StarSchema>& schema,
                const std::string& name, std::vector<CellId> order) {
  return Lin(MaterializedLinearization::Make(schema, name, std::move(order))
                 .value()
                 .release());
}

std::vector<CellId> OrderOf(const Linearization& lin) {
  std::vector<CellId> order(lin.num_cells());
  for (uint64_t r = 0; r < lin.num_cells(); ++r) {
    order[r] = lin.schema().Flatten(lin.CellAt(r));
  }
  return order;
}

void Shuffle(std::vector<CellId>* v, size_t from, Rng* rng) {
  for (size_t i = v->size(); i > from + 1; --i) {
    std::swap((*v)[i - 1], (*v)[from + rng->Below(i - from)]);
  }
}

/// One strategy of every family on `schema` (uniform power-of-two grids):
/// every row-major order, unsnaked and snaked paths over random step
/// sequences, Z and both Hilbert orientations.
std::vector<Lin> EveryFamily(const std::shared_ptr<const StarSchema>& schema,
                             Rng* rng) {
  std::vector<Lin> lins;
  for (auto& rm : AllRowMajorOrders(schema)) lins.emplace_back(std::move(rm));
  const QueryClassLattice lat(*schema);
  for (int i = 0; i < 2; ++i) {
    std::vector<int> steps;
    for (int d = 0; d < schema->num_dims(); ++d) {
      for (int l = 0; l < lat.levels(d); ++l) steps.push_back(d);
    }
    for (size_t j = steps.size(); j > 1; --j) {
      std::swap(steps[j - 1], steps[rng->Below(j)]);
    }
    const LatticePath path = LatticePath::FromSteps(lat, steps).value();
    lins.emplace_back(PathOrder::Make(schema, path, false).value());
    lins.emplace_back(PathOrder::Make(schema, path, true).value());
  }
  lins.emplace_back(ZCurve::Make(schema).value());
  lins.emplace_back(HilbertCurve::Make(schema, false).value());
  lins.emplace_back(HilbertCurve::Make(schema, true).value());
  return lins;
}

/// Permutations derived from `base`: its full reversal, a random
/// permutation, and stable-prefix-only variants that keep a random prefix
/// of `base` and shuffle, reverse or swap within the rest.
std::vector<Lin> Derived(const std::shared_ptr<const StarSchema>& schema,
                         const Linearization& base, Rng* rng) {
  const std::vector<CellId> order = OrderOf(base);
  const size_t n = order.size();
  std::vector<Lin> lins;
  std::vector<CellId> reversed(order.rbegin(), order.rend());
  lins.push_back(Materialize(schema, "reversed", reversed));
  std::vector<CellId> random = order;
  Shuffle(&random, 0, rng);
  lins.push_back(Materialize(schema, "random", random));
  const size_t prefix = 1 + rng->Below(n - 1);
  std::vector<CellId> shuffled_tail = order;
  Shuffle(&shuffled_tail, prefix, rng);
  lins.push_back(Materialize(schema, "prefix+shuffle", shuffled_tail));
  std::vector<CellId> reversed_tail = order;
  std::reverse(reversed_tail.begin() + static_cast<std::ptrdiff_t>(prefix),
               reversed_tail.end());
  lins.push_back(Materialize(schema, "prefix+reverse", reversed_tail));
  std::vector<CellId> swapped_tail = order;
  std::swap(swapped_tail[n - 2], swapped_tail[n - 1]);
  lins.push_back(Materialize(schema, "prefix+swap", swapped_tail));
  return lins;
}

/// The page configurations the pricing is held to: the paper's 8 KB pages
/// and two small ones, each with 1- and 2-page micro-partitions.
std::vector<StorageConfig> Configs() {
  std::vector<StorageConfig> configs;
  for (uint64_t page : {8192u, 256u, 1024u}) {
    for (uint64_t partition_pages : {1u, 2u}) {
      StorageConfig config;
      config.page_size_bytes = page;
      config.record_size_bytes = 125;
      config.micro_partition_pages = partition_pages;
      configs.push_back(config);
    }
  }
  return configs;
}

std::string ConfigName(const StorageConfig& c) {
  return std::to_string(c.page_size_bytes) + "/" +
         std::to_string(c.record_size_bytes) + " mp" +
         std::to_string(c.micro_partition_pages);
}

/// Packs every linearization into both backend kinds under `config` and
/// checks every ordered pair, in all four kind pairings, against the
/// oracle. Returns the number of pairs checked.
uint64_t CheckAllPairs(const std::vector<Lin>& lins,
                       const std::shared_ptr<const FactTable>& facts,
                       const StorageConfig& config) {
  std::vector<std::shared_ptr<const StorageBackend>> backends;
  for (const Lin& lin : lins) {
    for (StorageBackendKind kind :
         {StorageBackendKind::kPacked, StorageBackendKind::kMicroPartition}) {
      backends.push_back(MakeStorageBackend(kind, lin, facts, config).value());
    }
  }
  uint64_t pairs = 0;
  for (const auto& from : backends) {
    for (const auto& to : backends) {
      const std::string ctx = ConfigName(config) + " " +
                              from->linearization().name() + " [" +
                              from->kind_name() + "] -> " +
                              to->linearization().name() + " [" +
                              to->kind_name() + "]";
      ExpectSameCost(ComputeMovementCost(*from, *to).value(),
                     OracleMovementCost(*from, *to), ctx);
      ++pairs;
    }
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Movement pricing vs the per-cell oracle
// ---------------------------------------------------------------------------

class MovementDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MovementDifferentialTest, EveryFamilyMatchesPerCellOracle) {
  Rng rng(0x5EED + static_cast<uint64_t>(GetParam()) * 7919);
  // Alternate a 16x16 and an 8x8x8 binary grid.
  const auto schema = std::make_shared<const StarSchema>(
      GetParam() % 2 == 0 ? StarSchema::Symmetric(2, 4, 2).value()
                          : StarSchema::Symmetric(3, 3, 2).value());
  const auto facts = RandomFacts(schema, &rng);
  const std::vector<Lin> lins = EveryFamily(schema, &rng);
  for (const StorageConfig& config : Configs()) {
    EXPECT_EQ(CheckAllPairs(lins, facts, config),
              4 * lins.size() * lins.size());
  }
}

TEST_P(MovementDifferentialTest, DerivedPermutationsMatchPerCellOracle) {
  Rng rng(0xBEEF + static_cast<uint64_t>(GetParam()) * 104729);
  const auto schema = std::make_shared<const StarSchema>(
      GetParam() % 2 == 0 ? StarSchema::Symmetric(2, 4, 2).value()
                          : StarSchema::Symmetric(3, 3, 2).value());
  const auto facts = RandomFacts(schema, &rng);
  const std::vector<Lin> families = EveryFamily(schema, &rng);
  // A closed-form base (for its Walk) plus its derived permutations.
  std::vector<Lin> lins = {families[rng.Below(families.size())]};
  for (Lin& d : Derived(schema, *lins[0], &rng)) lins.push_back(std::move(d));
  for (const StorageConfig& config : Configs()) {
    CheckAllPairs(lins, facts, config);
  }
}

TEST_P(MovementDifferentialTest, RandomNonUniformSchemasMatchPerCellOracle) {
  // Non-power-of-two fanouts: row-major and materialized permutations only.
  Rng rng(0xCAFE + static_cast<uint64_t>(GetParam()) * 15485863);
  std::vector<Hierarchy> dims;
  const int k = 2 + static_cast<int>(rng.Below(2));
  for (int d = 0; d < k; ++d) {
    std::vector<uint64_t> fanouts;
    const int levels = 1 + static_cast<int>(rng.Below(2));
    for (int l = 0; l < levels; ++l) fanouts.push_back(2 + rng.Below(3));
    dims.push_back(
        Hierarchy::Uniform("d" + std::to_string(d), fanouts).value());
  }
  const auto schema = std::make_shared<const StarSchema>(
      StarSchema::Make("rand", std::move(dims)).value());
  const auto facts = RandomFacts(schema, &rng);
  std::vector<Lin> lins;
  for (auto& rm : AllRowMajorOrders(schema)) lins.emplace_back(std::move(rm));
  for (Lin& d : Derived(schema, *lins[0], &rng)) lins.push_back(std::move(d));
  for (const StorageConfig& config : Configs()) {
    CheckAllPairs(lins, facts, config);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovementDifferentialTest,
                         ::testing::Range(1, 5));

TEST(MovementDifferentialTest, IdentityIsFreeAndReversalMovesEverything) {
  Rng rng(42);
  const auto schema = std::make_shared<const StarSchema>(
      StarSchema::Symmetric(2, 4, 2).value());
  const auto facts = RandomFacts(schema, &rng);
  const Lin hilbert(HilbertCurve::Make(schema).value());
  std::vector<CellId> order = OrderOf(*hilbert);
  std::reverse(order.begin(), order.end());
  const Lin reversed = Materialize(schema, "reversed", order);
  for (const StorageConfig& config : Configs()) {
    for (StorageBackendKind kind :
         {StorageBackendKind::kPacked, StorageBackendKind::kMicroPartition}) {
      const auto a = MakeStorageBackend(kind, hilbert, facts, config).value();
      const auto b = MakeStorageBackend(kind, reversed, facts, config).value();
      const MovementCost same = ComputeMovementCost(*a, *a).value();
      EXPECT_EQ(same.stable_prefix_cells, same.total_cells);
      EXPECT_EQ(same.moved_runs, 0u);
      EXPECT_EQ(same.pages_moved(), 0u);
      EXPECT_EQ(same.partitions_read + same.partitions_written, 0u);
      // Reversal keeps no adjacency: every non-empty cell is its own run.
      const MovementCost flip = ComputeMovementCost(*a, *b).value();
      EXPECT_EQ(flip.stable_prefix_cells, 0u);
      EXPECT_EQ(flip.moved_records, facts->total_records());
      uint64_t nonempty = 0;
      for (uint64_t r = 0; r < a->linearization().num_cells(); ++r) {
        nonempty += a->CellEmpty(r) ? 0 : 1;
      }
      EXPECT_EQ(flip.moved_runs, nonempty);
      ExpectSameCost(flip, OracleMovementCost(*a, *b), ConfigName(config));
      if (kind == StorageBackendKind::kMicroPartition) {
        // Every record moves, so every partition with data is rewritten.
        const auto* store = static_cast<const MicroPartitionStore*>(a.get());
        uint64_t with_data = 0;
        for (uint64_t p = 0; p < store->num_partitions(); ++p) {
          with_data += store->partition(p).records > 0 ? 1 : 0;
        }
        EXPECT_EQ(flip.partitions_read, with_data);
        EXPECT_EQ(flip.pages_read, a->num_pages());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One-walk partition directory vs a two-walk rebuild
// ---------------------------------------------------------------------------

/// The directory rebuilt from the packed pages by a second Walk of the
/// order, closing partitions exactly as MicroPartitionStore documents.
std::vector<MicroPartitionStore::Partition> TwoWalkDirectory(
    const MicroPartitionStore& store) {
  const Linearization& lin = store.linearization();
  const uint64_t n = lin.num_cells();
  std::vector<MicroPartitionStore::Partition> parts;
  if (n == 0) return parts;
  MicroPartitionStore::Partition open;
  lin.Walk([&](uint64_t rank, const CellCoord& coord) {
    if (store.CellEmpty(rank)) return;
    const uint64_t first = store.CellFirstPage(rank);
    if (open.records > 0 &&
        open.last_page - open.first_page + 1 >=
            store.config().micro_partition_pages &&
        first > open.last_page) {
      open.num_ranks = rank - open.first_rank;
      parts.push_back(open);
      open = MicroPartitionStore::Partition{};
      open.first_rank = rank;
    }
    const CellId id = lin.schema().Flatten(coord);
    const double lo = store.facts().measure_min(id);
    const double hi = store.facts().measure_max(id);
    if (open.records == 0) {
      open.first_page = first;
      open.zone_lo = coord;
      open.zone_hi = coord;
      open.measure_lo = lo;
      open.measure_hi = hi;
    } else {
      for (size_t d = 0; d < coord.size(); ++d) {
        open.zone_lo[d] = std::min(open.zone_lo[d], coord[d]);
        open.zone_hi[d] = std::max(open.zone_hi[d], coord[d]);
      }
      open.measure_lo = std::min(open.measure_lo, lo);
      open.measure_hi = std::max(open.measure_hi, hi);
    }
    open.last_page = store.CellLastPage(rank);
    open.records += store.CellRecords(rank);
  });
  open.num_ranks = n - open.first_rank;
  parts.push_back(open);
  return parts;
}

TEST(MicroPartitionDirectoryTest, OneWalkEqualsTwoWalkRebuild) {
  Rng rng(0xD12);
  for (int trial = 0; trial < 4; ++trial) {
    const auto schema = std::make_shared<const StarSchema>(
        trial % 2 == 0 ? StarSchema::Symmetric(2, 4, 2).value()
                       : StarSchema::Symmetric(3, 3, 2).value());
    const auto facts = RandomFacts(schema, &rng);
    std::vector<Lin> lins = EveryFamily(schema, &rng);
    for (Lin& d : Derived(schema, *lins[0], &rng)) lins.push_back(std::move(d));
    for (const StorageConfig& config : Configs()) {
      for (const Lin& lin : lins) {
        const auto store = MicroPartitionStore::Pack(lin, facts, config).value();
        const auto want = TwoWalkDirectory(store);
        const std::string ctx = ConfigName(config) + " " + lin->name();
        ASSERT_EQ(store.num_partitions(), want.size()) << ctx;
        for (uint64_t p = 0; p < want.size(); ++p) {
          const MicroPartitionStore::Partition& got = store.partition(p);
          EXPECT_EQ(got.first_rank, want[p].first_rank) << ctx;
          EXPECT_EQ(got.num_ranks, want[p].num_ranks) << ctx;
          EXPECT_EQ(got.first_page, want[p].first_page) << ctx;
          EXPECT_EQ(got.last_page, want[p].last_page) << ctx;
          EXPECT_EQ(got.records, want[p].records) << ctx;
          EXPECT_EQ(got.zone_lo, want[p].zone_lo) << ctx;
          EXPECT_EQ(got.zone_hi, want[p].zone_hi) << ctx;
          EXPECT_EQ(got.measure_lo, want[p].measure_lo) << ctx;  // bit pattern
          EXPECT_EQ(got.measure_hi, want[p].measure_hi) << ctx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snakes
