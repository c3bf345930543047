#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/workload_cost.h"
#include "curves/row_major.h"
#include "hierarchy/star_schema.h"
#include "lattice/workload.h"
#include "lattice/workload_delta.h"
#include "obs/metrics.h"
#include "path/dp_cache.h"
#include "path/dpkd.h"
#include "path/snaked_dp.h"
#include "recluster/engine.h"
#include "recluster/movement.h"
#include "storage/fact_table.h"
#include "storage/pager.h"
#include "tpcd/schema.h"
#include "tpcd/workloads.h"
#include "util/rng.h"

namespace snakes {
namespace {

std::shared_ptr<const StarSchema> SmallSchema() {
  auto a = Hierarchy::Uniform("a", {2, 2}).value();
  auto b = Hierarchy::Uniform("b", {2, 2}).value();
  return std::make_shared<StarSchema>(StarSchema::Make("s", {a, b}).value());
}

CellCoord At(uint64_t x, uint64_t y) {
  CellCoord c;
  c.resize(2);
  c[0] = x;
  c[1] = y;
  return c;
}

/// Every cell holds `per_cell` records.
std::shared_ptr<const FactTable> DenseFacts(
    const std::shared_ptr<const StarSchema>& schema, uint64_t per_cell) {
  auto facts = std::make_shared<FactTable>(schema);
  for (uint64_t x = 0; x < 4; ++x) {
    for (uint64_t y = 0; y < 4; ++y) {
      for (uint64_t r = 0; r < per_cell; ++r) {
        facts->AddRecord(At(x, y), 1.0);
      }
    }
  }
  return facts;
}

bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// ---------------------------------------------------------------------------
// Workload fingerprint / delta / drift estimators
// ---------------------------------------------------------------------------

TEST(WorkloadFingerprintTest, DistinguishesWorkloadsAndIsStable) {
  const QueryClassLattice lat(*SmallSchema());
  const Workload uniform = Workload::Uniform(lat);
  const Workload point = Workload::Point(lat, QueryClass{0, 2}).value();
  EXPECT_EQ(WorkloadFingerprint(uniform), WorkloadFingerprint(uniform));
  EXPECT_NE(WorkloadFingerprint(uniform), WorkloadFingerprint(point));
}

TEST(WorkloadFingerprintTest, SameProbabilitiesIsExact) {
  const QueryClassLattice lat(*SmallSchema());
  const Workload uniform = Workload::Uniform(lat);
  EXPECT_TRUE(SameProbabilities(uniform, Workload::Uniform(lat)));
  std::vector<double> p(lat.size(), 1.0 / static_cast<double>(lat.size()));
  p[0] += 1e-15;
  p[1] -= 1e-15;
  const Workload nudged = Workload::FromDense(lat, p, true).value();
  EXPECT_FALSE(SameProbabilities(uniform, nudged));
}

TEST(WorkloadDeltaTest, NormsAndChangedClasses) {
  const QueryClassLattice lat(*SmallSchema());
  const Workload from = Workload::Point(lat, QueryClass{0, 0}).value();
  const Workload to = Workload::Point(lat, QueryClass{2, 2}).value();
  const WorkloadDelta delta = WorkloadDelta::Between(from, to).value();
  EXPECT_DOUBLE_EQ(delta.l1(), 2.0);
  EXPECT_DOUBLE_EQ(delta.total_variation(), 1.0);
  EXPECT_DOUBLE_EQ(delta.linf(), 1.0);
  EXPECT_EQ(delta.NumChanged(0.5), 2u);
  const std::vector<uint64_t> changed = delta.ChangedClasses(0.5);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], lat.Index(QueryClass{0, 0}));
  EXPECT_EQ(changed[1], lat.Index(QueryClass{2, 2}));
  // Zero drift: every norm zero.
  const WorkloadDelta none = WorkloadDelta::Between(from, from).value();
  EXPECT_DOUBLE_EQ(none.l1(), 0.0);
  EXPECT_EQ(none.NumChanged(0.0), 0u);
}

TEST(WorkloadDeltaTest, RejectsMismatchedLattices) {
  const QueryClassLattice small(*SmallSchema());
  auto c = Hierarchy::Uniform("c", {2}).value();
  auto d = Hierarchy::Uniform("d", {2}).value();
  const QueryClassLattice other(
      StarSchema::Make("t", {c, d}).value());
  EXPECT_FALSE(WorkloadDelta::Between(Workload::Uniform(small),
                                      Workload::Uniform(other))
                   .ok());
}

TEST(EwmaDriftEstimatorTest, FirstEpochSeedsWithZeroDrift) {
  const QueryClassLattice lat(*SmallSchema());
  EwmaDriftEstimator est(lat, 0.5);
  const Workload point = Workload::Point(lat, QueryClass{1, 1}).value();
  ASSERT_TRUE(est.Observe(point).ok());
  EXPECT_EQ(est.epochs(), 1u);
  EXPECT_DOUBLE_EQ(est.LastDrift(), 0.0);
  EXPECT_TRUE(SameProbabilities(est.Smoothed(), point));
}

TEST(EwmaDriftEstimatorTest, BlendsAndMeasuresDrift) {
  const QueryClassLattice lat(*SmallSchema());
  EwmaDriftEstimator est(lat, 0.5);
  const Workload a = Workload::Point(lat, QueryClass{0, 0}).value();
  const Workload b = Workload::Point(lat, QueryClass{2, 2}).value();
  ASSERT_TRUE(est.Observe(a).ok());
  ASSERT_TRUE(est.Observe(b).ok());
  // Drift is measured against the pre-update estimate (= a): TV(a, b) = 1.
  EXPECT_DOUBLE_EQ(est.LastDrift(), 1.0);
  const Workload smoothed = est.Smoothed();
  EXPECT_DOUBLE_EQ(smoothed.probability_at(lat.Index(QueryClass{0, 0})), 0.5);
  EXPECT_DOUBLE_EQ(smoothed.probability_at(lat.Index(QueryClass{2, 2})), 0.5);
}

TEST(WindowDriftEstimatorTest, AveragesTheWindow) {
  const QueryClassLattice lat(*SmallSchema());
  WindowDriftEstimator est(lat, 2);
  const Workload a = Workload::Point(lat, QueryClass{0, 0}).value();
  const Workload b = Workload::Point(lat, QueryClass{2, 2}).value();
  ASSERT_TRUE(est.Observe(a).ok());
  EXPECT_DOUBLE_EQ(est.LastDrift(), 0.0);
  ASSERT_TRUE(est.Observe(b).ok());
  EXPECT_DOUBLE_EQ(est.LastDrift(), 1.0);  // window held {a}, epoch = b
  const Workload smoothed = est.Smoothed();  // average of {a, b}
  EXPECT_DOUBLE_EQ(smoothed.probability_at(lat.Index(QueryClass{0, 0})), 0.5);
  EXPECT_DOUBLE_EQ(smoothed.probability_at(lat.Index(QueryClass{2, 2})), 0.5);
  // A third epoch evicts a: window {b, b}, drift vs b's average.
  ASSERT_TRUE(est.Observe(b).ok());
  EXPECT_DOUBLE_EQ(est.LastDrift(), 0.5);
}

TEST(DriftEstimatorTest, RejectsWrongLattice) {
  const QueryClassLattice lat(*SmallSchema());
  auto c = Hierarchy::Uniform("c", {2}).value();
  auto d = Hierarchy::Uniform("d", {2}).value();
  const QueryClassLattice other(StarSchema::Make("t", {c, d}).value());
  EwmaDriftEstimator ewma(lat, 0.5);
  EXPECT_FALSE(ewma.Observe(Workload::Uniform(other)).ok());
  WindowDriftEstimator window(lat, 3);
  EXPECT_FALSE(window.Observe(Workload::Uniform(other)).ok());
}

// ---------------------------------------------------------------------------
// ClassCostCache
// ---------------------------------------------------------------------------

TEST(ClassCostCacheTest, CachedMatchesUncachedBitwise) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  auto lin = RowMajorOrder::Make(schema, {0, 1}).value();
  Rng rng(7);
  ClassCostCache cache;
  for (int trial = 0; trial < 10; ++trial) {
    const Workload mu = Workload::Random(lat, &rng);
    const double uncached = MeasureExpectedCost(mu, *lin);
    const double cached = MeasureExpectedCostCached(mu, *lin, &cache);
    EXPECT_TRUE(SameBits(uncached, cached)) << "trial " << trial;
  }
}

TEST(ClassCostCacheTest, CountsMissesThenHits) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  auto lin = RowMajorOrder::Make(schema, {0, 1}).value();
  const Workload uniform = Workload::Uniform(lat);
  ClassCostCache cache;
  MeasureExpectedCostCached(uniform, *lin, &cache);
  const ClassCostCache::Stats first = cache.stats();
  EXPECT_EQ(first.misses, lat.size());
  EXPECT_EQ(first.hits, 0u);
  MeasureExpectedCostCached(uniform, *lin, &cache);
  const ClassCostCache::Stats second = cache.stats();
  EXPECT_EQ(second.misses, lat.size());
  EXPECT_EQ(second.hits, lat.size());
  EXPECT_EQ(cache.NumStrategies(), 1u);
}

TEST(ClassCostCacheTest, OnlyNewClassesMissAcrossWorkloads) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  auto lin = RowMajorOrder::Make(schema, {0, 1}).value();
  ClassCostCache cache;
  const Workload a = Workload::Point(lat, QueryClass{0, 0}).value();
  MeasureExpectedCostCached(a, *lin, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Same class again: pure hit. New class: exactly one more miss.
  MeasureExpectedCostCached(a, *lin, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  const Workload b =
      Workload::UniformOver(lat, {QueryClass{0, 0}, QueryClass{1, 1}}).value();
  MeasureExpectedCostCached(b, *lin, &cache);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ClassCostCacheTest, EdgeWalkFillIsBitIdenticalToo) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  auto lin = RowMajorOrder::Make(schema, {1, 0}).value();
  Rng rng(11);
  // A random workload weights every class, the leaf included: the uncached
  // evaluation takes one edge walk, and so does the materialized copy's
  // cached fill.
  const Workload mu = Workload::Random(lat, &rng);
  const Workload point = Workload::Point(lat, QueryClass{2, 2}).value();
  // The fill equals the edge-walk oracle bit for bit, cached or not, on a
  // closed-form strategy and on a materialized copy of it.
  const std::unique_ptr<const Linearization> materialized =
      MaterializedLinearization::From(*lin);
  const std::vector<const Linearization*> strategies{lin.get(),
                                                     materialized.get()};
  for (const Linearization* strategy : strategies) {
    const ClassCostTable oracle = MeasureClassCosts(*strategy);
    ClassCostCache cache;
    EXPECT_TRUE(SameBits(MeasureExpectedCostCached(mu, *strategy, &cache),
                         ExpectedCost(mu, oracle)))
        << strategy->name();
    EXPECT_TRUE(SameBits(MeasureExpectedCost(mu, *strategy),
                         ExpectedCost(mu, oracle)))
        << strategy->name();
    // Every class is cached now; a maximally different workload afterwards
    // is all hits.
    const ClassCostCache::Stats before = cache.stats();
    EXPECT_TRUE(SameBits(MeasureExpectedCostCached(point, *strategy, &cache),
                         ExpectedCost(point, oracle)))
        << strategy->name();
    EXPECT_EQ(cache.stats().misses, before.misses) << strategy->name();
    EXPECT_TRUE(SameBits(MeasureExpectedCost(point, *strategy),
                         ExpectedCost(point, oracle)))
        << strategy->name();
  }
}

TEST(ClassCostCacheTest, SharedTableFillsEachClassOnceAcrossThreads) {
  // Two consumers of one table (a service tenant's advise verb and its
  // recluster engine) cost the same strategy at the same time: the
  // strategy's fill lock lets one fill while the other waits and then hits.
  auto a = Hierarchy::Uniform("a", {4, 4, 4}).value();
  auto b = Hierarchy::Uniform("b", {2, 8, 2}).value();
  auto schema =
      std::make_shared<StarSchema>(StarSchema::Make("s", {a, b}).value());
  const QueryClassLattice lat(*schema);
  auto lin = RowMajorOrder::Make(schema, {1, 0}).value();
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    const Workload mu = Workload::Random(lat, &rng);
    uint64_t nonzero = 0;
    for (uint64_t i = 0; i < lat.size(); ++i) {
      nonzero += mu.probability_at(i) != 0.0 ? 1 : 0;
    }
    const double expected = MeasureExpectedCost(mu, *lin);
    ClassCostCache first;
    ClassCostCache second;
    second.ShareTable(first);
    double second_cost = 0.0;
    std::thread other(
        [&] { second_cost = MeasureExpectedCostCached(mu, *lin, &second); });
    const double first_cost = MeasureExpectedCostCached(mu, *lin, &first);
    other.join();
    EXPECT_TRUE(SameBits(first_cost, expected)) << "trial " << trial;
    EXPECT_TRUE(SameBits(second_cost, expected)) << "trial " << trial;
    EXPECT_EQ(first.stats().hits + first.stats().misses, nonzero);
    EXPECT_EQ(second.stats().hits + second.stats().misses, nonzero);
    EXPECT_EQ(first.stats().misses + second.stats().misses, nonzero);
    EXPECT_EQ(first.NumStrategies(), 1u);
    EXPECT_EQ(second.NumStrategies(), 1u);
  }
}

// ---------------------------------------------------------------------------
// DpCache
// ---------------------------------------------------------------------------

TEST(DpCacheTest, HitsOnIdenticalWorkloadOnly) {
  const QueryClassLattice lat(*SmallSchema());
  DpCache cache;
  const Workload uniform = Workload::Uniform(lat);
  const auto first = cache.OptimalPath(uniform).value();
  EXPECT_EQ(cache.stats().misses, 1u);
  const auto again = cache.OptimalPath(uniform).value();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(again.path == first.path);
  EXPECT_TRUE(SameBits(again.cost, first.cost));
  const Workload point = Workload::Point(lat, QueryClass{0, 2}).value();
  cache.OptimalPath(point).value();
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DpCacheTest, MatchesDirectSolversBitwise) {
  const QueryClassLattice lat(*SmallSchema());
  Rng rng(23);
  DpCache cache;
  for (int trial = 0; trial < 5; ++trial) {
    const Workload mu = Workload::Random(lat, &rng);
    const auto direct = FindOptimalLatticePath(mu).value();
    const auto cached = cache.OptimalPath(mu).value();
    EXPECT_TRUE(direct.path == cached.path);
    EXPECT_TRUE(SameBits(direct.cost, cached.cost));
    const auto direct_snaked = FindOptimalSnakedLatticePath(mu).value();
    const auto cached_snaked = cache.OptimalSnakedPath(mu).value();
    EXPECT_TRUE(direct_snaked.path == cached_snaked.path);
    EXPECT_TRUE(SameBits(direct_snaked.cost, cached_snaked.cost));
  }
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Movement cost
// ---------------------------------------------------------------------------

TEST(MovementTest, IdenticalLayoutsMoveNothing) {
  auto schema = SmallSchema();
  auto facts = DenseFacts(schema, 3);
  const StorageConfig storage{256, 125};  // 2 records per page
  std::shared_ptr<const Linearization> lin(
      RowMajorOrder::Make(schema, {0, 1}).value());
  const auto layout = PackedLayout::Pack(lin, facts, storage).value();
  const auto other = PackedLayout::Pack(lin, facts, storage).value();
  const MovementCost cost = ComputeMovementCost(layout, other).value();
  EXPECT_EQ(cost.stable_prefix_cells, schema->num_cells());
  EXPECT_EQ(cost.moved_runs, 0u);
  EXPECT_EQ(cost.moved_records, 0u);
  EXPECT_EQ(cost.pages_moved(), 0u);
}

TEST(MovementTest, TransposedLayoutMovesEverythingAfterRankZero) {
  auto schema = SmallSchema();
  auto facts = DenseFacts(schema, 3);
  const StorageConfig storage{256, 125};
  std::shared_ptr<const Linearization> ab(
      RowMajorOrder::Make(schema, {0, 1}).value());
  std::shared_ptr<const Linearization> ba(
      RowMajorOrder::Make(schema, {1, 0}).value());
  const auto cur = PackedLayout::Pack(ab, facts, storage).value();
  const auto prop = PackedLayout::Pack(ba, facts, storage).value();
  const MovementCost cost = ComputeMovementCost(cur, prop).value();
  // The transpose fixes only cell (0,0) at rank 0; every other cell moves.
  EXPECT_EQ(cost.total_cells, 16u);
  EXPECT_EQ(cost.stable_prefix_cells, 1u);
  EXPECT_EQ(cost.moved_records, 45u);
  EXPECT_GT(cost.moved_runs, 1u);
  EXPECT_GT(cost.pages_read, 0u);
  EXPECT_GT(cost.pages_written, 0u);
  EXPECT_EQ(cost.pages_moved(), cost.pages_read + cost.pages_written);
}

TEST(MovementTest, StablePrefixIsNotCharged) {
  auto schema = SmallSchema();
  auto facts = DenseFacts(schema, 2);
  const StorageConfig storage{256, 125};
  std::shared_ptr<const Linearization> ab(
      RowMajorOrder::Make(schema, {0, 1}).value());
  // Proposed = current with only the last two ranks swapped: the stable
  // prefix covers 14 cells and the tail is two single-cell runs.
  std::vector<CellId> order(16);
  for (uint64_t r = 0; r < 16; ++r) {
    order[r] = schema->Flatten(ab->CellAt(r));
  }
  std::swap(order[14], order[15]);
  std::shared_ptr<const Linearization> swapped(
      MaterializedLinearization::Make(schema, "swapped", order)
          .value()
          .release());
  const auto cur = PackedLayout::Pack(ab, facts, storage).value();
  const auto prop = PackedLayout::Pack(swapped, facts, storage).value();
  const MovementCost cost = ComputeMovementCost(cur, prop).value();
  EXPECT_EQ(cost.stable_prefix_cells, 14u);
  EXPECT_EQ(cost.moved_runs, 2u);
  EXPECT_EQ(cost.moved_records, 4u);
}

TEST(MovementTest, RejectsMismatchedLayouts) {
  auto schema = SmallSchema();
  auto facts = DenseFacts(schema, 1);
  auto c = Hierarchy::Uniform("c", {2}).value();
  auto d = Hierarchy::Uniform("d", {2}).value();
  auto other_schema = std::make_shared<StarSchema>(
      StarSchema::Make("t", {c, d}).value());
  auto other_facts = std::make_shared<FactTable>(other_schema);
  other_facts->AddRecord(At(1, 1), 1.0);
  std::shared_ptr<const Linearization> lin(
      RowMajorOrder::Make(schema, {0, 1}).value());
  std::shared_ptr<const Linearization> other_lin(
      RowMajorOrder::Make(other_schema, {0, 1}).value());
  const auto layout = PackedLayout::Pack(lin, facts, {}).value();
  const auto other =
      PackedLayout::Pack(other_lin,
                         std::shared_ptr<const FactTable>(other_facts), {})
          .value();
  EXPECT_FALSE(ComputeMovementCost(layout, other).ok());
}

// ---------------------------------------------------------------------------
// AdviseIncremental
// ---------------------------------------------------------------------------

TEST(AdviseIncrementalTest, BitIdenticalToColdAdvise) {
  auto schema = SmallSchema();
  const ClusteringAdvisor advisor(schema);
  const QueryClassLattice lat(*schema);
  Rng rng(31);
  IncrementalAdvisorState state;
  for (int trial = 0; trial < 5; ++trial) {
    const Workload mu = Workload::Random(lat, &rng);
    EvaluationRequest request{mu};
    request.num_threads = 1;
    const Recommendation cold = advisor.Advise(request).value();
    const Recommendation warm =
        advisor.AdviseIncremental(request, &state).value();
    EXPECT_TRUE(BitIdenticalRecommendations(cold, warm)) << "trial " << trial;
  }
}

TEST(AdviseIncrementalTest, ZeroDriftReAdviseEvaluatesNothing) {
  auto schema = SmallSchema();
  const ClusteringAdvisor advisor(schema);
  const Workload mu = Workload::Uniform(QueryClassLattice(*schema));
  EvaluationRequest request{mu};
  request.num_threads = 1;
  IncrementalAdvisorState state;
  const Recommendation first =
      advisor.AdviseIncremental(request, &state).value();
  EXPECT_GT(state.last_cost_evaluations, 0u);
  EXPECT_EQ(state.last_dp_misses, 2u);
  const Recommendation second =
      advisor.AdviseIncremental(request, &state).value();
  EXPECT_EQ(state.last_cost_evaluations, 0u);
  EXPECT_GT(state.last_cost_hits, 0u);
  EXPECT_EQ(state.last_dp_hits, 2u);
  EXPECT_EQ(state.advises, 2u);
  EXPECT_TRUE(BitIdenticalRecommendations(first, second));
}

TEST(AdviseIncrementalTest, TpcdDriftIsServedEntirelyFromTheMemo) {
  // Section-6 workload 7 on the paper's 200 x 10 x 84 grid, then 10% of the
  // mass moved toward workload 21. Per-class costs are workload-independent
  // integers, so the warm re-advise evaluates no class and still matches a
  // from-scratch Advise bit for bit.
  const auto schema = tpcd::BuildSharedSchema(tpcd::Config()).value();
  const QueryClassLattice lat(*schema);
  const ClusteringAdvisor advisor(schema);
  const Workload base = tpcd::SectionSixWorkload(lat, 7).value();
  const Workload target = tpcd::SectionSixWorkload(lat, 21).value();
  std::vector<double> p(base.size());
  for (uint64_t i = 0; i < base.size(); ++i) {
    p[i] = 0.9 * base.probability_at(i) + 0.1 * target.probability_at(i);
  }
  const Workload drifted =
      Workload::FromDense(lat, std::move(p), /*normalize=*/true).value();
  const double tv =
      WorkloadDelta::Between(base, drifted).value().total_variation();
  EXPECT_LE(tv, 0.1);
  EXPECT_NEAR(tv, 0.0776, 5e-5);

  IncrementalAdvisorState state;
  ASSERT_TRUE(advisor.AdviseIncremental(EvaluationRequest{base}, &state).ok());
  EXPECT_EQ(state.last_cost_evaluations, 144u);
  const Recommendation warm =
      advisor.AdviseIncremental(EvaluationRequest{drifted}, &state).value();
  EXPECT_EQ(state.last_cost_evaluations, 0u);
  EXPECT_EQ(state.last_cost_hits, 144u);
  EXPECT_TRUE(BitIdenticalRecommendations(
      warm, advisor.Advise(EvaluationRequest{drifted}).value()));
}

TEST(AdviseIncrementalTest, ReportsCarryTheLinearization) {
  auto schema = SmallSchema();
  const ClusteringAdvisor advisor(schema);
  const Workload mu = Workload::Uniform(QueryClassLattice(*schema));
  EvaluationRequest request{mu};
  request.num_threads = 1;
  IncrementalAdvisorState state;
  const Recommendation rec =
      advisor.AdviseIncremental(request, &state).value();
  ASSERT_TRUE(rec.has_best());
  ASSERT_NE(rec.best().linearization, nullptr);
  EXPECT_EQ(rec.best().linearization->name(), rec.best().name);
}

// ---------------------------------------------------------------------------
// ReclusterEngine
// ---------------------------------------------------------------------------

ReclusterConfig RowMajorConfig() {
  ReclusterConfig config;
  config.ewma_alpha = 1.0;  // estimate tracks the epoch exactly
  config.strategies = {"row-major"};
  config.num_threads = 1;
  config.storage = StorageConfig{256, 125};
  return config;
}

// Point mass on "aggregate all of b, drill into a": row-major(a,b) reads one
// contiguous run per query. The mirrored class prefers row-major(b,a).
Workload PreferAB(const QueryClassLattice& lat) {
  return Workload::Point(lat, QueryClass{0, 2}).value();
}
Workload PreferBA(const QueryClassLattice& lat) {
  return Workload::Point(lat, QueryClass{2, 0}).value();
}

TEST(ReclusterEngineTest, FirstEpochAdoptsUnconditionally) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, DenseFacts(schema, 3), RowMajorConfig());
  EXPECT_EQ(engine.current(), nullptr);
  const EpochReport report = engine.OnEpoch(PreferAB(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kInitialAdopt);
  ASSERT_NE(engine.current(), nullptr);
  EXPECT_EQ(engine.current()->name(), report.proposed_strategy);
  EXPECT_NE(engine.current_backend(), nullptr);
  EXPECT_EQ(engine.adoptions(), 1u);
  EXPECT_GT(report.cost_evaluations, 0u);
  ASSERT_TRUE(report.recommendation.has_value());
}

TEST(ReclusterEngineTest, QuietEpochSkipsTheAdvisor) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.readvise_drift_threshold = 0.5;
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport quiet = engine.OnEpoch(PreferAB(lat)).value();
  EXPECT_EQ(quiet.decision, ReclusterDecision::kKeepDriftBelowThreshold);
  EXPECT_EQ(quiet.cost_evaluations, 0u);
  EXPECT_EQ(quiet.drift, 0.0);
  EXPECT_FALSE(quiet.recommendation.has_value());
  EXPECT_EQ(engine.state().advises, 1u);  // no second advise happened
}

TEST(ReclusterEngineTest, UnchangedWorkloadKeepsAlreadyOptimal) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, DenseFacts(schema, 3), RowMajorConfig());
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport repeat = engine.OnEpoch(PreferAB(lat)).value();
  EXPECT_EQ(repeat.decision, ReclusterDecision::kKeepAlreadyOptimal);
  // Everything came from the memos: no class re-costed, both DPs cached.
  EXPECT_EQ(repeat.cost_evaluations, 0u);
  EXPECT_EQ(engine.state().last_dp_hits, 2u);
  EXPECT_EQ(engine.adoptions(), 1u);
}

TEST(ReclusterEngineTest, AdoptsWhenDriftFlipsTheOptimum) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, DenseFacts(schema, 3), RowMajorConfig());
  engine.OnEpoch(PreferAB(lat)).value();
  const std::string before = engine.current()->name();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kAdopt);
  EXPECT_NE(engine.current()->name(), before);
  EXPECT_EQ(engine.adoptions(), 2u);
  EXPECT_GT(report.relative_improvement, 0.0);
  EXPECT_GT(report.net_benefit, 0.0);
  EXPECT_GT(report.movement.pages_moved(), 0u);
  // The adopted layout is the proposed one, repacked under the new order.
  EXPECT_EQ(&engine.current_backend()->linearization(),
            engine.current().get());
}

TEST(ReclusterEngineTest, EpochReportCarriesCalibratedMsSides) {
  // Both sides of the net-benefit comparison are in model milliseconds and
  // reconcile exactly: net = benefit - movement * multiplier.
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.movement_cost_per_page = 2.0;
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  ASSERT_EQ(report.decision, ReclusterDecision::kAdopt);
  EXPECT_GT(report.benefit_ms, 0.0);
  EXPECT_GT(report.movement_ms, 0.0);
  EXPECT_EQ(report.net_benefit,
            report.benefit_ms - report.movement_ms * 2.0);
  // The default model prices a saved seek at the seed's 9.5 ms.
  EXPECT_EQ(report.benefit_ms,
            (report.current_cost - report.proposed_cost) *
                DefaultCostModel()->SeekMs() * config.queries_per_epoch);
}

TEST(ReclusterEngineTest, SeekTransferRatioFlipsTheDecision) {
  // The satellite regression: the same workload shift, the same movement,
  // the same queries_per_epoch — only the cost model differs. On an hdd
  // (8 ms seeks) the saved seeks pay for the rewrite; on an ssd (0.05 ms
  // seeks, 13x the transfer rate) the same savings never do.
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  const auto hdd = MakeCostModel(CostModelKind::kHdd).value();
  const auto ssd = MakeCostModel(CostModelKind::kSsd).value();

  // Dense cells make the rewrite transfer-bound (few moved runs, thousands
  // of pages) while the benefit stays seek-bound — exactly the asymmetry
  // the two presets price apart. 4000 records/cell -> ~60k pages moved
  // across 15 runs.
  const auto facts = DenseFacts(schema, 4000);

  // Probe with each model to find its break-even queries/epoch; both
  // reports price the identical improvement and rewrite.
  auto probe = [&](std::shared_ptr<const CostModel> model) {
    ReclusterConfig config = RowMajorConfig();
    config.cost_model = std::move(model);
    ReclusterEngine engine(schema, facts, config);
    engine.OnEpoch(PreferAB(lat)).value();
    const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
    EXPECT_GT(report.benefit_ms, 0.0);
    EXPECT_GT(report.movement_ms, 0.0);
    // benefit_ms scales linearly in queries_per_epoch: break-even is where
    // one epoch's savings equal the rewrite time.
    return report.movement_ms /
           (report.benefit_ms / RowMajorConfig().queries_per_epoch);
  };
  const double breakeven_hdd = probe(hdd);
  const double breakeven_ssd = probe(ssd);
  // Seeks dominate the benefit but not the rewrite, so the ssd needs far
  // more queries per epoch before reclustering pays.
  ASSERT_GT(breakeven_ssd, 3.0 * breakeven_hdd);
  const double qpe = std::sqrt(breakeven_hdd * breakeven_ssd);

  auto run = [&](std::shared_ptr<const CostModel> model) {
    ReclusterConfig config = RowMajorConfig();
    config.cost_model = std::move(model);
    config.queries_per_epoch = qpe;
    ReclusterEngine engine(schema, facts, config);
    engine.OnEpoch(PreferAB(lat)).value();
    return engine.OnEpoch(PreferBA(lat)).value();
  };
  const EpochReport on_hdd = run(hdd);
  const EpochReport on_ssd = run(ssd);
  EXPECT_EQ(on_hdd.decision, ReclusterDecision::kAdopt);
  EXPECT_GT(on_hdd.net_benefit, 0.0);
  EXPECT_EQ(on_ssd.decision, ReclusterDecision::kKeepNegativeNetBenefit);
  EXPECT_LT(on_ssd.net_benefit, 0.0);
}

TEST(ReclusterEngineTest, SetCostModelSwapsLive) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, DenseFacts(schema, 3), RowMajorConfig());
  EXPECT_EQ(engine.cost_model().kind(), CostModelKind::kAnalytic);
  const auto ssd = MakeCostModel(CostModelKind::kSsd).value();
  engine.SetCostModel(ssd);
  EXPECT_EQ(&engine.cost_model(), ssd.get());
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_GT(report.benefit_ms, 0.0);
  EXPECT_EQ(report.benefit_ms,
            (report.current_cost - report.proposed_cost) *
                ssd->SeekMs() * RowMajorConfig().queries_per_epoch);
}

TEST(ReclusterEngineTest, HysteresisBlocksMarginalWins) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.hysteresis_min_improvement = 1.0;  // demand a 100% improvement
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kKeepBelowHysteresis);
  EXPECT_EQ(engine.adoptions(), 1u);
  EXPECT_EQ(report.movement.pages_moved(), 0u);  // never priced
}

TEST(ReclusterEngineTest, MovementBudgetBlocksBigRewrites) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.movement_budget_pages = 1;
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const std::string before = engine.current()->name();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kKeepOverBudget);
  EXPECT_GT(report.movement.pages_moved(), 1u);
  EXPECT_EQ(engine.current()->name(), before);
}

TEST(ReclusterEngineTest, CooldownBlocksBackToBackAdoptions) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.cooldown_epochs = 2;
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport blocked = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(blocked.decision, ReclusterDecision::kKeepCooldown);
  const EpochReport still_blocked = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(still_blocked.decision, ReclusterDecision::kKeepCooldown);
  const EpochReport adopted = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(adopted.decision, ReclusterDecision::kAdopt);
  EXPECT_EQ(engine.adoptions(), 2u);
}

TEST(ReclusterEngineTest, NegativeNetBenefitKeeps) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterConfig config = RowMajorConfig();
  config.queries_per_epoch = 1e-6;  // improvement can never pay for pages
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);
  engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kKeepNegativeNetBenefit);
  EXPECT_LE(report.net_benefit, 0.0);
  EXPECT_EQ(engine.adoptions(), 1u);
}

TEST(ReclusterEngineTest, AnalyticModeAdoptsWithoutMovement) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, nullptr, RowMajorConfig());
  engine.OnEpoch(PreferAB(lat)).value();
  EXPECT_EQ(engine.current_backend(), nullptr);
  const EpochReport report = engine.OnEpoch(PreferBA(lat)).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kAdopt);
  EXPECT_EQ(report.movement.pages_moved(), 0u);
  EXPECT_GT(report.net_benefit, 0.0);
}

TEST(ReclusterEngineTest, IncrementalRecomputeShrinksAcrossEpochs) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  ReclusterEngine engine(schema, nullptr, RowMajorConfig());
  const EpochReport cold = engine.OnEpoch(Workload::Uniform(lat)).value();
  // Every non-zero class of every candidate was evaluated once.
  EXPECT_EQ(cold.cost_evaluations, 2 * lat.size());
  // A drifted epoch whose support is unchanged re-costs nothing.
  Rng rng(5);
  const EpochReport warm = engine.OnEpoch(Workload::Random(lat, &rng)).value();
  EXPECT_EQ(warm.cost_evaluations, 0u);
  EXPECT_EQ(warm.cost_cache_hits, 2 * lat.size());
}

TEST(ReclusterEngineTest, EmitsObsMetricsAndReadableReports) {
  auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  MetricsRegistry metrics;
  ReclusterConfig config = RowMajorConfig();
  config.obs.metrics = &metrics;
  ReclusterEngine engine(schema, DenseFacts(schema, 3), config);

  const EpochReport first = engine.OnEpoch(PreferAB(lat)).value();
  const EpochReport flip = engine.OnEpoch(PreferBA(lat)).value();
  ASSERT_EQ(flip.decision, ReclusterDecision::kAdopt);

  EXPECT_EQ(metrics.GetCounter("recluster.epochs")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("recluster.adoptions")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("recluster.pages_moved")->value(),
            flip.movement.pages_moved());
  EXPECT_EQ(metrics.GetCounter("recluster.classes_recomputed")->value(),
            first.cost_evaluations + flip.cost_evaluations);

  // The human-readable epoch summary names the decision and the movement.
  const std::string text = flip.ToString();
  EXPECT_NE(text.find("adopt"), std::string::npos);
  EXPECT_NE(text.find(flip.proposed_strategy), std::string::npos);
  EXPECT_NE(text.find("pages"), std::string::npos);
  EXPECT_NE(text.find("class evaluations"), std::string::npos);
}

TEST(MovementCostTest, RejectsLayoutsOfDifferentFactTables) {
  auto schema = SmallSchema();
  const StorageConfig config{256, 125};
  std::shared_ptr<const Linearization> lin(
      RowMajorOrder::Make(schema, {0, 1}).value());
  const auto three =
      PackedLayout::Pack(lin, DenseFacts(schema, 3), config).value();
  const auto two =
      PackedLayout::Pack(lin, DenseFacts(schema, 2), config).value();
  const auto status = ComputeMovementCost(three, two);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.status().ToString().find("same fact table"),
            std::string::npos);
}

TEST(ReclusterDecisionTest, NamesAreStable) {
  EXPECT_STREQ(ReclusterDecisionName(ReclusterDecision::kAdopt), "adopt");
  EXPECT_STREQ(ReclusterDecisionName(ReclusterDecision::kInitialAdopt),
               "initial-adopt");
  EXPECT_STREQ(
      ReclusterDecisionName(ReclusterDecision::kKeepDriftBelowThreshold),
      "keep-drift-below-threshold");
}

}  // namespace
}  // namespace snakes
