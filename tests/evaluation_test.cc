// Tests for the redesigned Advisor API: the EvaluationRequest -> registry ->
// EvaluationPlan pipeline, the parallel evaluation engine's determinism, and
// strategy-factory applicability.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/evaluation.h"
#include "core/strategy.h"
#include "cost/cost_model.h"
#include "curves/row_major.h"
#include "curves/z_curve.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/star_schema.h"
#include "lattice/workload.h"
#include "path/dpkd.h"
#include "storage/fact_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace snakes {
namespace {

std::shared_ptr<const StarSchema> SymmetricSchema(uint64_t fanout) {
  auto schema = StarSchema::Symmetric(2, 2, fanout);
  EXPECT_TRUE(schema.ok());
  return std::make_shared<StarSchema>(std::move(schema).value());
}

/// A 2-D schema with extents 4 and 8 (both powers of two, unequal).
std::shared_ptr<const StarSchema> UnequalPow2Schema() {
  auto a = Hierarchy::Uniform("a", {2, 2}, {"leaf", "mid", "all"});
  auto b = Hierarchy::Uniform("b", {2, 4}, {"leaf", "mid", "all"});
  EXPECT_TRUE(a.ok() && b.ok());
  auto schema = StarSchema::Make("t", {a.value(), b.value()});
  EXPECT_TRUE(schema.ok());
  return std::make_shared<StarSchema>(std::move(schema).value());
}

std::shared_ptr<const FactTable> DenseFacts(
    std::shared_ptr<const StarSchema> schema, uint64_t seed) {
  auto facts = std::make_shared<FactTable>(schema);
  Rng rng(seed);
  const uint64_t rows = schema->extent(0);
  const uint64_t cols = schema->extent(1);
  CellCoord coord;
  coord.resize(2);
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      coord[0] = r;
      coord[1] = c;
      const uint64_t records = rng.Below(40);
      for (uint64_t n = 0; n < records; ++n) {
        facts->AddRecord(coord, static_cast<double>(n));
      }
    }
  }
  return facts;
}

void ExpectIdenticalRecommendations(const Recommendation& a,
                                    const Recommendation& b) {
  EXPECT_EQ(a.optimal_path.steps(), b.optimal_path.steps());
  EXPECT_EQ(a.optimal_snaked_path.steps(), b.optimal_snaked_path.steps());
  EXPECT_EQ(a.optimal_path_cost, b.optimal_path_cost);
  EXPECT_EQ(a.snaked_optimal_cost, b.snaked_optimal_cost);
  EXPECT_EQ(a.optimal_snaked_cost, b.optimal_snaked_cost);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].name, b.ranked[i].name) << "rank " << i;
    // Bit-identical, not approximately equal: the engine promises the same
    // arithmetic per candidate at every thread count.
    EXPECT_EQ(a.ranked[i].expected_cost, b.ranked[i].expected_cost)
        << a.ranked[i].name;
    ASSERT_EQ(a.ranked[i].io.has_value(), b.ranked[i].io.has_value());
    if (a.ranked[i].io.has_value()) {
      EXPECT_EQ(a.ranked[i].io->expected_seeks, b.ranked[i].io->expected_seeks);
      EXPECT_EQ(a.ranked[i].io->expected_normalized_blocks,
                b.ranked[i].io->expected_normalized_blocks);
      EXPECT_EQ(a.ranked[i].io->expected_pages, b.ranked[i].io->expected_pages);
    }
  }
}

TEST(EvaluationTest, ParallelAdviseIsReportForReportIdenticalToSerial) {
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  const QueryClassLattice lattice = advisor.Lattice();
  Rng rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    const Workload mu = Workload::Random(lattice, &rng);
    EvaluationRequest serial(mu);
    serial.num_threads = 1;
    EvaluationRequest parallel(mu);
    parallel.num_threads = 4;
    const auto serial_rec = advisor.Advise(serial);
    const auto parallel_rec = advisor.Advise(parallel);
    ASSERT_TRUE(serial_rec.ok());
    ASSERT_TRUE(parallel_rec.ok());
    ExpectIdenticalRecommendations(serial_rec.value(), parallel_rec.value());
  }
}

TEST(EvaluationTest, ParallelAdviseWithStorageMeasurementIsDeterministic) {
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  const Workload mu = Workload::Uniform(advisor.Lattice());
  auto facts = DenseFacts(schema, 99);

  EvaluationRequest serial(mu);
  serial.num_threads = 1;
  serial.measure_storage = true;
  serial.storage.page_size_bytes = 512;
  serial.facts = facts;
  EvaluationRequest parallel(mu);
  parallel.num_threads = 4;
  parallel.measure_storage = true;
  parallel.storage.page_size_bytes = 512;
  parallel.facts = facts;

  const auto serial_rec = advisor.Advise(serial);
  const auto parallel_rec = advisor.Advise(parallel);
  ASSERT_TRUE(serial_rec.ok());
  ASSERT_TRUE(parallel_rec.ok());
  ASSERT_TRUE(serial_rec.value().ranked.front().io.has_value());
  ExpectIdenticalRecommendations(serial_rec.value(), parallel_rec.value());
}

TEST(EvaluationTest, ParallelDpMatchesSerialDpExactly) {
  auto schema = StarSchema::Symmetric(3, 2, 2);
  ASSERT_TRUE(schema.ok());
  const QueryClassLattice lattice(schema.value());
  Rng rng(7);
  ThreadPool pool(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Workload mu = Workload::Random(lattice, &rng);
    const auto serial = FindOptimalLatticePath(mu);
    const auto parallel = FindOptimalLatticePath(mu, &pool);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    EXPECT_EQ(serial.value().path.steps(), parallel.value().path.steps());
    EXPECT_EQ(serial.value().cost, parallel.value().cost);
    EXPECT_EQ(serial.value().cost_table, parallel.value().cost_table);
  }
}

TEST(EvaluationTest, PlanThenEvaluateMatchesAdvise) {
  // Advise is exactly Plan + Evaluate; the split pipeline and the one-shot
  // call must produce bit-identical recommendations.
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  Rng rng(11);
  const Workload mu = Workload::Random(advisor.Lattice(), &rng);
  const auto plan = advisor.Plan(EvaluationRequest(mu));
  ASSERT_TRUE(plan.ok());
  const auto staged = advisor.Evaluate(plan.value());
  const auto one_shot = advisor.Advise(EvaluationRequest(mu));
  ASSERT_TRUE(staged.ok() && one_shot.ok());
  ExpectIdenticalRecommendations(staged.value(), one_shot.value());
}

TEST(EvaluationTest, NonPowerOfTwoExtentsRejectCurvesExactlyAsBefore) {
  auto schema = SymmetricSchema(3);  // extents 9x9
  const StrategyRegistry& registry = StrategyRegistry::BuiltIns();
  for (const std::string name : {"z-curve", "gray-curve", "hilbert"}) {
    const StrategyFactory* factory = registry.Find(name);
    ASSERT_NE(factory, nullptr) << name;
    const Status applicable = factory->Applicable(*schema);
    EXPECT_FALSE(applicable.ok()) << name;
    EXPECT_EQ(applicable.code(), StatusCode::kInvalidArgument) << name;
  }
  // The factory verdict is the curve constructor's own, not a re-derivation.
  EXPECT_EQ(registry.Find("z-curve")->Applicable(*schema),
            ZCurve::Make(schema).status());
  EXPECT_EQ(registry.Find("gray-curve")->Applicable(*schema),
            GrayCurve::Make(schema).status());

  // Planning still succeeds; the curves land in `skipped` with their reason.
  const ClusteringAdvisor advisor(schema);
  const auto plan =
      advisor.Plan(EvaluationRequest(Workload::Uniform(advisor.Lattice())));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->skipped.size(), 3u);
  EXPECT_EQ(plan->skipped[0].factory, "z-curve");
  EXPECT_EQ(plan->skipped[1].factory, "gray-curve");
  EXPECT_EQ(plan->skipped[2].factory, "hilbert");
  for (const SkippedStrategy& s : plan->skipped) {
    EXPECT_FALSE(s.reason.ok());
  }
  for (const PlannedStrategy& s : plan->strategies) {
    EXPECT_TRUE(s.factory == "lattice-paths" || s.factory == "row-major")
        << s.factory;
  }
}

TEST(EvaluationTest, UnequalPowerOfTwoExtentsRejectOnlyHilbert) {
  auto schema = UnequalPow2Schema();
  const StrategyRegistry& registry = StrategyRegistry::BuiltIns();
  EXPECT_TRUE(registry.Find("z-curve")->Applicable(*schema).ok());
  EXPECT_TRUE(registry.Find("gray-curve")->Applicable(*schema).ok());
  EXPECT_FALSE(registry.Find("hilbert")->Applicable(*schema).ok());

  const ClusteringAdvisor advisor(schema);
  const auto plan =
      advisor.Plan(EvaluationRequest(Workload::Uniform(advisor.Lattice())));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->skipped.size(), 1u);
  EXPECT_EQ(plan->skipped[0].factory, "hilbert");
}

TEST(EvaluationTest, UnknownStrategyFamilyFailsFast) {
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request(Workload::Uniform(advisor.Lattice()));
  request.strategies = {"lattice-paths", "bogus"};
  const auto plan = advisor.Plan(request);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("unknown strategy family 'bogus'"),
            std::string::npos)
      << plan.status().ToString();
}

TEST(EvaluationTest, RestrictedRequestCanYieldEmptyRanking) {
  auto schema = SymmetricSchema(3);  // curves inapplicable
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request(Workload::Uniform(advisor.Lattice()));
  request.strategies = {"hilbert"};
  const auto rec = advisor.Advise(request);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->ranked.empty());
  EXPECT_FALSE(rec->has_best());
  EXPECT_NE(rec->ToString().find("no strategy evaluated"), std::string::npos);
}

TEST(EvaluationDeathTest, BestOnEmptyRankingAbortsWithClearMessage) {
  auto schema = SymmetricSchema(3);
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request(Workload::Uniform(advisor.Lattice()));
  request.strategies = {"hilbert"};
  const auto rec = advisor.Advise(request);
  ASSERT_TRUE(rec.ok());
  EXPECT_DEATH(rec->best(), "no strategy was evaluated");
}

TEST(EvaluationTest, CostModelPricesExpectedMsOnlyAtTheEdge) {
  // The default (no request.cost_model) prices the seek surrogate with the
  // seed's disk-model seek time; swapping the model repriced expected_ms but
  // leaves expected_cost — the ranking key — bit-identical.
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  const Workload mu = Workload::Uniform(advisor.Lattice());

  EvaluationRequest plain(mu);
  plain.num_threads = 1;
  const Recommendation by_default = advisor.Advise(plain).value();
  ASSERT_FALSE(by_default.ranked.empty());
  for (const StrategyReport& report : by_default.ranked) {
    EXPECT_EQ(report.expected_ms,
              report.expected_cost * DefaultCostModel()->SeekMs())
        << report.name;
  }

  EvaluationRequest priced(mu);
  priced.num_threads = 1;
  priced.cost_model = MakeCostModel(CostModelKind::kSsd).value();
  const Recommendation by_ssd = advisor.Advise(priced).value();
  ASSERT_EQ(by_ssd.ranked.size(), by_default.ranked.size());
  for (size_t i = 0; i < by_ssd.ranked.size(); ++i) {
    EXPECT_EQ(by_ssd.ranked[i].name, by_default.ranked[i].name);
    EXPECT_EQ(by_ssd.ranked[i].expected_cost,
              by_default.ranked[i].expected_cost);
    EXPECT_EQ(by_ssd.ranked[i].expected_ms,
              by_ssd.ranked[i].expected_cost * priced.cost_model->SeekMs());
  }

  // With storage measured, the model prices the measured I/O instead.
  EvaluationRequest measured(mu);
  measured.num_threads = 1;
  measured.measure_storage = true;
  measured.facts = DenseFacts(schema, 5);
  measured.cost_model = MakeCostModel(CostModelKind::kHdd).value();
  const Recommendation by_io = advisor.Advise(measured).value();
  for (const StrategyReport& report : by_io.ranked) {
    ASSERT_TRUE(report.io.has_value()) << report.name;
    EXPECT_EQ(report.expected_ms,
              measured.cost_model->ExpectedMs(
                  *report.io, measured.storage.page_size_bytes))
        << report.name;
  }
}

TEST(EvaluationTest, MeasureStorageWithoutFactsFails) {
  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request(Workload::Uniform(advisor.Lattice()));
  request.measure_storage = true;
  const auto plan = advisor.Plan(request);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("fact table"), std::string::npos);
}

TEST(EvaluationTest, MismatchedWorkloadLatticeFails) {
  const ClusteringAdvisor advisor(SymmetricSchema(2));
  const QueryClassLattice other(*SymmetricSchema(3));
  const auto plan = advisor.Plan(EvaluationRequest(Workload::Uniform(other)));
  EXPECT_FALSE(plan.ok());
}

TEST(EvaluationTest, PlanToStringListsCandidatesAndSkips) {
  auto schema = SymmetricSchema(3);
  const ClusteringAdvisor advisor(schema);
  const auto plan =
      advisor.Plan(EvaluationRequest(Workload::Uniform(advisor.Lattice())));
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("evaluate [lattice-paths]"), std::string::npos) << text;
  EXPECT_NE(text.find("skip     [hilbert]"), std::string::npos) << text;
}

/// New families plug in through the registry without advisor changes.
class ReverseRowMajorFactory : public StrategyFactory {
 public:
  std::string name() const override { return "reverse-row-major"; }
  Status Applicable(const StarSchema&) const override { return Status::OK(); }
  Result<std::vector<std::shared_ptr<const Linearization>>> Build(
      const StrategyContext& ctx) const override {
    SNAKES_ASSIGN_OR_RETURN(auto rm,
                            RowMajorOrder::Make(ctx.schema, {1, 0}));
    return std::vector<std::shared_ptr<const Linearization>>{std::move(rm)};
  }
};

TEST(EvaluationTest, CustomFactoryPlugsInThroughRegistry) {
  StrategyRegistry registry;
  ASSERT_TRUE(registry.Register(MakeLatticePathStrategyFactory()).ok());
  ASSERT_TRUE(
      registry.Register(std::make_shared<ReverseRowMajorFactory>()).ok());
  // Duplicate names are rejected.
  EXPECT_FALSE(
      registry.Register(std::make_shared<ReverseRowMajorFactory>()).ok());

  auto schema = SymmetricSchema(2);
  const ClusteringAdvisor advisor(schema);
  EvaluationRequest request(Workload::Uniform(advisor.Lattice()));
  request.registry = &registry;
  const auto rec = advisor.Advise(request);
  ASSERT_TRUE(rec.ok());
  bool found = false;
  for (const StrategyReport& report : rec->ranked) {
    found |= report.name.rfind("row-major", 0) == 0;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace snakes
