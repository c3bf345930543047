// Tests for src/service: the multi-tenant AdvisorService daemon. Covers
// registration/validation, the bit-identical-to-the-library serving
// contract (BitIdenticalRecommendations vs a direct AdviseIncremental),
// double-buffered epoch publication with pinned readers, the batched
// Submit* surface and its shutdown semantics, the textual Dispatch surface,
// and — via tests/interleave_driver.h — schedule-independence of the final
// recommendation across >= 100 seeded interleavings of
// {ingest, advise, query, measure, pin, recluster}, serially and on real
// threads (the TSan leg of tools/check.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "cost/cost_model.h"
#include "hierarchy/dimension_table.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "lattice/workload_delta.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "storage/micro_partition.h"
#include "storage/pager.h"
#include "storage/query_engine.h"
#include "interleave_driver.h"
#include "util/result.h"
#include "util/rng.h"

namespace snakes {
namespace {

// 2-D schema, two levels per dimension, 4x4 leaf grid, 9 lattice classes —
// large enough for row-major(a,b) and row-major(b,a) to rank differently,
// small enough for hundreds of registrations per test binary.
std::shared_ptr<const StarSchema> SmallSchema() {
  auto a = Hierarchy::Uniform("a", {2, 2}).value();
  auto b = Hierarchy::Uniform("b", {2, 2}).value();
  return std::make_shared<StarSchema>(StarSchema::Make("s", {a, b}).value());
}

std::shared_ptr<const FactTable> DenseFacts(
    const std::shared_ptr<const StarSchema>& schema, uint64_t per_cell) {
  auto facts = std::make_shared<FactTable>(schema);
  CellCoord c;
  c.resize(2);
  for (uint64_t x = 0; x < 4; ++x) {
    for (uint64_t y = 0; y < 4; ++y) {
      c[0] = x;
      c[1] = y;
      for (uint64_t r = 0; r < per_cell; ++r) {
        facts->AddRecord(c, static_cast<double>(x + y));
      }
    }
  }
  return facts;
}

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.request_threads = 2;
  config.recluster_on_epoch_close = false;  // deterministic unless opted in
  config.recluster.strategies = {"row-major"};
  config.storage = StorageConfig{256, 125};
  return config;
}

bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

GridQuery MakeQuery(int l0, int l1, uint64_t b0, uint64_t b1) {
  GridQuery query;
  query.cls = QueryClass{l0, l1};
  query.block.resize(2);
  query.block[0] = b0;
  query.block[1] = b1;
  return query;
}

// Point mass on "aggregate all of b, drill into a" and its mirror — the
// pair of workloads whose optimal row-major orders differ, so moving the
// window from one to the other forces an adoption (see recluster_test).
Workload PreferAB(const QueryClassLattice& lat) {
  return Workload::Point(lat, QueryClass{0, 2}).value();
}
Workload PreferBA(const QueryClassLattice& lat) {
  return Workload::Point(lat, QueryClass{2, 0}).value();
}

/// The reference serving path: a fresh advisor + fresh incremental state on
/// the same workload the service advises on. AdviseIncremental is
/// bit-identical to a cold Advise, so a fresh state is a valid reference
/// for the service's warm memo.
Recommendation DirectAdvise(const std::shared_ptr<const StarSchema>& schema,
                            const ServiceConfig& config, const Workload& mu) {
  const ClusteringAdvisor advisor(schema);
  IncrementalAdvisorState state;
  EvaluationRequest request{mu};
  request.strategies = config.recluster.strategies;
  request.num_threads = 1;
  return advisor.AdviseIncremental(request, &state).value();
}

/// A cold library advise, with no memo at all: what every served
/// recommendation must equal bit for bit.
Recommendation ColdAdvise(const std::shared_ptr<const StarSchema>& schema,
                          const ServiceConfig& config, const Workload& mu) {
  EvaluationRequest request{mu};
  request.strategies = config.recluster.strategies;
  request.num_threads = 1;
  return ClusteringAdvisor(schema).Advise(request).value();
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

TEST(ServiceRegistrationTest, ValidatesSpecs) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());

  TenantSpec unnamed;
  unnamed.schema = schema;
  EXPECT_FALSE(service.RegisterTenant(std::move(unnamed)).ok());

  TenantSpec no_schema;
  no_schema.name = "t";
  EXPECT_FALSE(service.RegisterTenant(std::move(no_schema)).ok());

  // Facts built against a different StarSchema instance.
  auto other = SmallSchema();
  TenantSpec cross;
  cross.name = "t";
  cross.schema = schema;
  cross.facts = DenseFacts(other, 1);
  EXPECT_FALSE(service.RegisterTenant(std::move(cross)).ok());

  // An initial workload over a different lattice shape.
  auto schema3 = std::make_shared<StarSchema>(
      StarSchema::Symmetric(3, 1, 2).value());
  TenantSpec wrong_workload;
  wrong_workload.name = "t";
  wrong_workload.schema = schema;
  wrong_workload.initial_workload =
      Workload::Uniform(QueryClassLattice(*schema3));
  EXPECT_FALSE(service.RegisterTenant(std::move(wrong_workload)).ok());

  TenantSpec good;
  good.name = "t";
  good.schema = schema;
  good.facts = DenseFacts(schema, 2);
  ASSERT_TRUE(service.RegisterTenant(std::move(good)).ok());

  TenantSpec duplicate;
  duplicate.name = "t";
  duplicate.schema = schema;
  EXPECT_FALSE(service.RegisterTenant(std::move(duplicate)).ok());
  EXPECT_EQ(service.num_tenants(), 1u);
}

TEST(ServiceRegistrationTest, DuplicateNameFailsBeforeAdviseAndPack) {
  // A taken name is rejected up front: no engine epoch runs, nothing is
  // packed, published, or audited for the refused spec.
  MetricsRegistry metrics;
  ServiceConfig config = SmallConfig();
  config.obs.metrics = &metrics;
  AdvisorService service(config);
  auto schema = SmallSchema();
  TenantSpec first;
  first.name = "t";
  first.schema = schema;
  first.facts = DenseFacts(schema, 2);
  ASSERT_TRUE(service.RegisterTenant(std::move(first)).ok());
  const uint64_t published =
      metrics.Snapshot().counter("service.epochs_published");
  const uint64_t audited = service.audit_log().recorded();
  ASSERT_EQ(published, 1u);

  TenantSpec duplicate;
  duplicate.name = "t";
  duplicate.schema = schema;
  duplicate.facts = DenseFacts(schema, 2);
  const auto refused = service.RegisterTenant(std::move(duplicate));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.Snapshot().counter("service.epochs_published"),
            published);
  EXPECT_EQ(service.audit_log().recorded(), audited);
  EXPECT_EQ(service.num_tenants(), 1u);
}

TEST(ServiceRegistrationTest, PublishesEpochOneBeforeReturning) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "sales";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  spec.initial_workload = PreferAB(QueryClassLattice(*schema));
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  EXPECT_EQ(service.FindTenant("sales").value(), id);
  EXPECT_FALSE(service.FindTenant("nope").ok());

  const auto epoch = service.PinEpoch(id).value();
  EXPECT_EQ(epoch->sequence, 1u);
  ASSERT_NE(epoch->linearization, nullptr);
  ASSERT_NE(epoch->backend, nullptr);
  EXPECT_EQ(&epoch->backend->linearization(), epoch->linearization.get());

  const TenantStatus status = service.StatusOf(id).value();
  EXPECT_EQ(status.published_sequence, 1u);
  EXPECT_EQ(status.recluster_epochs, 1u);
  EXPECT_EQ(status.recluster_adoptions, 1u);
  EXPECT_FALSE(status.current_strategy.empty());
  EXPECT_NE(status.ToString().find("sales"), std::string::npos);
}

TEST(ServiceRegistrationTest, AnalyticTenantAdvisesButDoesNotServeQueries) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "analytic";
  spec.schema = schema;  // no facts
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  EXPECT_EQ(service.PinEpoch(id).value()->backend, nullptr);
  EXPECT_TRUE(service.Advise(id).ok());
  const auto query = service.Query(id, MakeQuery(0, 0, 0, 0));
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.Measure(id, MakeQuery(0, 0, 0, 0)).ok());
}

// ---------------------------------------------------------------------------
// Serving contract: bit-identical to the library
// ---------------------------------------------------------------------------

TEST(ServiceAdviseTest, BitIdenticalToDirectAdviseIncremental) {
  auto schema = SmallSchema();
  const ServiceConfig config = SmallConfig();
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  spec.initial_workload = PreferAB(QueryClassLattice(*schema));
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  // Cold: smoothed == initial workload.
  const Recommendation first = service.Advise(id).value();
  EXPECT_TRUE(BitIdenticalRecommendations(
      first, DirectAdvise(schema, config,
                          service.SmoothedWorkload(id).value())));

  // Warm: ingest a shifted epoch, close it, advise again through the memo.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(service.Ingest(id, MakeQuery(2, 0, 0, b)).ok());
  }
  ASSERT_EQ(service.EndEpoch(id).value(), 1u);
  const Recommendation warm = service.Advise(id).value();
  EXPECT_TRUE(BitIdenticalRecommendations(
      warm, DirectAdvise(schema, config,
                         service.SmoothedWorkload(id).value())));
  // The shift actually moved the estimate: the two advises differ.
  EXPECT_FALSE(BitIdenticalRecommendations(first, warm));
}

TEST(ServiceAdviseTest, FirstAdviseAfterRegistrationCostsNoClass) {
  // Registration's epoch-1 recluster advises the initial workload through
  // the tenant's one class-cost table, so the advise verb on the same
  // workload finds every class already costed.
  auto schema = SmallSchema();
  MetricsRegistry metrics;
  ServiceConfig config = SmallConfig();
  config.recluster.strategies = {};  // every family
  config.obs.metrics = &metrics;
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  Counter* evaluations =
      metrics.GetCounter("advisor.incremental_cost_evaluations");
  const uint64_t after_registration = evaluations->value();
  EXPECT_GT(after_registration, 0u);  // the engine's epoch-1 fill
  const Recommendation first = service.Advise(id).value();
  EXPECT_EQ(evaluations->value(), after_registration);
  EXPECT_GT(metrics.GetCounter("advisor.incremental_cost_hits")->value(), 0u);
  EXPECT_TRUE(BitIdenticalRecommendations(
      first,
      ColdAdvise(schema, config, service.SmoothedWorkload(id).value())));
}

TEST(ServiceAdviseTest, RacesBackgroundReclusterOverUncostedClasses) {
  // An epoch over classes registration never costed, then the advise verb
  // and the background recluster the close schedules fill the shared table
  // at the same time. Both answers stay those of a cold advise.
  auto schema = SmallSchema();
  ServiceConfig config = SmallConfig();
  config.recluster.strategies = {};  // every family: many fills to race
  config.recluster_on_epoch_close = true;
  config.window_epochs = 1;  // smoothed == the closed epoch
  const QueryClassLattice lat(*schema);
  for (int round = 0; round < 4; ++round) {
    AdvisorService service(config);
    TenantSpec spec;
    spec.name = "t";
    spec.schema = schema;
    spec.facts = DenseFacts(schema, 2);
    spec.initial_workload = PreferAB(lat);  // costs class {0, 2} only
    const TenantId id = service.RegisterTenant(std::move(spec)).value();

    for (uint64_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(service.Ingest(id, MakeQuery(2, 0, 0, b)).ok());
      ASSERT_TRUE(service.Ingest(id, MakeQuery(1, 1, b / 2, b % 2)).ok());
      ASSERT_TRUE(service.Ingest(id, MakeQuery(1, 0, b % 2, b)).ok());
    }
    ASSERT_TRUE(service.EndEpoch(id).ok());
    auto advise = service.SubmitAdvise(id);
    const Result<Recommendation> served = advise.get();
    service.Shutdown();  // drains the background recluster
    ASSERT_TRUE(served.ok()) << served.status().message();

    const Recommendation cold =
        ColdAdvise(schema, config, service.SmoothedWorkload(id).value());
    EXPECT_TRUE(BitIdenticalRecommendations(served.value(), cold))
        << "round " << round;
    // The recluster's reply is its audited decision: the same best
    // strategy at the same expected cost.
    const std::vector<ReclusterAuditEntry> audit =
        service.audit_log().Snapshot();
    ASSERT_EQ(audit.size(), 2u);  // registration, then the background close
    EXPECT_EQ(audit.back().proposed_strategy, cold.best().name);
    EXPECT_TRUE(
        SameBits(audit.back().proposed_cost, cold.best().expected_cost));
  }
}

TEST(ServiceQueryTest, AnswersMatchADirectEngineOnThePinnedLayout) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 3);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  const auto epoch = service.PinEpoch(id).value();
  const QueryEngine direct(*epoch->backend);
  const IoSimulator simulator(*epoch->backend);
  const std::vector<GridQuery> queries = {
      MakeQuery(0, 0, 3, 1), MakeQuery(1, 1, 0, 1), MakeQuery(2, 2, 0, 0),
      MakeQuery(0, 2, 2, 0), MakeQuery(2, 0, 0, 3)};
  for (const GridQuery& q : queries) {
    const QueryAnswer expected = direct.Execute(q);
    const QueryAnswer got = service.Query(id, q).value();
    EXPECT_EQ(got.count, expected.count) << q.ToString();
    EXPECT_EQ(got.sum, expected.sum) << q.ToString();
    EXPECT_EQ(got.io.pages, expected.io.pages) << q.ToString();
    EXPECT_EQ(got.io.seeks, expected.io.seeks) << q.ToString();

    const QueryIo io = service.Measure(id, q).value();
    const QueryIo direct_io = simulator.Measure(q);
    EXPECT_EQ(io.records, direct_io.records) << q.ToString();
    EXPECT_EQ(io.pages, direct_io.pages) << q.ToString();
    EXPECT_EQ(io.seeks, direct_io.seeks) << q.ToString();
  }
}

TEST(ServiceQueryTest, RejectsMalformedTypedQueries) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 1);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  GridQuery wrong_dims;
  wrong_dims.cls = QueryClass{0};
  wrong_dims.block.resize(1);
  wrong_dims.block[0] = 0;
  EXPECT_FALSE(service.Query(id, wrong_dims).ok());
  EXPECT_FALSE(service.Ingest(id, wrong_dims).ok());

  const auto bad_level = service.Query(id, MakeQuery(5, 0, 0, 0));
  ASSERT_FALSE(bad_level.ok());
  EXPECT_EQ(bad_level.status().code(), StatusCode::kOutOfRange);

  // Level 1 has 2 blocks; block 7 is out of range.
  EXPECT_FALSE(service.Query(id, MakeQuery(1, 0, 7, 0)).ok());
  EXPECT_FALSE(service.Measure(id, MakeQuery(1, 0, 7, 0)).ok());

  EXPECT_FALSE(service.Query(99, MakeQuery(0, 0, 0, 0)).ok());
}

// ---------------------------------------------------------------------------
// Epochs and reclustering
// ---------------------------------------------------------------------------

TEST(ServiceEpochTest, EndEpochRequiresIngestedQueries) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  const auto empty = service.EndEpoch(id);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(service.Ingest(id, MakeQuery(0, 0, 0, 0)).ok());
  EXPECT_EQ(service.EndEpoch(id).value(), 1u);
  EXPECT_FALSE(service.EndEpoch(id).ok());  // empty again after the close
}

TEST(ServiceEpochTest, IngestsPerEpochClosesAutomatically) {
  auto schema = SmallSchema();
  ServiceConfig config = SmallConfig();
  config.ingests_per_epoch = 3;
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Ingest(id, MakeQuery(0, 0, 0, 0)).ok());
  }
  TenantStatus status = service.StatusOf(id).value();
  EXPECT_EQ(status.epochs_closed, 1u);
  EXPECT_EQ(status.ingested_this_epoch, 0u);
  EXPECT_EQ(status.ingested_total, 3u);

  ASSERT_TRUE(service.Ingest(id, MakeQuery(0, 0, 1, 0)).ok());
  status = service.StatusOf(id).value();
  EXPECT_EQ(status.epochs_closed, 1u);
  EXPECT_EQ(status.ingested_this_epoch, 1u);
}

TEST(ServiceEpochTest, ReclusterPublishesWhilePinnedReadersKeepTheOldEpoch) {
  auto schema = SmallSchema();
  ServiceConfig config = SmallConfig();
  config.window_epochs = 1;  // smoothed == the most recent epoch
  AdvisorService service(config);
  const QueryClassLattice lat(*schema);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 3);
  spec.initial_workload = PreferAB(lat);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  const auto pinned = service.PinEpoch(id).value();
  ASSERT_EQ(pinned->sequence, 1u);
  const std::string before =
      service.StatusOf(id).value().current_strategy;

  // Move the whole window to the mirrored workload and recluster: the
  // optimal row-major order flips, the engine adopts, a new epoch publishes.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(service.Ingest(id, MakeQuery(2, 0, 0, b)).ok());
  }
  ASSERT_TRUE(service.EndEpoch(id).ok());
  ASSERT_TRUE(SameProbabilities(service.SmoothedWorkload(id).value(),
                                PreferBA(lat)));
  const EpochReport report = service.ReclusterNow(id).value();
  EXPECT_EQ(report.decision, ReclusterDecision::kAdopt);

  const auto fresh = service.PinEpoch(id).value();
  EXPECT_EQ(fresh->sequence, 2u);
  EXPECT_NE(fresh->backend, pinned->backend);
  EXPECT_NE(service.StatusOf(id).value().current_strategy, before);

  // The superseded epoch stays fully usable for as long as it is pinned —
  // readers in flight during the publish never see a torn layout.
  const GridQuery q = MakeQuery(1, 1, 1, 0);
  const QueryAnswer old_answer = QueryEngine(*pinned->backend).Execute(q);
  const QueryAnswer new_answer = service.Query(id, q).value();
  EXPECT_EQ(old_answer.count, new_answer.count);
  EXPECT_EQ(old_answer.sum, new_answer.sum);
  EXPECT_EQ(pinned->sequence, 1u);
}

// ---------------------------------------------------------------------------
// Batched surface and shutdown
// ---------------------------------------------------------------------------

TEST(ServiceSubmitTest, BatchedRequestsMatchTheSynchronousSurface) {
  auto schema = SmallSchema();
  MetricsRegistry metrics;
  ServiceConfig config = SmallConfig();
  config.obs.metrics = &metrics;
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  auto advise = service.SubmitAdvise(id);
  auto query = service.SubmitQuery(id, MakeQuery(1, 1, 0, 0));
  auto measure = service.SubmitMeasure(id, MakeQuery(0, 2, 1, 0));
  auto ingest = service.SubmitIngest(id, MakeQuery(0, 0, 2, 2));
  ASSERT_TRUE(advise.get().ok());
  ASSERT_TRUE(query.get().ok());
  ASSERT_TRUE(measure.get().ok());
  ASSERT_TRUE(ingest.get().ok());
  auto end_epoch = service.SubmitEndEpoch(id);
  ASSERT_TRUE(end_epoch.get().ok());
  auto recluster = service.SubmitRecluster(id);
  ASSERT_TRUE(recluster.get().ok());

  // Queue-wait/compute histograms recorded one sample per request type.
  const MetricsSnapshot snapshot = metrics.Snapshot();
  for (const char* type :
       {"advise", "query", "measure", "ingest", "end_epoch", "recluster"}) {
    const std::string prefix = std::string("service.") + type;
    EXPECT_EQ(snapshot.histogram(prefix + ".queue_ns").count, 1u) << type;
    EXPECT_EQ(snapshot.histogram(prefix + ".compute_ns").count, 1u) << type;
  }
  EXPECT_GE(snapshot.counter("service.tenant.t.requests"), 6u);
}

TEST(ServiceSubmitTest, ShutdownTurnsSubmissionsIntoStatusErrors) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 1);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  ASSERT_TRUE(service.SubmitAdvise(id).get().ok());
  service.Shutdown();
  service.Shutdown();  // idempotent

  auto advise = service.SubmitAdvise(id);
  const Result<Recommendation> rejected = advise.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SubmitIngest(id, MakeQuery(0, 0, 0, 0)).get().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.SubmitRecluster(id).get().ok());
  EXPECT_FALSE(service.SubmitDispatch("t", "status").get().ok());
}

// ---------------------------------------------------------------------------
// Textual surface
// ---------------------------------------------------------------------------

struct LabeledService {
  std::shared_ptr<const StarSchema> schema;
  std::vector<DimensionTable> tables;
};

LabeledService LabeledSchema() {
  std::vector<Hierarchy> hierarchies;
  std::vector<DimensionTable> tables;
  for (int d = 0; d < 2; ++d) {
    Hierarchy h =
        Hierarchy::Uniform("dim" + std::to_string(d), {2, 2}).value();
    std::vector<std::vector<std::string>> labels(3);
    for (int l = 0; l <= 2; ++l) {
      for (uint64_t b = 0; b < h.num_blocks(l); ++b) {
        labels[static_cast<size_t>(l)].push_back(
            "d" + std::to_string(d) + "l" + std::to_string(l) + "b" +
            std::to_string(b));
      }
    }
    tables.push_back(DimensionTable::Make(h, std::move(labels)).value());
    hierarchies.push_back(std::move(h));
  }
  return {std::make_shared<StarSchema>(
              StarSchema::Make("svc", hierarchies).value()),
          std::move(tables)};
}

TEST(ServiceDispatchTest, ServesTextualRequests) {
  LabeledService ls = LabeledSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = ls.schema;
  spec.facts = DenseFacts(ls.schema, 2);
  spec.tables = ls.tables;
  ASSERT_TRUE(service.RegisterTenant(std::move(spec)).ok());

  EXPECT_EQ(service.Dispatch("t", "advise").value().rfind("best ", 0), 0u);
  EXPECT_NE(service.Dispatch("t", "status").value().find("tenant t"),
            std::string::npos);
  EXPECT_TRUE(service.Dispatch("t", "ingest dim0=d0l0b1").ok());
  EXPECT_NE(service.Dispatch("t", "end-epoch").value().find("closed epoch 1"),
            std::string::npos);
  const std::string answer =
      service.Dispatch("t", "query dim0=d0l1b0 dim1=d1l0b2").value();
  EXPECT_EQ(answer.rfind("count ", 0), 0u);
  EXPECT_TRUE(service.Dispatch("t", "measure dim1=d1l1b1").ok());
  EXPECT_TRUE(service.Dispatch("t", "recluster").ok());

  EXPECT_FALSE(service.Dispatch("nope", "status").ok());
  EXPECT_FALSE(service.Dispatch("t", "frobnicate").ok());
  EXPECT_FALSE(service.Dispatch("t", "").ok());
  EXPECT_FALSE(service.Dispatch("t", "query dim0=nosuchlabel").ok());
  EXPECT_FALSE(service.Dispatch("t", "ingest dim0==").ok());
}

TEST(ServiceQueryTest, TextualDrillDownRecordsThePartitionsItDoesNotRead) {
  // Leaf-level reads on a micro-partition tenant: each request's flight
  // record carries P minus the partitions holding its records, counted here
  // by walking the box's cells on the pinned layout. Partitions of 6 cells
  // straddle the 4-cell rows, so their zone maps cover cells they do not
  // hold and would let more partitions through.
  LabeledService ls = LabeledSchema();
  ServiceConfig config = SmallConfig();
  config.storage.micro_partition_pages = 7;
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = ls.schema;
  spec.facts = DenseFacts(ls.schema, 3);
  spec.tables = ls.tables;
  spec.backend = StorageBackendKind::kMicroPartition;
  const TenantId id = service.RegisterTenant(std::move(spec)).value();
  const auto epoch = service.PinEpoch(id).value();
  const auto* store =
      dynamic_cast<const MicroPartitionStore*>(epoch->backend.get());
  ASSERT_NE(store, nullptr);
  const uint64_t partitions = store->num_partitions();
  ASSERT_GT(partitions, 2u);

  std::vector<uint64_t> want;  // partitions_pruned, in request order
  for (uint64_t x = 0; x < 4; ++x) {
    for (int level = 0; level <= 2; ++level) {
      for (uint64_t y = 0; y < (4u >> level); ++y) {
        const GridQuery query = MakeQuery(0, level, x, y);
        const CellBox box = BoxOf(*ls.schema, query);
        std::set<uint64_t> read;
        CellCoord cell = box.lo;
        for (cell[0] = box.lo[0]; cell[0] < box.hi[0]; ++cell[0]) {
          for (cell[1] = box.lo[1]; cell[1] < box.hi[1]; ++cell[1]) {
            const uint64_t rank = store->linearization().RankOf(cell);
            if (!store->CellEmpty(rank)) read.insert(store->PartitionOf(rank));
          }
        }
        ASSERT_FALSE(read.empty());
        const std::string text = "dim0=d0l0b" + std::to_string(x) +
                                 " dim1=d1l" + std::to_string(level) + "b" +
                                 std::to_string(y);
        ASSERT_TRUE(service.Dispatch("t", "query " + text).ok()) << text;
        ASSERT_TRUE(service.Dispatch("t", "measure " + text).ok()) << text;
        want.push_back(partitions - read.size());
        want.push_back(partitions - read.size());
      }
    }
  }

  std::vector<uint64_t> got;
  for (const RequestRecord& r : service.Telemetry().requests) {
    if (r.verb != RequestVerb::kQuery && r.verb != RequestVerb::kMeasure) {
      continue;
    }
    EXPECT_EQ(r.status, StatusCode::kOk);
    got.push_back(r.partitions_pruned);
  }
  EXPECT_EQ(got, want);
}

TEST(ServiceDispatchTest, CostModelVerbReportsAndSwitches) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  // Bare verb reports the current model (name + its JSON description).
  const std::string initial = service.Dispatch("t", "costmodel").value();
  EXPECT_EQ(initial.rfind("costmodel analytic", 0), 0u);
  EXPECT_NE(initial.find("{"), std::string::npos);

  // Presets switch live; status and telemetry pick the new name up.
  EXPECT_EQ(service.Dispatch("t", "costmodel hdd").value(), "costmodel hdd");
  EXPECT_EQ(service.StatusOf(id).value().cost_model, "hdd");
  EXPECT_NE(service.Dispatch("t", "status").value().find("cost model hdd"),
            std::string::npos);
  EXPECT_EQ(service.Dispatch("t", "costmodel ssd").value(), "costmodel ssd");
  EXPECT_EQ(service.Dispatch("t", "costmodel").value().rfind("costmodel ssd",
                                                             0),
            0u);

  // Calibrated with inline coefficients JSON.
  EXPECT_EQ(service
                .Dispatch("t",
                          "costmodel calibrated {\"intercept_ms\": 0.5, "
                          "\"coefficients\": {\"seeks\": 2.0}}")
                .value(),
            "costmodel calibrated");
  EXPECT_EQ(service.StatusOf(id).value().cost_model, "calibrated");
  const TelemetrySnapshot telemetry = service.Telemetry();
  ASSERT_EQ(telemetry.tenants.size(), 1u);
  EXPECT_EQ(telemetry.tenants[0].cost_model, "calibrated");
  EXPECT_NE(telemetry.ToJson().find("\"cost_model\": \"calibrated\""),
            std::string::npos);

  // Malformed payloads are errors and leave the model untouched.
  EXPECT_FALSE(service.Dispatch("t", "costmodel floppy").ok());
  EXPECT_FALSE(service.Dispatch("t", "costmodel calibrated").ok());
  EXPECT_FALSE(
      service.Dispatch("t", "costmodel calibrated {\"bad\": 1}").ok());
  EXPECT_EQ(service.StatusOf(id).value().cost_model, "calibrated");
}

TEST(ServiceCostModelTest, SwitchKeepsWarmAdviseCacheHitting) {
  // The acceptance criterion: switching a tenant's cost model must NOT
  // invalidate its class-cost memo — the cached integers are model-
  // independent (the seek surrogate); only the ms conversion at the edge
  // changes. A re-advise after the switch evaluates zero classes, keeps
  // expected_cost bit-identical, and reprices expected_ms. Registration's
  // epoch-1 recluster fills the tenant's one class-cost table, so both
  // advises below read it warm.
  auto schema = SmallSchema();
  MetricsRegistry metrics;
  ServiceConfig config = SmallConfig();
  config.obs.metrics = &metrics;
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();
  Counter* evaluations =
      metrics.GetCounter("advisor.incremental_cost_evaluations");
  const uint64_t evals_after_registration = evaluations->value();
  EXPECT_GT(evals_after_registration, 0u);  // the engine's epoch-1 fill

  // Advised under the default model, on the table registration filled.
  const Recommendation before = service.Advise(id).value();
  EXPECT_EQ(evaluations->value(), evals_after_registration);

  CostModelSpec hdd;
  hdd.kind = CostModelKind::kHdd;
  ASSERT_TRUE(service.SetCostModel(id, hdd).ok());
  const Recommendation warm = service.Advise(id).value();

  // Zero new class evaluations, all hits: the memo survived the switch.
  EXPECT_EQ(evaluations->value(), evals_after_registration);
  EXPECT_GT(metrics.GetCounter("advisor.incremental_cost_hits")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("service.costmodel_switches")->value(), 0u);

  // Ranking key bit-identical; the priced edge moved with the model.
  ASSERT_EQ(warm.ranked.size(), before.ranked.size());
  const auto hdd_model = MakeCostModel(CostModelKind::kHdd).value();
  for (size_t i = 0; i < warm.ranked.size(); ++i) {
    EXPECT_EQ(warm.ranked[i].name, before.ranked[i].name);
    EXPECT_TRUE(
        SameBits(warm.ranked[i].expected_cost, before.ranked[i].expected_cost));
    EXPECT_NE(warm.ranked[i].expected_ms, before.ranked[i].expected_ms);
    // Unmeasured advises price the seek surrogate directly.
    EXPECT_EQ(warm.ranked[i].expected_ms,
              warm.ranked[i].expected_cost * hdd_model->SeekMs());
    EXPECT_EQ(before.ranked[i].expected_ms,
              before.ranked[i].expected_cost * DefaultCostModel()->SeekMs());
  }

  EXPECT_FALSE(service.SetCostModel(9999, hdd).ok());  // unknown tenant
}

TEST(ServiceCostModelTest, RegistrationSpecSeedsTheTenantModel) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  spec.cost_model.kind = CostModelKind::kSsd;
  const TenantId id = service.RegisterTenant(std::move(spec)).value();
  EXPECT_EQ(service.StatusOf(id).value().cost_model, "ssd");
  const auto ssd = MakeCostModel(CostModelKind::kSsd).value();
  const Recommendation rec = service.Advise(id).value();
  ASSERT_TRUE(rec.has_best());
  EXPECT_EQ(rec.best().expected_ms, rec.best().expected_cost * ssd->SeekMs());

  // A bad registration spec fails cleanly.
  TenantSpec bad;
  bad.name = "u";
  bad.schema = schema;
  bad.cost_model.kind = CostModelKind::kCalibrated;  // no payload
  EXPECT_FALSE(service.RegisterTenant(std::move(bad)).ok());
}

TEST(ServiceDispatchTest, QueryVerbsRequireDimensionTables) {
  auto schema = SmallSchema();
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 1);  // no tables
  ASSERT_TRUE(service.RegisterTenant(std::move(spec)).ok());

  const auto query = service.Dispatch("t", "query dim0=x");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Dispatch("t", "advise").ok());  // non-query verbs fine
}

// ---------------------------------------------------------------------------
// Interleaving: schedule-independence of the served state
// ---------------------------------------------------------------------------

/// One mixed op set against one tenant: ingests whose per-class counts
/// commute, advises, reclusters, and pinned-epoch queries. After any
/// permutation the final close + advise must be bit-identical to a direct
/// library call on the final smoothed workload, because the ops commute on
/// the state the advise reads (the window) and publication never mutates a
/// pinned layout.
std::vector<InterleaveDriver::Op> MixedOps(AdvisorService* service,
                                           TenantId id) {
  std::vector<InterleaveDriver::Op> ops;
  for (uint64_t b = 0; b < 3; ++b) {
    ops.push_back([service, id, b]() {
      ASSERT_TRUE(service->Ingest(id, MakeQuery(0, 2, b, 0)).ok());
    });
  }
  for (uint64_t b = 0; b < 2; ++b) {
    ops.push_back([service, id, b]() {
      ASSERT_TRUE(service->Ingest(id, MakeQuery(2, 0, 0, b)).ok());
    });
  }
  ops.push_back(
      [service, id]() { ASSERT_TRUE(service->Advise(id).ok()); });
  ops.push_back(
      [service, id]() { ASSERT_TRUE(service->ReclusterNow(id).ok()); });
  ops.push_back([service, id]() {
    // Pin, then read through the pin: must stay coherent even if a
    // recluster publishes a fresh epoch in between.
    const auto epoch = service->PinEpoch(id).value();
    const QueryAnswer a = QueryEngine(*epoch->backend).Execute(
        MakeQuery(1, 1, 0, 1));
    const QueryAnswer b = service->Query(id, MakeQuery(1, 1, 0, 1)).value();
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.sum, b.sum);
  });
  ops.push_back([service, id]() {
    ASSERT_TRUE(service->Measure(id, MakeQuery(0, 0, 1, 1)).ok());
  });
  return ops;
}

class ServiceInterleaveTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceInterleaveTest, SeededScheduleYieldsBitIdenticalAdvice) {
  auto schema = SmallSchema();
  const ServiceConfig config = SmallConfig();
  AdvisorService service(config);
  const QueryClassLattice lat(*schema);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 2);
  spec.initial_workload = PreferAB(lat);
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  InterleaveDriver driver(0xD15C0 + static_cast<uint64_t>(GetParam()));
  driver.RunSerial(MixedOps(&service, id));

  ASSERT_TRUE(service.EndEpoch(id).ok());
  const Recommendation final_rec = service.Advise(id).value();

  // The schedule-independent reference: the window saw exactly two epochs —
  // the initial workload and the closed epoch (3 queries on (0,2), 2 on
  // (2,0)) — regardless of permutation.
  std::vector<double> dense(lat.size(), 0.0);
  dense[lat.Index(QueryClass{0, 2})] = 3.0;
  dense[lat.Index(QueryClass{2, 0})] = 2.0;
  const Workload epoch_w =
      Workload::FromDense(lat, std::move(dense), /*normalize=*/true).value();
  std::vector<double> avg(lat.size(), 0.0);
  for (uint64_t i = 0; i < lat.size(); ++i) {
    avg[i] = (PreferAB(lat).probability_at(i) + epoch_w.probability_at(i)) / 2;
  }
  const Workload expected =
      Workload::FromDense(lat, std::move(avg), /*normalize=*/true).value();
  ASSERT_TRUE(SameProbabilities(service.SmoothedWorkload(id).value(),
                                expected));
  EXPECT_TRUE(BitIdenticalRecommendations(
      final_rec, DirectAdvise(schema, config, expected)));
}

// 112 serial schedules + the 16 concurrent seeds below >= 100 interleavings.
INSTANTIATE_TEST_SUITE_P(Seeds, ServiceInterleaveTest,
                         ::testing::Range(0, 112));

TEST(ServiceInterleaveTest, ConcurrentSchedulesMatchTheSerialResult) {
  auto schema = SmallSchema();
  const ServiceConfig config = SmallConfig();
  const QueryClassLattice lat(*schema);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AdvisorService service(config);
    TenantSpec spec;
    spec.name = "t";
    spec.schema = schema;
    spec.facts = DenseFacts(schema, 2);
    spec.initial_workload = PreferAB(lat);
    const TenantId id = service.RegisterTenant(std::move(spec)).value();

    InterleaveDriver driver(0xC0C0 + seed);
    driver.RunConcurrent(3, MixedOps(&service, id));

    ASSERT_TRUE(service.EndEpoch(id).ok());
    EXPECT_TRUE(BitIdenticalRecommendations(
        service.Advise(id).value(),
        DirectAdvise(schema, config, service.SmoothedWorkload(id).value())));
  }
}

TEST(ServiceInterleaveTest, BackgroundReclusterNeverBlocksOrTearsReaders) {
  auto schema = SmallSchema();
  ServiceConfig config = SmallConfig();
  config.recluster_on_epoch_close = true;
  config.window_epochs = 1;
  const QueryClassLattice lat(*schema);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AdvisorService service(config);
    TenantSpec spec;
    spec.name = "t";
    spec.schema = schema;
    spec.facts = DenseFacts(schema, 2);
    spec.initial_workload = PreferAB(lat);
    const TenantId id = service.RegisterTenant(std::move(spec)).value();

    // Readers hammer queries while epoch closes trigger background
    // reclusters that flip the layout under them.
    std::vector<InterleaveDriver::Op> ops;
    for (int i = 0; i < 6; ++i) {
      ops.push_back([&service, id]() {
        const QueryAnswer a = service.Query(id, MakeQuery(1, 1, 1, 1)).value();
        ASSERT_EQ(a.count, 2u * 2u * 2u);  // 2x2 cells, 2 records each
      });
    }
    ops.push_back([&service, id]() {
      for (uint64_t b = 0; b < 4; ++b) {
        ASSERT_TRUE(service.Ingest(id, MakeQuery(2, 0, 0, b)).ok());
      }
      ASSERT_TRUE(service.EndEpoch(id).ok());
    });
    InterleaveDriver driver(0xF00D + seed);
    driver.RunConcurrent(3, ops);

    // Drain the background recluster, then check a fresh epoch published.
    service.Shutdown();
    const TenantStatus status = service.StatusOf(id).value();
    EXPECT_GE(status.recluster_epochs, 2u);
    EXPECT_EQ(service.PinEpoch(id).value()->sequence,
              status.recluster_adoptions);
  }
}

TEST(ServiceInterleaveTest, ReclusterStormServesLibraryAdviceOnBothBackends) {
  // Eight tenants flip between the (2,0) and (0,2) point workloads, whose
  // optimal row-major orders differ, every epoch. Each close fires a
  // background recluster that repacks and publishes while readers query the
  // request pool.
  auto schema = SmallSchema();
  ServiceConfig config = SmallConfig();
  config.recluster_on_epoch_close = true;
  config.window_epochs = 1;  // each close replaces the whole window
  config.storage = StorageConfig{512, 60};
  const QueryClassLattice lat(*schema);
  const Workload sampler = Workload::Uniform(lat);
  constexpr uint64_t kTenants = 8;
  for (const StorageBackendKind kind :
       {StorageBackendKind::kPacked, StorageBackendKind::kMicroPartition}) {
    SCOPED_TRACE(StorageBackendKindName(kind));
    MetricsRegistry metrics;
    ServiceConfig traced = config;
    traced.obs.metrics = &metrics;
    AdvisorService service(traced);
    Rng rng(1999);
    std::vector<TenantId> ids;
    for (uint64_t t = 0; t < kTenants; ++t) {
      TenantSpec spec;
      spec.name = "tenant" + std::to_string(t);
      spec.schema = schema;
      spec.facts = DenseFacts(schema, 1 + t % 4);
      spec.backend = kind;
      spec.initial_workload = Workload::Random(lat, &rng);
      ids.push_back(service.RegisterTenant(std::move(spec)).value());
    }

    uint64_t storm_failures = 0;
    for (int round = 0; round < 6; ++round) {
      const QueryClass hot = round % 2 == 0 ? QueryClass{2, 0}
                                            : QueryClass{0, 2};
      std::vector<std::future<Result<QueryAnswer>>> answers;
      std::vector<uint64_t> expected_counts;
      for (uint64_t t = 0; t < kTenants; ++t) {
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(
              service.Ingest(ids[t], SampleQuery(*schema, hot, &rng)).ok());
        }
        ASSERT_TRUE(service.EndEpoch(ids[t]).ok());
        for (int q = 0; q < 8; ++q) {
          const GridQuery query =
              SampleQuery(*schema, sampler.Sample(&rng), &rng);
          expected_counts.push_back(BoxOf(*schema, query).NumCells() *
                                    (1 + t % 4));
          answers.push_back(service.SubmitQuery(ids[t], query));
        }
      }
      for (size_t i = 0; i < answers.size(); ++i) {
        const Result<QueryAnswer> answer = answers[i].get();
        if (!answer.ok() || answer->count != expected_counts[i]) {
          ++storm_failures;
        }
      }
      // The next round's closes wait for this round's reclusters, so each
      // recluster sees its own round's window whatever the scheduling.
      for (;;) {
        uint64_t backlog = 0;
        for (const TenantTelemetry& t : service.Telemetry().tenants) {
          backlog += t.recluster_backlog;
        }
        if (backlog == 0) break;
        std::this_thread::yield();
      }
    }
    service.Shutdown();
    EXPECT_EQ(storm_failures, 0u);

    uint64_t adoptions = 0;
    for (const TenantId id : ids) {
      EXPECT_TRUE(BitIdenticalRecommendations(
          service.Advise(id).value(),
          DirectAdvise(schema, config, service.SmoothedWorkload(id).value())));
      const TenantStatus status = service.StatusOf(id).value();
      EXPECT_EQ(status.backend, StorageBackendKindName(kind));
      EXPECT_EQ(service.PinEpoch(id).value()->sequence,
                status.recluster_adoptions);
      adoptions += status.recluster_adoptions;
    }
    // Registration adopts once per tenant; the storm must add at least as
    // many background adoptions again.
    EXPECT_GE(adoptions, 2 * kTenants);

    // Every close, publication and pinned read is on the operator surfaces.
    const MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(snapshot.counter("service.tenants"), kTenants);
    EXPECT_EQ(snapshot.counter("service.epochs_closed"), 6 * kTenants);
    EXPECT_EQ(snapshot.counter("service.epochs_published"), adoptions);
    EXPECT_GT(snapshot.histogram("service.epoch.pin_ns").count, 0u);
    const TelemetrySnapshot telemetry = service.Telemetry();
    EXPECT_EQ(telemetry.tenants.size(), kTenants);
    EXPECT_FALSE(telemetry.requests.empty());
    EXPECT_FALSE(telemetry.audit.empty());
  }
}

}  // namespace
}  // namespace snakes
