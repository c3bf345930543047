// Tests for the observability subsystem (src/obs): metric primitives, the
// registry/snapshot/serialization surface, the tracer's Chrome JSON export,
// and the null-object contract (instrumented code paths with no backends
// attached behave exactly like uninstrumented ones).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/evaluation.h"
#include "curves/row_major.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/star_schema.h"
#include "lattice/workload.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "storage/executor.h"
#include "storage/fact_table.h"
#include "storage/pager.h"
#include "util/rng.h"

namespace snakes {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.Record(7);
  h.Record(0);
  h.Record(1'000'000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1'000'007u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1'000'000u);
}

TEST(HistogramTest, QuantilesAreOrderedAndClamped) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p50 = h.Quantile(0.5);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Power-of-two buckets guarantee <= 2x relative error; interpolation does
  // considerably better on a uniform stream, but only the 2x bound is
  // contractual.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  // Quantiles never escape the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValueIsExactAtEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(64);
  EXPECT_EQ(h.Quantile(0.0), 64.0);
  EXPECT_EQ(h.Quantile(0.5), 64.0);
  EXPECT_EQ(h.Quantile(1.0), 64.0);
}

TEST(MetricsRegistryTest, GetInternsByNameWithStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  Gauge* g = registry.GetGauge("g");
  EXPECT_EQ(registry.GetGauge("g"), g);
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(registry.GetHistogram("h"), h);
}

TEST(MetricsRegistryTest, CrossKindNameCollisionDies) {
  MetricsRegistry registry;
  registry.GetCounter("taken");
  EXPECT_DEATH(registry.GetGauge("taken"), "CHECK failed");
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndDetached) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Inc(2);
  registry.GetCounter("a.count")->Inc(1);
  registry.GetGauge("ratio")->Set(0.5);
  registry.GetHistogram("lat")->Record(10);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[1].first, "b.count");
  EXPECT_EQ(snap.counter("b.count"), 2u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_EQ(snap.gauge("ratio"), 0.5);
  EXPECT_EQ(snap.histogram("lat").count, 1u);
  EXPECT_EQ(snap.histogram("lat").min, 10u);

  // Detached: later updates do not bleed into the snapshot.
  registry.GetCounter("a.count")->Inc(100);
  EXPECT_EQ(snap.counter("a.count"), 1u);
}

TEST(MetricsRegistryTest, JsonAndTableSerialization) {
  MetricsRegistry registry;
  registry.GetCounter("hits")->Inc(3);
  registry.GetGauge("rate")->Set(0.75);
  registry.GetHistogram("ns")->Record(128);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // Compact mode is single-line for embedding in other JSON documents.
  const std::string compact = snap.ToJson(/*pretty=*/false);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_NE(compact.find("\"hits\": 3"), std::string::npos);

  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("hits"), std::string::npos);
  EXPECT_NE(table.find("rate"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(TracerTest, ScopedSpanRecordsNestedEvents) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", "test");
    outer.AddArg("n", static_cast<uint64_t>(3));
    { ScopedSpan inner(&tracer, "inner", "test"); }
    EXPECT_GT(outer.ElapsedNs(), 0u);
  }
  ASSERT_EQ(tracer.num_events(), 2u);
  // Spans record at destruction, so the inner span lands first.
  const std::vector<TraceEvent> events = tracer.events();
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].thread_id, events[1].thread_id);
  // Containment: outer starts no later and ends no earlier than inner.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST(TracerTest, ChromeJsonShape) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "phase \"one\"", "cat");
    span.AddArg("k", "v");
    span.AddArg("x", 1.5);
  }
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase \\\"one\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"cat\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": 1.5"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScopedSpanTest, NullTracerIsInert) {
  ScopedSpan span(nullptr, "ghost");
  EXPECT_FALSE(span.enabled());
  span.AddArg("k", "v");
  span.AddArg("n", static_cast<uint64_t>(1));
  EXPECT_EQ(span.ElapsedNs(), 0u);
}

TEST(ObsSinkTest, EnabledReflectsEitherBackend) {
  EXPECT_FALSE(ObsSink{}.enabled());
  MetricsRegistry metrics;
  Tracer tracer;
  EXPECT_TRUE((ObsSink{&metrics, nullptr}.enabled()));
  EXPECT_TRUE((ObsSink{nullptr, &tracer}.enabled()));
}

// --- End-to-end: an instrumented Advise run populates both backends and
// changes nothing about the recommendation itself. ---

class InstrumentedAdviseTest : public ::testing::Test {
 protected:
  InstrumentedAdviseTest() {
    auto a = Hierarchy::Uniform("a", {2, 2}, {"leaf", "mid", "all"});
    auto b = Hierarchy::Uniform("b", {2, 4}, {"leaf", "mid", "all"});
    auto schema = StarSchema::Make("t", {a.value(), b.value()});
    schema_ = std::make_shared<StarSchema>(std::move(schema).value());
    facts_ = std::make_shared<FactTable>(schema_);
    Rng rng(13);
    CellCoord coord;
    coord.resize(2);
    for (uint64_t r = 0; r < schema_->extent(0); ++r) {
      for (uint64_t c = 0; c < schema_->extent(1); ++c) {
        coord[0] = r;
        coord[1] = c;
        for (uint64_t n = 0; n < 1 + rng.Below(5); ++n) {
          facts_->AddRecord(coord, 1.0);
        }
      }
    }
  }

  EvaluationRequest MakeRequest() const {
    const QueryClassLattice lat(*schema_);
    EvaluationRequest request{Workload::Uniform(lat)};
    request.measure_storage = true;
    request.facts = facts_;
    request.num_threads = 2;
    return request;
  }

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<FactTable> facts_;
};

TEST_F(InstrumentedAdviseTest, PopulatesMetricsAndTrace) {
  MetricsRegistry metrics;
  Tracer tracer;
  const ClusteringAdvisor advisor(schema_);
  EvaluationRequest request = MakeRequest();
  request.obs = {&metrics, &tracer};
  const auto rec = advisor.Advise(request);
  ASSERT_TRUE(rec.ok()) << rec.status().message();

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter("advisor.strategies_evaluated"),
            rec.value().ranked.size());
  EXPECT_EQ(snap.counter("advisor.strategies_planned"),
            rec.value().ranked.size());
  EXPECT_GT(snap.counter("advisor.factories_considered"), 0u);
  EXPECT_GT(snap.counter("dp.cells_relaxed"), 0u);
  EXPECT_GT(snap.gauge("dp.table_bytes"), 0.0);
  EXPECT_GT(snap.counter("cost.cells_scanned"), 0u);
  EXPECT_GT(snap.counter("storage.pages_packed"), 0u);
  EXPECT_GT(snap.counter("storage.pages_read"), 0u);
  EXPECT_GT(snap.counter("storage.seeks"), 0u);
  EXPECT_GT(snap.counter("curves.runs_emitted"), 0u);
  EXPECT_GT(snap.histogram("curves.cells_per_run").count, 0u);
  EXPECT_GT(snap.histogram("storage.run_length_pages").count, 0u);
  EXPECT_EQ(snap.histogram("advisor.queue_wait_ns").count,
            rec.value().ranked.size());
  EXPECT_EQ(snap.histogram("advisor.strategy_compute_ns").count,
            rec.value().ranked.size());

  // The trace nests request -> strategy -> storage spans.
  const std::vector<TraceEvent> events = tracer.events();
  auto has = [&events](std::string_view name, std::string_view cat) {
    return std::any_of(events.begin(), events.end(),
                       [&](const TraceEvent& e) {
                         return e.name == name &&
                                (cat.empty() || e.category == cat);
                       });
  };
  EXPECT_TRUE(has("advisor/plan", "advisor"));
  EXPECT_TRUE(has("advisor/evaluate", "advisor"));
  EXPECT_TRUE(has("dp/kd", ""));
  EXPECT_TRUE(has("dp/snaked", ""));
  EXPECT_TRUE(has("storage/measure_all", "storage"));
  const size_t strategy_spans =
      static_cast<size_t>(std::count_if(events.begin(), events.end(),
                                        [](const TraceEvent& e) {
                                          return e.category == "strategy";
                                        }));
  EXPECT_EQ(strategy_spans, rec.value().ranked.size());
}

TEST_F(InstrumentedAdviseTest, CellsScannedIsExportedOnlyByTheCellWalks) {
  MetricsRegistry metrics;
  const ObsSink obs{&metrics, nullptr};
  const auto layout =
      PackedLayout::Pack(RowMajorOrder::Make(schema_, {0, 1}).value(), facts_);
  ASSERT_TRUE(layout.ok()) << layout.status().message();
  const IoSimulator sim(layout.value(), obs);
  const auto exported = [&metrics](std::string_view name) {
    const MetricsSnapshot snap = metrics.Snapshot();
    return std::any_of(snap.counters.begin(), snap.counters.end(),
                       [&](const auto& c) { return c.first == name; });
  };

  GridQuery query;
  query.cls = QueryClass{1, 1};
  query.block.resize(2);
  query.block[0] = 1;
  query.block[1] = 0;
  sim.Measure(query);
  sim.MeasureClass(QueryClass{1, 1});
  // The production paths ran and exported their counters, but not the
  // oracle-only cell count.
  EXPECT_GT(metrics.Snapshot().counter("storage.seeks"), 0u);
  EXPECT_FALSE(exported("storage.cells_scanned"));

  sim.MeasureCellWalk(query);
  EXPECT_GT(metrics.Snapshot().counter("storage.cells_scanned"), 0u);
}

TEST_F(InstrumentedAdviseTest, RecommendationIsIdenticalWithAndWithoutObs) {
  const ClusteringAdvisor advisor(schema_);
  const auto plain = advisor.Advise(MakeRequest());
  ASSERT_TRUE(plain.ok());

  MetricsRegistry metrics;
  Tracer tracer;
  EvaluationRequest instrumented = MakeRequest();
  instrumented.obs = {&metrics, &tracer};
  const auto traced = advisor.Advise(instrumented);
  ASSERT_TRUE(traced.ok());

  ASSERT_EQ(plain.value().ranked.size(), traced.value().ranked.size());
  for (size_t i = 0; i < plain.value().ranked.size(); ++i) {
    EXPECT_EQ(plain.value().ranked[i].name, traced.value().ranked[i].name);
    EXPECT_EQ(plain.value().ranked[i].expected_cost,
              traced.value().ranked[i].expected_cost);
  }
  EXPECT_EQ(plain.value().optimal_path_cost, traced.value().optimal_path_cost);
  EXPECT_EQ(plain.value().optimal_snaked_cost,
            traced.value().optimal_snaked_cost);
}

}  // namespace
}  // namespace snakes
