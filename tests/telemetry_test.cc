// Tests for the advisor service's telemetry layer: the lock-free
// FlightRecorder (tear-free snapshots under concurrent writers, one-shot
// error hook), SloWindow rotation and quantile merging, the bounded Tracer
// with dropped-span accounting and request-id ("rid") span attribution,
// request-id propagation across the sync / batched / Dispatch / background
// recluster paths, the recluster decision audit log, the `telemetry`
// Dispatch verb (JSON + Prometheus exposition), and — via
// tests/interleave_driver.h — consistency of concurrent telemetry dumps
// taken during background epoch adoptions, with advice bit-identical
// whether telemetry sinks are attached or not.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "hierarchy/dimension_table.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/slo_window.h"
#include "obs/trace.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "storage/fact_table.h"
#include "interleave_driver.h"
#include "util/result.h"

namespace snakes {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

RequestRecord MakeRecord(uint64_t id) {
  RequestRecord r;
  r.id = id;
  r.tenant = id * 3;
  r.verb = static_cast<RequestVerb>(id % kNumRequestVerbs);
  r.status = StatusCode::kOk;
  r.enqueue_ns = id * 5;
  r.start_ns = id * 5 + 1;
  r.finish_ns = id * 5 + 2;
  r.pages = id * 7;
  r.partitions_pruned = id * 11;
  return r;
}

TEST(FlightRecorderTest, RoundTripsAllFields) {
  FlightRecorder recorder(8);
  RequestRecord in;
  in.id = 42;
  in.tenant = 3;
  in.verb = RequestVerb::kMeasure;
  in.status = StatusCode::kOutOfRange;
  in.enqueue_ns = 100;
  in.start_ns = 150;
  in.finish_ns = 400;
  in.pages = 12;
  in.partitions_pruned = 5;
  recorder.Record(in);

  const auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const RequestRecord& out = records[0];
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.tenant, 3u);
  EXPECT_EQ(out.verb, RequestVerb::kMeasure);
  EXPECT_EQ(out.status, StatusCode::kOutOfRange);
  EXPECT_EQ(out.enqueue_ns, 100u);
  EXPECT_EQ(out.start_ns, 150u);
  EXPECT_EQ(out.finish_ns, 400u);
  EXPECT_EQ(out.queue_ns(), 50u);
  EXPECT_EQ(out.compute_ns(), 250u);
  EXPECT_EQ(out.pages, 12u);
  EXPECT_EQ(out.partitions_pruned, 5u);
}

TEST(FlightRecorderTest, RingKeepsTheLastCapacityRecords) {
  FlightRecorder recorder(8);
  for (uint64_t id = 1; id <= 20; ++id) recorder.Record(MakeRecord(id));
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.recorded(), 20u);

  const auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, 13 + i);  // the last 8, sorted ascending
  }
}

TEST(FlightRecorderTest, SnapshotNeverReturnsTornRecords) {
  // Writers encode their record id in every payload field; a torn read
  // would mix two encodings and fail the consistency check. Capacity is
  // kept tiny so writers wrap constantly — the worst case for tearing.
  FlightRecorder recorder(32);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_id{1};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&]() {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.Record(MakeRecord(next_id.fetch_add(1)));
      }
    });
  }

  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const auto records = recorder.Snapshot();
      uint64_t prev = 0;
      for (const RequestRecord& r : records) {
        EXPECT_GT(r.id, prev) << "ids must be strictly increasing";
        prev = r.id;
        // Internal consistency = untorn.
        EXPECT_EQ(r.tenant, r.id * 3);
        EXPECT_EQ(r.enqueue_ns, r.id * 5);
        EXPECT_EQ(r.pages, r.id * 7);
        EXPECT_EQ(r.partitions_pruned, r.id * 11);
      }
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
}

TEST(FlightRecorderTest, ErrorHookFiresOnceOnFirstNonOkRecord) {
  FlightRecorder recorder(8);
  std::vector<uint64_t> fired;
  recorder.SetErrorHook(
      [&](const RequestRecord& r) { fired.push_back(r.id); });

  recorder.Record(MakeRecord(1));  // OK: no fire
  RequestRecord bad = MakeRecord(2);
  bad.status = StatusCode::kInvalidArgument;
  recorder.Record(bad);
  RequestRecord worse = MakeRecord(3);
  worse.status = StatusCode::kInternal;
  recorder.Record(worse);

  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
}

TEST(FlightRecorderTest, JsonDumpHasCapacityRecordedAndRequests) {
  FlightRecorder recorder(4);
  recorder.Record(MakeRecord(1));
  RequestRecord anonymous = MakeRecord(2);
  anonymous.tenant = kNoTenant;
  recorder.Record(anonymous);

  const std::string json = recorder.ToJson(/*pretty=*/false);
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SloWindow
// ---------------------------------------------------------------------------

TEST(SloWindowTest, CountsErrorsAndQuantilesPerVerb) {
  SloWindow window(4);
  for (int i = 0; i < 90; ++i) {
    window.Record(RequestVerb::kQuery, 1000, /*error=*/false);
  }
  for (int i = 0; i < 10; ++i) {
    window.Record(RequestVerb::kQuery, 1000, /*error=*/true);
  }
  window.Record(RequestVerb::kAdvise, 1u << 20, /*error=*/false);

  const auto snap = window.Snap();
  const auto& query =
      snap.verbs[static_cast<size_t>(RequestVerb::kQuery)];
  EXPECT_EQ(query.count, 100u);
  EXPECT_EQ(query.errors, 10u);
  EXPECT_DOUBLE_EQ(query.error_rate, 0.1);
  // 1000 lands in the bit-width-10 bucket [512, 1023]; the interpolated
  // quantile stays within it.
  EXPECT_GE(query.p50_ns, 512.0);
  EXPECT_LE(query.p50_ns, 1023.0);
  EXPECT_GE(query.p99_ns, 512.0);
  EXPECT_LE(query.p99_ns, 1023.0);

  const auto& advise =
      snap.verbs[static_cast<size_t>(RequestVerb::kAdvise)];
  EXPECT_EQ(advise.count, 1u);
  EXPECT_EQ(advise.errors, 0u);
  EXPECT_EQ(snap.total, 101u);
}

TEST(SloWindowTest, AdvanceRetiresOldSlicesAndMergesLiveOnes) {
  SloWindow window(3);
  window.Record(RequestVerb::kQuery, 100, false);
  window.Advance();
  window.Record(RequestVerb::kQuery, 100, false);

  // Both slices are still live: merged count covers both.
  auto snap = window.Snap();
  EXPECT_EQ(snap.verbs[static_cast<size_t>(RequestVerb::kQuery)].count, 2u);
  EXPECT_EQ(snap.advances, 1u);

  // Rotating through the remaining slices retires everything.
  window.Advance();
  window.Advance();
  window.Advance();
  snap = window.Snap();
  EXPECT_EQ(snap.verbs[static_cast<size_t>(RequestVerb::kQuery)].count, 0u);
  EXPECT_EQ(snap.total, 0u);
}

// ---------------------------------------------------------------------------
// Tracer bound + request-id span attribution
// ---------------------------------------------------------------------------

TEST(TracerBoundTest, DropsSpansBeyondCapacityAndCountsThem) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 7; ++i) {
    ScopedSpan span(&tracer, "s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.num_events(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 3u);
  // The earliest spans are the ones kept.
  const auto events = tracer.events();
  EXPECT_EQ(events[0].name, "s0");
  EXPECT_EQ(events[3].name, "s3");
}

TEST(TracerBoundTest, SpansRecordTheActiveRequestId) {
  Tracer tracer;
  {
    RequestContext ctx;
    ctx.id = 77;
    RequestContextScope scope(&ctx);
    ScopedSpan span(&tracer, "inner", "test");
  }
  {
    ScopedSpan span(&tracer, "outer", "test");  // no active request
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "rid");
  EXPECT_EQ(events[0].args[0].second, "77");
  EXPECT_TRUE(events[1].args.empty());
}

TEST(RequestContextTest, VerbNamesRoundTrip) {
  for (int v = 0; v < kNumRequestVerbs; ++v) {
    const auto verb = static_cast<RequestVerb>(v);
    EXPECT_EQ(ParseRequestVerb(RequestVerbName(verb)), verb);
  }
  EXPECT_EQ(ParseRequestVerb("no-such-verb"), RequestVerb::kUnknown);
}

// ---------------------------------------------------------------------------
// Service-level telemetry
// ---------------------------------------------------------------------------

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
  config.recluster_on_epoch_close = false;
  config.recluster.strategies = {"row-major"};
  config.storage = StorageConfig{256, 125};
  return config;
}

GridQuery MakeQuery(int l0, int l1, uint64_t b0, uint64_t b1) {
  GridQuery query;
  query.cls = QueryClass{l0, l1};
  query.block.resize(2);
  query.block[0] = b0;
  query.block[1] = b1;
  return query;
}

TenantId RegisterSimple(AdvisorService* service, const std::string& name) {
  TenantSpec spec;
  spec.name = name;
  spec.schema = SmallSchema();
  spec.facts = DenseFacts(spec.schema, 2);
  return service->RegisterTenant(std::move(spec)).value();
}

TEST(ServiceTelemetryTest, RequestIdsAreUniqueAcrossAllPaths) {
  MetricsRegistry metrics;
  Tracer tracer;
  ServiceConfig config = SmallConfig();
  config.obs = ObsSink{&metrics, &tracer};
  config.recluster_on_epoch_close = true;  // exercise background requests
  AdvisorService service(config);
  const TenantId id = RegisterSimple(&service, "t");

  // Sync surface.
  ASSERT_TRUE(service.Advise(id).ok());
  ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());
  ASSERT_TRUE(service.Measure(id, MakeQuery(0, 2, 0, 0)).ok());
  // Batched surface.
  ASSERT_TRUE(service.SubmitQuery(id, MakeQuery(0, 2, 1, 0)).get().ok());
  ASSERT_TRUE(service.SubmitAdvise(id).get().ok());
  // Dispatch surface (including an error, which must also be recorded).
  ASSERT_TRUE(service.Dispatch("t", "status").ok());
  EXPECT_FALSE(service.Dispatch("t", "frobnicate").ok());
  // Epoch close fires a background recluster request.
  ASSERT_TRUE(service.Ingest(id, MakeQuery(0, 0, 1, 1)).ok());
  ASSERT_TRUE(service.EndEpoch(id).ok());
  service.Shutdown();  // drains the background job

  const TelemetrySnapshot snap = service.Telemetry();
  ASSERT_GE(snap.requests.size(), 9u);
  std::set<uint64_t> ids;
  uint64_t prev = 0;
  bool saw_background_recluster = false;
  bool saw_error = false;
  for (const RequestRecord& r : snap.requests) {
    EXPECT_GT(r.id, prev) << "dump ids must be strictly increasing";
    prev = r.id;
    ids.insert(r.id);
    EXPECT_LE(r.enqueue_ns, r.start_ns);
    EXPECT_LE(r.start_ns, r.finish_ns);
    if (r.verb == RequestVerb::kRecluster) saw_background_recluster = true;
    if (r.status != StatusCode::kOk) saw_error = true;
  }
  EXPECT_EQ(ids.size(), snap.requests.size());
  EXPECT_TRUE(saw_background_recluster);
  EXPECT_TRUE(saw_error);
  EXPECT_GT(metrics.Snapshot().counter("service.requests.completed"), 0u);
  EXPECT_GT(metrics.Snapshot().counter("service.requests.errors"), 0u);
}

/// SmallSchema's shape with a member label for every hierarchy node
/// ("<dim><level>_<block>", e.g. "a1_1" = level 1, block 1 of dimension a),
/// so the textual surface can address the same queries as MakeQuery.
TenantId RegisterLabeled(AdvisorService* service, const std::string& name) {
  std::vector<Hierarchy> dims;
  TenantSpec spec;
  spec.name = name;
  for (const std::string dim : {"a", "b"}) {
    Hierarchy h = Hierarchy::Uniform(dim, {2, 2}).value();
    std::vector<std::vector<std::string>> labels(3);
    for (int l = 0; l <= 2; ++l) {
      for (uint64_t b = 0; b < h.num_blocks(l); ++b) {
        labels[static_cast<size_t>(l)].push_back(dim + std::to_string(l) +
                                                 "_" + std::to_string(b));
      }
    }
    spec.tables.push_back(DimensionTable::Make(h, std::move(labels)).value());
    dims.push_back(std::move(h));
  }
  spec.schema =
      std::make_shared<StarSchema>(StarSchema::Make("s", dims).value());
  spec.facts = DenseFacts(spec.schema, 2);
  return service->RegisterTenant(std::move(spec)).value();
}

/// The newest record in the flight recorder.
RequestRecord LastRecord(const AdvisorService& service) {
  const std::vector<RequestRecord> records =
      service.flight_recorder().Snapshot();
  return records.empty() ? RequestRecord{} : records.back();
}

TEST(ServiceTelemetryTest, EveryRequestLeavesExactlyOneRecord) {
  // Each verb through each entry shape — sync call, Submit*, Dispatch,
  // SubmitDispatch — leaves exactly one flight-recorder record carrying the
  // verb, the tenant, and the status the caller saw.
  AdvisorService service(SmallConfig());
  const TenantId id = RegisterLabeled(&service, "t");
  const GridQuery query = MakeQuery(1, 2, 1, 0);
  const auto text = [](RequestVerb verb) -> std::string {
    switch (verb) {
      case RequestVerb::kQuery:
        return "query a=a1_1";
      case RequestVerb::kMeasure:
        return "measure a=a1_1";
      case RequestVerb::kIngest:
        return "ingest a=a1_1";
      case RequestVerb::kAdvise:
        return "advise";
      default:
        return "end-epoch";
    }
  };
  using Call = std::function<StatusCode(RequestVerb)>;
  const std::vector<std::pair<std::string, Call>> surfaces = {
      {"sync",
       [&](RequestVerb verb) {
         switch (verb) {
           case RequestVerb::kQuery:
             return service.Query(id, query).status().code();
           case RequestVerb::kMeasure:
             return service.Measure(id, query).status().code();
           case RequestVerb::kIngest:
             return service.Ingest(id, query).code();
           case RequestVerb::kAdvise:
             return service.Advise(id).status().code();
           default:
             return service.EndEpoch(id).status().code();
         }
       }},
      {"submit",
       [&](RequestVerb verb) {
         switch (verb) {
           case RequestVerb::kQuery:
             return service.SubmitQuery(id, query).get().status().code();
           case RequestVerb::kMeasure:
             return service.SubmitMeasure(id, query).get().status().code();
           case RequestVerb::kIngest:
             return service.SubmitIngest(id, query).get().code();
           case RequestVerb::kAdvise:
             return service.SubmitAdvise(id).get().status().code();
           default:
             return service.SubmitEndEpoch(id).get().status().code();
         }
       }},
      {"dispatch",
       [&](RequestVerb verb) {
         return service.Dispatch("t", text(verb)).status().code();
       }},
      {"submit-dispatch", [&](RequestVerb verb) {
         return service.SubmitDispatch("t", text(verb)).get().status().code();
       }}};

  for (const auto& [surface, call] : surfaces) {
    // The second end-epoch has nothing ingested: an error is one record too.
    for (const auto& [verb, expected] :
         std::vector<std::pair<RequestVerb, StatusCode>>{
             {RequestVerb::kQuery, StatusCode::kOk},
             {RequestVerb::kMeasure, StatusCode::kOk},
             {RequestVerb::kAdvise, StatusCode::kOk},
             {RequestVerb::kIngest, StatusCode::kOk},
             {RequestVerb::kEndEpoch, StatusCode::kOk},
             {RequestVerb::kEndEpoch, StatusCode::kFailedPrecondition}}) {
      const std::string what = surface + " " + RequestVerbName(verb);
      const uint64_t before = service.flight_recorder().recorded();
      EXPECT_EQ(call(verb), expected) << what;
      EXPECT_EQ(service.flight_recorder().recorded(), before + 1) << what;
      const RequestRecord record = LastRecord(service);
      EXPECT_EQ(record.verb, verb) << what;
      EXPECT_EQ(record.tenant, id) << what;
      EXPECT_EQ(record.status, expected) << what;
      EXPECT_LE(record.enqueue_ns, record.start_ns) << what;
      EXPECT_LE(record.start_ns, record.finish_ns) << what;
    }
  }
}

TEST(ServiceTelemetryTest, UnknownTenantDispatchRecordsTheParsedVerb) {
  AdvisorService service(SmallConfig());
  RegisterLabeled(&service, "t");
  for (const bool pooled : {false, true}) {
    for (const auto& [text, verb] :
         std::vector<std::pair<std::string, RequestVerb>>{
             {"query a=a1_1", RequestVerb::kQuery},
             {"measure a=a1_1", RequestVerb::kMeasure},
             {"advise", RequestVerb::kAdvise},
             {"ingest a=a1_1", RequestVerb::kIngest},
             {"end-epoch", RequestVerb::kEndEpoch},
             {"frobnicate", RequestVerb::kUnknown}}) {
      const uint64_t before = service.flight_recorder().recorded();
      const Result<std::string> reply =
          pooled ? service.SubmitDispatch("nope", text).get()
                 : service.Dispatch("nope", text);
      ASSERT_FALSE(reply.ok()) << text;
      EXPECT_EQ(reply.status().code(), StatusCode::kNotFound) << text;
      EXPECT_EQ(service.flight_recorder().recorded(), before + 1) << text;
      const RequestRecord record = LastRecord(service);
      EXPECT_EQ(record.verb, verb) << text;
      EXPECT_EQ(record.tenant, kNoTenant) << text;
      EXPECT_EQ(record.status, StatusCode::kNotFound) << text;
    }
  }
}

TEST(ServiceTelemetryTest, PooledRequestsStampEnqueueAtSubmit) {
  // One worker, a burst of submissions: the later ones wait in the queue.
  // Every record's enqueue stamp falls inside its own Submit* call — taken
  // at submit, not when a worker picked the request up — and precedes its
  // start.
  ServiceConfig config = SmallConfig();
  config.request_threads = 1;
  AdvisorService service(config);
  const TenantId id = RegisterLabeled(&service, "t");
  struct Submitted {
    uint64_t before_ns;
    uint64_t after_ns;
  };
  std::vector<Submitted> stamps;
  std::vector<std::future<Result<std::string>>> texts;
  std::vector<std::future<Result<QueryAnswer>>> answers;
  for (int i = 0; i < 16; ++i) {
    const uint64_t before = service.NowNs();
    if (i % 2 == 0) {
      answers.push_back(service.SubmitQuery(id, MakeQuery(0, 0, 1, 1)));
    } else {
      texts.push_back(service.SubmitDispatch("t", "query a=a0_1 b=b0_1"));
    }
    stamps.push_back({before, service.NowNs()});
  }
  for (auto& f : answers) ASSERT_TRUE(f.get().ok());
  for (auto& f : texts) ASSERT_TRUE(f.get().ok());

  std::vector<RequestRecord> records;
  for (const RequestRecord& r : service.flight_recorder().Snapshot()) {
    if (r.verb == RequestVerb::kQuery) records.push_back(r);
  }
  // One FIFO worker: record ids follow submission order.
  ASSERT_EQ(records.size(), stamps.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_GE(records[i].enqueue_ns, stamps[i].before_ns) << i;
    EXPECT_LE(records[i].enqueue_ns, stamps[i].after_ns) << i;
    EXPECT_LE(records[i].enqueue_ns, records[i].start_ns) << i;
  }

  const uint64_t before = service.NowNs();
  auto recluster = service.SubmitRecluster(id);
  const uint64_t after = service.NowNs();
  ASSERT_TRUE(recluster.get().ok());
  const RequestRecord record = LastRecord(service);
  EXPECT_EQ(record.verb, RequestVerb::kRecluster);
  EXPECT_GE(record.enqueue_ns, before);
  EXPECT_LE(record.enqueue_ns, after);
  EXPECT_LE(record.enqueue_ns, record.start_ns);
}

TEST(ServiceTelemetryTest, SpansNestRequestVerbStorageUnderOneRid) {
  MetricsRegistry metrics;
  Tracer tracer;
  ServiceConfig config = SmallConfig();
  config.obs = ObsSink{&metrics, &tracer};
  AdvisorService service(config);
  const TenantId id = RegisterSimple(&service, "t");
  ASSERT_TRUE(service.SubmitQuery(id, MakeQuery(2, 2, 0, 0)).get().ok());
  service.Shutdown();

  // Find the query request's id in the flight recorder...
  uint64_t rid = 0;
  for (const RequestRecord& r : service.flight_recorder().Snapshot()) {
    if (r.verb == RequestVerb::kQuery) rid = r.id;
  }
  ASSERT_NE(rid, 0u);
  const std::string rid_str = std::to_string(rid);

  // ...and check the request -> service -> storage span chain carries it,
  // with each level contained in its parent (same-thread containment is
  // what Chrome tracing nests by).
  const auto events = tracer.events();
  const TraceEvent* request = nullptr;
  const TraceEvent* verb = nullptr;
  const TraceEvent* storage = nullptr;
  for (const TraceEvent& e : events) {
    bool matches = false;
    for (const auto& [key, value] : e.args) {
      if (key == "rid" && value == rid_str) matches = true;
    }
    if (!matches) continue;
    if (e.name == "request/query") request = &e;
    if (e.name == "service/query") verb = &e;
    if (e.name == "storage/measure") storage = &e;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_NE(verb, nullptr);
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(request->thread_id, verb->thread_id);
  EXPECT_EQ(verb->thread_id, storage->thread_id);
  EXPECT_GE(verb->start_ns, request->start_ns);
  EXPECT_LE(verb->start_ns + verb->duration_ns,
            request->start_ns + request->duration_ns);
  EXPECT_GE(storage->start_ns, verb->start_ns);
  EXPECT_LE(storage->start_ns + storage->duration_ns,
            verb->start_ns + verb->duration_ns);
}

TEST(ServiceTelemetryTest, QueryRequestsRecordPagesAndPruning) {
  AdvisorService service(SmallConfig());
  TenantSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.facts = DenseFacts(spec.schema, 8);
  spec.backend = StorageBackendKind::kMicroPartition;
  const TenantId id = service.RegisterTenant(std::move(spec)).value();
  ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());

  bool found = false;
  for (const RequestRecord& r : service.flight_recorder().Snapshot()) {
    if (r.verb != RequestVerb::kQuery) continue;
    found = true;
    EXPECT_GT(r.pages, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(ServiceTelemetryTest, SloWindowsTrackVerbLatenciesAndErrors) {
  AdvisorService service(SmallConfig());
  const TenantId id = RegisterSimple(&service, "t");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());
  }
  EXPECT_FALSE(service.EndEpoch(id).ok());  // nothing ingested: error

  const TelemetrySnapshot snap = service.Telemetry();
  ASSERT_EQ(snap.tenants.size(), 1u);
  const auto& slo = snap.tenants[0].slo;
  const auto& query = slo.verbs[static_cast<size_t>(RequestVerb::kQuery)];
  EXPECT_EQ(query.count, 10u);
  EXPECT_EQ(query.errors, 0u);
  EXPECT_GT(query.p50_ns, 0.0);
  EXPECT_GE(query.p99_ns, query.p50_ns);
  const auto& end_epoch =
      slo.verbs[static_cast<size_t>(RequestVerb::kEndEpoch)];
  EXPECT_EQ(end_epoch.count, 1u);
  EXPECT_EQ(end_epoch.errors, 1u);
  EXPECT_DOUBLE_EQ(end_epoch.error_rate, 1.0);
  EXPECT_GT(snap.tenants[0].published_sequence, 0u);
}

TEST(ServiceTelemetryTest, SamplerThreadRotatesWindows) {
  ServiceConfig config = SmallConfig();
  config.telemetry.sampler_interval_ms = 2;
  config.telemetry.slo_buckets = 2;
  AdvisorService service(config);
  const TenantId id = RegisterSimple(&service, "t");

  // Wait (bounded) for the sampler to have rotated at least slo_buckets
  // times, then confirm requests older than the window have been retired.
  ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());
  const uint64_t target = service.Telemetry().tenants[0].slo.advances + 3;
  for (int i = 0; i < 2000; ++i) {
    if (service.Telemetry().tenants[0].slo.advances >= target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const TelemetrySnapshot snap = service.Telemetry();
  EXPECT_GE(snap.tenants[0].slo.advances, target);
  EXPECT_EQ(
      snap.tenants[0].slo.verbs[static_cast<size_t>(RequestVerb::kQuery)]
          .count,
      0u);
}

TEST(ServiceTelemetryTest, AuditLogRecordsEveryDecisionWithInputs) {
  ServiceConfig config = SmallConfig();
  config.recluster.movement_budget_pages = 123456;
  AdvisorService service(config);
  const TenantId id = RegisterSimple(&service, "t");

  // Registration audits the initial adopt; an explicit recluster audits a
  // keep (nothing changed).
  ASSERT_TRUE(service.ReclusterNow(id).ok());

  const auto audit = service.audit_log().Snapshot();
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit[0].decision, ReclusterDecision::kInitialAdopt);
  EXPECT_EQ(audit[0].tenant, id);
  EXPECT_LT(audit[0].sequence, audit[1].sequence);
  EXPECT_NE(audit[1].decision, ReclusterDecision::kAdopt);
  EXPECT_EQ(audit[1].budget_pages, 123456u);
  EXPECT_GT(audit[1].request_id, 0u)
      << "decision must be attributed to the recluster request";
  EXPECT_FALSE(audit[1].current_strategy.empty());
  const std::string json = audit[1].ToJson();
  EXPECT_NE(json.find("\"decision\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_pages\": 123456"), std::string::npos);
}

TEST(ServiceTelemetryTest, AuditLogRecordsTheMovementPrice) {
  Tracer tracer;
  ServiceConfig config = SmallConfig();
  config.obs = ObsSink{nullptr, &tracer};
  config.window_epochs = 1;  // smoothed == the most recent epoch
  AdvisorService service(config);
  const auto schema = SmallSchema();
  const QueryClassLattice lat(*schema);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = schema;
  spec.facts = DenseFacts(schema, 3);
  spec.initial_workload = Workload::Point(lat, QueryClass{0, 2}).value();
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  // Mirror the workload so the optimal row-major order flips and the
  // recluster prices a real rewrite.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(service.Ingest(id, MakeQuery(2, 0, 0, b)).ok());
  }
  ASSERT_TRUE(service.EndEpoch(id).ok());
  const EpochReport report = service.ReclusterNow(id).value();
  ASSERT_GT(report.movement.pages_moved(), 0u);

  const auto audit = service.audit_log().Snapshot();
  ASSERT_FALSE(audit.empty());
  const ReclusterAuditEntry& entry = audit.back();
  EXPECT_EQ(entry.decision, report.decision);
  EXPECT_GT(entry.benefit_ms, 0.0);
  EXPECT_GT(entry.movement_ms, 0.0);
  EXPECT_EQ(entry.benefit_ms, report.benefit_ms);
  EXPECT_EQ(entry.movement_ms, report.movement_ms);
  EXPECT_EQ(entry.pages_moved, report.movement.pages_moved());
  const std::string json = entry.ToJson();
  EXPECT_NE(json.find("\"benefit_ms\": "), std::string::npos);
  EXPECT_NE(json.find("\"movement_ms\": "), std::string::npos);
  // The pricing is traced as its own span beside the pack.
  uint64_t movement_spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    movement_spans += e.name == "recluster/movement" ? 1 : 0;
  }
  EXPECT_GE(movement_spans, 1u);
}

TEST(ServiceTelemetryTest, AuditLogIsBounded) {
  ReclusterAuditLog log(3);
  for (int i = 0; i < 10; ++i) log.Record(ReclusterAuditEntry{});
  EXPECT_EQ(log.recorded(), 10u);
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].sequence, 7u);
  EXPECT_EQ(entries[2].sequence, 9u);
}

TEST(ServiceTelemetryTest, ErrorDumpWritesRecorderOnFirstError) {
  const std::string path =
      testing::TempDir() + "/snakes_error_dump_test.json";
  std::remove(path.c_str());
  ServiceConfig config = SmallConfig();
  config.telemetry.error_dump_path = path;
  AdvisorService service(config);
  const TenantId id = RegisterSimple(&service, "t");
  ASSERT_TRUE(service.Advise(id).ok());
  EXPECT_FALSE(service.EndEpoch(id).ok());  // first error: triggers dump

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "error dump not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("\"requests\""), std::string::npos);
  EXPECT_NE(dump.find("\"end-epoch\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServiceTelemetryTest, TelemetryDispatchVerb) {
  AdvisorService service(SmallConfig());
  const TenantId id = RegisterSimple(&service, "t");
  ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());

  const std::string json = service.Dispatch("t", "telemetry").value();
  EXPECT_NE(json.find("\"recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"audit\""), std::string::npos);

  const std::string prom = service.Dispatch("t", "telemetry prom").value();
  EXPECT_NE(prom.find("# TYPE snakes_slo_request_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);

  const std::string recorder =
      service.Dispatch("t", "telemetry recorder").value();
  EXPECT_NE(recorder.find("\"requests\""), std::string::npos);

  EXPECT_EQ(service.Dispatch("t", "telemetry advance").value(),
            "advanced slo windows");
  EXPECT_FALSE(service.Dispatch("t", "telemetry bogus").ok());
  EXPECT_FALSE(service.Dispatch("nope", "telemetry").ok());
}

TEST(ServiceTelemetryTest, PrometheusExpositionGrammar) {
  AdvisorService service(SmallConfig());
  const TenantId id = RegisterSimple(&service, "quo\"ted");
  ASSERT_TRUE(service.Query(id, MakeQuery(2, 2, 0, 0)).ok());
  const std::string prom = service.Telemetry().ToPrometheus();

  std::istringstream lines(prom);
  std::string line;
  std::set<std::string> typed_families;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos) << line;
      typed_families.insert(line.substr(7, name_end - 7));
      continue;
    }
    // Sample line: name{labels} value | name value; family must have been
    // TYPE-declared (summaries add _sum/_count to the family name).
    EXPECT_EQ(line.rfind("snakes_", 0), 0u) << line;
    const size_t brace = line.find('{');
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, std::min(brace, space));
    for (const char* suffix : {"_sum", "_count"}) {
      const size_t pos = name.size() > strlen(suffix)
                             ? name.rfind(suffix)
                             : std::string::npos;
      if (pos != std::string::npos && pos == name.size() - strlen(suffix) &&
          typed_families.count(name) == 0) {
        name = name.substr(0, pos);
      }
    }
    EXPECT_EQ(typed_families.count(name), 1u) << line;
    if (brace != std::string::npos && brace < space) {
      EXPECT_NE(line.find('}'), std::string::npos) << line;
    }
  }
  // The escaped tenant name must appear escaped, not raw.
  EXPECT_NE(prom.find("tenant=\"quo\\\"ted\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent dump consistency + bit-identical advice (acceptance criteria)
// ---------------------------------------------------------------------------

/// Runs one seeded interleaving of {ingest, end-epoch, query, telemetry
/// dump} with background reclusters enabled, validating every concurrent
/// dump.
void RunTelemetryStorm(uint64_t seed, MetricsRegistry* metrics,
                       Tracer* tracer) {
  ServiceConfig config = SmallConfig();
  config.recluster_on_epoch_close = true;  // dumps race epoch adoptions
  config.obs = ObsSink{metrics, tracer};
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.facts = DenseFacts(spec.schema, 2);
  spec.initial_workload =
      Workload::Point(QueryClassLattice(*spec.schema), QueryClass{0, 2})
          .value();
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  const auto validate_dump = [&]() {
    const TelemetrySnapshot snap = service.Telemetry();
    uint64_t prev = 0;
    for (const RequestRecord& r : snap.requests) {
      ASSERT_GT(r.id, prev);
      prev = r.id;
      ASSERT_LT(static_cast<int>(r.verb), kNumRequestVerbs);
      ASSERT_LE(r.enqueue_ns, r.start_ns);
      ASSERT_LE(r.start_ns, r.finish_ns);
    }
  };

  std::vector<InterleaveDriver::Op> ops;
  for (uint64_t b = 0; b < 4; ++b) {
    ops.push_back([&service, id, b]() {
      // Shift toward the mirrored workload so adoptions actually fire.
      (void)service.Ingest(id, MakeQuery(2, 0, 0, b % 4));
    });
  }
  for (int i = 0; i < 2; ++i) {
    ops.push_back([&service, id]() { (void)service.EndEpoch(id); });
    ops.push_back([&service, id]() {
      (void)service.Query(id, MakeQuery(2, 2, 0, 0));
    });
    ops.push_back(validate_dump);
  }

  InterleaveDriver driver(seed);
  driver.RunConcurrent(4, ops);
  service.Shutdown();  // drain background reclusters
  validate_dump();
  EXPECT_TRUE(service.Advise(id).ok());
}

TEST(ServiceTelemetryTest, ConcurrentDumpsDuringAdoptionAreConsistent) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    MetricsRegistry metrics;
    Tracer tracer;
    RunTelemetryStorm(seed, &metrics, &tracer);
  }
}

/// Runs a fixed request sequence in a seeded serial order — deterministic,
/// unlike a true concurrent schedule — and returns the final advice.
Recommendation RunDeterministicSequence(uint64_t seed, bool attach_obs,
                                        MetricsRegistry* metrics,
                                        Tracer* tracer) {
  ServiceConfig config = SmallConfig();
  if (attach_obs) config.obs = ObsSink{metrics, tracer};
  AdvisorService service(config);
  TenantSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.facts = DenseFacts(spec.schema, 2);
  spec.initial_workload =
      Workload::Point(QueryClassLattice(*spec.schema), QueryClass{0, 2})
          .value();
  const TenantId id = service.RegisterTenant(std::move(spec)).value();

  std::vector<InterleaveDriver::Op> ops;
  for (uint64_t b = 0; b < 4; ++b) {
    ops.push_back([&service, id, b]() {
      (void)service.Ingest(id, MakeQuery(2, 0, 0, b % 4));
    });
    ops.push_back([&service, id, b]() {
      (void)service.Query(id, MakeQuery(0, 2, b % 4, 0));
    });
    ops.push_back([&service, id]() { (void)service.Telemetry(); });
  }
  InterleaveDriver driver(seed);
  driver.RunSerial(ops);
  (void)service.EndEpoch(id);
  (void)service.ReclusterNow(id);
  return service.Advise(id).value();
}

TEST(ServiceTelemetryTest, AdviceIsBitIdenticalWithTelemetryOnAndOff) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MetricsRegistry metrics;
    Tracer tracer;
    const Recommendation with_telemetry = RunDeterministicSequence(
        seed, /*attach_obs=*/true, &metrics, &tracer);
    const Recommendation without_telemetry =
        RunDeterministicSequence(seed, /*attach_obs=*/false, nullptr, nullptr);
    EXPECT_TRUE(
        BitIdenticalRecommendations(with_telemetry, without_telemetry))
        << "seed " << seed
        << ": attaching telemetry sinks changed the advice";
  }
}

}  // namespace
}  // namespace snakes
