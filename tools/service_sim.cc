// service_sim — throughput and safety guard for the AdvisorService daemon.
//
//   service_sim [--tenants N] [--requests N] [--threads T] [--rounds R]
//               [--seed S] [--out PATH] [--backend packed|micropartition]
//               [--telemetry PATH]
//
// Registers N tenants (N >= 8 in the guard configuration), then drives two
// phases against the service:
//
//  1. Mixed traffic: thousands of query/measure/ingest/advise/end-epoch
//     requests batched onto the request pool across all tenants, measuring
//     sustained requests/sec and per-type queue-wait/compute latency
//     (p50/p95/p99 from the obs histograms).
//  2. Recluster storm: every round shifts each tenant's workload and closes
//     an epoch, firing background reclusters that repack and publish fresh
//     layout epochs while readers keep querying on the request pool. The
//     double-buffering contract makes this safe AND non-blocking: readers
//     pin epochs with a pointer copy, so the pin-wait histogram must stay
//     microseconds even though relayouts take milliseconds.
//
// Afterwards every tenant's warm Advise must be bit-identical to a direct
// ClusteringAdvisor::AdviseIncremental on the same smoothed workload
// (BitIdenticalRecommendations) — the service adds batching, never numerics.
//
// Hard guards (SNAKES_CHECK):
//   * sustained throughput >= 200 req/s over the mixed phase,
//   * query compute p99 <= 250 ms, epoch pin-wait p99 <= 5 ms (the
//     zero-reader-blocking bound) with every storm query answered,
//   * >= 1 background adoption per tenant during the storm,
//   * warm Advise bit-identical to the direct library call for all tenants.
//
// Writes BENCH_service_throughput.json with the headline numbers plus the
// full MetricsRegistry snapshot embedded under "metrics" and the service's
// TelemetrySnapshot under "telemetry" (validated by tools/check.sh like the
// obs_report artifacts). With --telemetry PATH the same snapshot — flight
// recorder, per-tenant SLO windows, recluster audit log — is also dumped
// standalone to PATH for the check.sh exposition/consistency validators.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/text_table.h"

namespace snakes {
namespace {

using Clock = std::chrono::steady_clock;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

std::shared_ptr<const FactTable> RandomFacts(
    const std::shared_ptr<const StarSchema>& schema, Rng* rng) {
  auto facts = std::make_shared<FactTable>(schema);
  for (CellId id = 0; id < schema->num_cells(); ++id) {
    const uint64_t records = 1 + rng->Below(4);
    for (uint64_t r = 0; r < records; ++r) {
      facts->AddRecord(schema->Unflatten(id), rng->NextDouble());
    }
  }
  return facts;
}

// The alternating point workloads whose optimal row-major orders differ, so
// each storm round flips the optimum and forces a background adoption.
Workload RoundWorkload(const QueryClassLattice& lat, int round) {
  return Workload::Point(lat, round % 2 == 0 ? QueryClass{2, 0}
                                             : QueryClass{0, 2})
      .value();
}

int Run(int argc, char** argv) {
  const int tenants =
      std::atoi(FlagValue(argc, argv, "--tenants", "8").c_str());
  const int requests =
      std::atoi(FlagValue(argc, argv, "--requests", "4000").c_str());
  const int threads =
      std::atoi(FlagValue(argc, argv, "--threads", "2").c_str());
  const int rounds = std::atoi(FlagValue(argc, argv, "--rounds", "6").c_str());
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--seed", "1999").c_str()));
  const std::string out_path =
      FlagValue(argc, argv, "--out", "BENCH_service_throughput.json");
  const std::string telemetry_path =
      FlagValue(argc, argv, "--telemetry", "");
  auto backend_kind =
      ParseStorageBackendKind(FlagValue(argc, argv, "--backend", "packed"));
  if (!backend_kind.ok()) return Fail(backend_kind.status());
  if (tenants < 1) return Fail(Status::InvalidArgument("--tenants >= 1"));

  MetricsRegistry metrics;
  ServiceConfig config;
  config.request_threads = threads;
  config.window_epochs = 1;  // the storm flips the whole window each round
  config.recluster_on_epoch_close = true;
  config.recluster.strategies = {"row-major"};
  config.storage = StorageConfig{512, 60};
  config.obs.metrics = &metrics;
  AdvisorService service(config);

  // One 4x4 schema family, per-tenant fact tables and initial workloads.
  auto schema = std::make_shared<StarSchema>(
      StarSchema::Symmetric(2, 2, 2).ValueOrDie());
  const QueryClassLattice lat(*schema);
  Rng rng(seed);
  std::vector<TenantId> ids;
  for (int t = 0; t < tenants; ++t) {
    TenantSpec spec;
    spec.name = "tenant" + std::to_string(t);
    spec.schema = schema;
    spec.facts = RandomFacts(schema, &rng);
    spec.backend = backend_kind.value();
    spec.initial_workload = Workload::Random(lat, &rng);
    auto id = service.RegisterTenant(std::move(spec));
    if (!id.ok()) return Fail(id.status());
    ids.push_back(id.value());
  }
  std::printf("registered %d tenants (%llu cells each, %llu classes)\n",
              tenants, static_cast<unsigned long long>(schema->num_cells()),
              static_cast<unsigned long long>(lat.size()));

  // ---- Phase 1: mixed traffic -----------------------------------------
  const Workload sampler = Workload::Uniform(lat);
  std::vector<std::future<Status>> ingests;
  std::vector<std::future<Result<QueryAnswer>>> queries;
  std::vector<std::future<Result<QueryIo>>> measures;
  std::vector<std::future<Result<Recommendation>>> advises;
  std::vector<int> ingested_since_close(static_cast<size_t>(tenants), 0);
  uint64_t submitted = 0, end_epochs = 0;

  const auto drain = [&]() -> Status {
    for (auto& f : ingests) SNAKES_RETURN_IF_ERROR(f.get());
    for (auto& f : queries) SNAKES_RETURN_IF_ERROR(f.get().status());
    for (auto& f : measures) SNAKES_RETURN_IF_ERROR(f.get().status());
    for (auto& f : advises) SNAKES_RETURN_IF_ERROR(f.get().status());
    ingests.clear();
    queries.clear();
    measures.clear();
    advises.clear();
    return Status::OK();
  };

  const auto mixed_start = Clock::now();
  for (int r = 0; r < requests; ++r) {
    const size_t t = rng.Below(static_cast<uint64_t>(tenants));
    const TenantId id = ids[t];
    const QueryClass cls = sampler.Sample(&rng);
    const GridQuery query = SampleQuery(*schema, cls, &rng);
    const double dice = rng.NextDouble();
    if (dice < 0.60) {
      queries.push_back(service.SubmitQuery(id, query));
    } else if (dice < 0.75) {
      measures.push_back(service.SubmitMeasure(id, query));
    } else if (dice < 0.93) {
      ingests.push_back(service.SubmitIngest(id, query));
      ++ingested_since_close[t];
    } else if (dice < 0.97 && ingested_since_close[t] > 0) {
      // Close only when this tenant certainly has ingested queries: the
      // request pool completes tasks in submission order per tenant stream.
      (void)service.SubmitEndEpoch(id);
      ingested_since_close[t] = 0;
      ++end_epochs;
    } else {
      advises.push_back(service.SubmitAdvise(id));
    }
    ++submitted;
    if (queries.size() + measures.size() + ingests.size() + advises.size() >=
        512) {
      if (Status s = drain(); !s.ok()) return Fail(s);
    }
  }
  if (Status s = drain(); !s.ok()) return Fail(s);
  const double mixed_s =
      std::chrono::duration<double>(Clock::now() - mixed_start).count();
  const double rps = static_cast<double>(submitted) / mixed_s;

  // ---- Phase 2: recluster storm ---------------------------------------
  uint64_t storm_queries = 0, storm_failures = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int t = 0; t < tenants; ++t) {
      const Workload target = RoundWorkload(lat, round);
      for (int i = 0; i < 4; ++i) {
        const QueryClass cls = target.Sample(&rng);
        Status ingested =
            service.Ingest(ids[static_cast<size_t>(t)],
                           SampleQuery(*schema, cls, &rng));
        if (!ingested.ok()) return Fail(ingested);
      }
      // Closing the epoch fires the background recluster for this tenant.
      auto closed = service.EndEpoch(ids[static_cast<size_t>(t)]);
      if (!closed.ok()) return Fail(closed.status());
      // Readers keep hammering the pool while the relayout packs.
      for (int q = 0; q < 8; ++q) {
        const QueryClass cls = sampler.Sample(&rng);
        queries.push_back(service.SubmitQuery(
            ids[static_cast<size_t>(t)], SampleQuery(*schema, cls, &rng)));
      }
    }
    for (auto& f : queries) {
      ++storm_queries;
      if (!f.get().ok()) ++storm_failures;
    }
    queries.clear();
  }
  // Drain the background reclusters so the adoption counts are final.
  service.Shutdown();

  // ---- Bit-exactness: warm serving path == direct library call --------
  // (Sync surface still works after Shutdown; only the pools are closed.)
  bool bit_identical = true;
  uint64_t total_adoptions = 0;
  for (int t = 0; t < tenants; ++t) {
    const TenantId id = ids[static_cast<size_t>(t)];
    const Workload mu = service.SmoothedWorkload(id).ValueOrDie();
    const Recommendation served = service.Advise(id).ValueOrDie();
    const ClusteringAdvisor advisor(schema);
    IncrementalAdvisorState state;
    EvaluationRequest request{mu};
    request.strategies = config.recluster.strategies;
    request.num_threads = 1;
    const Recommendation direct =
        advisor.AdviseIncremental(request, &state).ValueOrDie();
    bit_identical = bit_identical && BitIdenticalRecommendations(served, direct);
    const TenantStatus status = service.StatusOf(id).ValueOrDie();
    total_adoptions += status.recluster_adoptions;
  }

  // The final warm advises above are the freshest entries in the SLO
  // windows, so the telemetry snapshot is taken after them.
  const TelemetrySnapshot telemetry = service.Telemetry();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  const HistogramStats query_compute =
      snapshot.histogram("service.query.compute_ns");
  const HistogramStats query_queue =
      snapshot.histogram("service.query.queue_ns");
  const HistogramStats pin_wait = snapshot.histogram("service.epoch.pin_ns");
  const uint64_t published = snapshot.counter("service.epochs_published");

  TextTable table({"metric", "value"});
  table.AddRow({"mixed requests", std::to_string(submitted)});
  table.AddRow({"sustained req/s", FormatDouble(rps, 0)});
  table.AddRow({"query compute p99 (us)",
                FormatDouble(query_compute.p99 / 1e3, 1)});
  table.AddRow({"query queue p99 (us)",
                FormatDouble(query_queue.p99 / 1e3, 1)});
  table.AddRow({"pin wait p99 (ns)", FormatDouble(pin_wait.p99, 0)});
  table.AddRow({"pin wait max (ns)", std::to_string(pin_wait.max)});
  table.AddRow({"storm queries", std::to_string(storm_queries)});
  table.AddRow({"storm failures", std::to_string(storm_failures)});
  table.AddRow({"epochs published", std::to_string(published)});
  table.AddRow({"background adoptions",
                std::to_string(total_adoptions -
                               static_cast<uint64_t>(tenants))});
  table.AddRow({"warm == direct", bit_identical ? "bit-identical" : "NO"});
  std::printf("%s\n", table.Render().c_str());

  // ---- Guards ----------------------------------------------------------
  const double required_rps = 200.0;
  const double query_p99_bound_ns = 250e6;  // 250 ms
  const double pin_p99_bound_ns = 5e6;      // 5 ms: readers never block
  SNAKES_CHECK(tenants < 8 || rps >= required_rps)
      << "sustained " << rps << " req/s < required " << required_rps;
  SNAKES_CHECK(query_compute.p99 <= query_p99_bound_ns)
      << "query compute p99 " << query_compute.p99 << " ns over bound";
  SNAKES_CHECK(pin_wait.p99 <= pin_p99_bound_ns)
      << "epoch pin p99 " << pin_wait.p99
      << " ns: readers blocked on publication";
  SNAKES_CHECK(storm_failures == 0)
      << storm_failures << " queries failed during background reclustering";
  SNAKES_CHECK(total_adoptions >= static_cast<uint64_t>(2 * tenants))
      << "storm produced no background adoptions";
  SNAKES_CHECK(bit_identical)
      << "service Advise diverged from AdviseIncremental";

  // ---- Artifact --------------------------------------------------------
  std::string json = "{\n  \"bench\": \"service_throughput\",\n";
  json += "  \"backend\": \"" +
          std::string(StorageBackendKindName(backend_kind.value())) + "\",\n";
  json += "  \"tenants\": " + std::to_string(tenants) + ",\n";
  json += "  \"request_threads\": " + std::to_string(threads) + ",\n";
  json += "  \"mixed_requests\": " + std::to_string(submitted) + ",\n";
  json += "  \"mixed_seconds\": " + FormatDouble(mixed_s, 3) + ",\n";
  json += "  \"sustained_rps\": " + FormatDouble(rps, 1) + ",\n";
  json += "  \"required_rps\": " + FormatDouble(required_rps, 1) + ",\n";
  json += "  \"query_compute_p99_ns\": " + FormatDouble(query_compute.p99, 0) +
          ",\n";
  json += "  \"query_queue_p99_ns\": " + FormatDouble(query_queue.p99, 0) +
          ",\n";
  json += "  \"query_p99_bound_ns\": " + FormatDouble(query_p99_bound_ns, 0) +
          ",\n";
  json += "  \"pin_wait_p99_ns\": " + FormatDouble(pin_wait.p99, 0) + ",\n";
  json += "  \"pin_wait_max_ns\": " + std::to_string(pin_wait.max) + ",\n";
  json += "  \"pin_p99_bound_ns\": " + FormatDouble(pin_p99_bound_ns, 0) +
          ",\n";
  json += "  \"storm_queries\": " + std::to_string(storm_queries) + ",\n";
  json += "  \"storm_failures\": " + std::to_string(storm_failures) + ",\n";
  json += "  \"end_epochs\": " + std::to_string(end_epochs) + ",\n";
  json += "  \"epochs_published\": " + std::to_string(published) + ",\n";
  json += "  \"recluster_adoptions\": " + std::to_string(total_adoptions) +
          ",\n";
  json += "  \"bit_identical\": ";
  json += bit_identical ? "true" : "false";
  json += ",\n  \"metrics\": " + snapshot.ToJson(/*pretty=*/false);
  json += ",\n  \"telemetry\": " + telemetry.ToJson(/*pretty=*/false) + "\n}\n";
  std::ofstream out(out_path);
  out << json;
  SNAKES_CHECK(out.good()) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());

  if (!telemetry_path.empty()) {
    std::ofstream tout(telemetry_path);
    tout << telemetry.ToJson(/*pretty=*/true);
    SNAKES_CHECK(tout.good()) << "failed to write " << telemetry_path;
    std::printf("wrote %s (%zu requests, %zu tenants, %zu audit entries)\n",
                telemetry_path.c_str(), telemetry.requests.size(),
                telemetry.tenants.size(), telemetry.audit.size());
  }
  return 0;
}

}  // namespace
}  // namespace snakes

int main(int argc, char** argv) { return snakes::Run(argc, argv); }
