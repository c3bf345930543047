#ifndef SNAKES_SERVICE_SERVICE_H_
#define SNAKES_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/advisor.h"
#include "core/query_parser.h"
#include "cost/cost_model.h"
#include "hierarchy/dimension_table.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "lattice/workload.h"
#include "lattice/workload_delta.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/request_context.h"
#include "recluster/engine.h"
#include "service/telemetry.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "storage/query_engine.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace snakes {

class Counter;

/// Stable id of a registered tenant (dense, assigned at registration).
using TenantId = uint64_t;

/// Knobs of the always-on advisor service.
struct ServiceConfig {
  /// Workers serving advise/measure/query/ingest requests. Relayouts never
  /// run here — they go to a dedicated background worker so a long pack
  /// cannot occupy the serving pool.
  int request_threads = 1;
  /// Sliding window (epochs) of each tenant's WindowDriftEstimator.
  int window_epochs = 4;
  /// Ingested queries that automatically close a tenant epoch (0 = epochs
  /// close only via EndEpoch/SubmitEndEpoch).
  uint64_t ingests_per_epoch = 0;
  /// Fire a background recluster epoch whenever a tenant epoch closes.
  bool recluster_on_epoch_close = true;
  /// Per-tenant ReclusterEngine knobs. The engine advises on the workload
  /// the service feeds it — the window-smoothed estimate — so the default
  /// alpha of 1.0 avoids smoothing twice; obs and storage are overridden
  /// with the service's own below.
  ReclusterConfig recluster = [] {
    ReclusterConfig config;
    config.ewma_alpha = 1.0;
    return config;
  }();
  StorageConfig storage;
  /// Metrics/tracing backends shared by every tenant. Request handlers
  /// record per-type queue-wait and compute histograms
  /// (service.<type>.queue_ns / service.<type>.compute_ns), per-tenant
  /// counters (service.tenant.<name>.<type>), and spans nesting
  /// request/<verb> -> service/<type> -> the library's advisor/storage
  /// spans (every span under a request carries its "rid" arg).
  ObsSink obs;
  /// Always-on request telemetry: flight-recorder capacity, SLO-window
  /// shape, sampler cadence, recluster-audit depth, error-dump path.
  TelemetryConfig telemetry;
};

/// Everything the service needs to own one fact table.
struct TenantSpec {
  /// Unique name; doubles as the tenant key of the textual Dispatch surface.
  std::string name;
  std::shared_ptr<const StarSchema> schema;
  /// May be null: an analytic tenant (advise only; measure/query fail with
  /// FailedPrecondition).
  std::shared_ptr<const FactTable> facts;
  /// One table per schema dimension, in schema order; empty disables the
  /// textual query surface for this tenant (typed requests still work).
  std::vector<DimensionTable> tables;
  /// Storage representation the tenant's layouts are packed into. Switchable
  /// live via SetBackend / the `backend` Dispatch verb; QueryAnswers are
  /// bit-identical across backends.
  StorageBackendKind backend = StorageBackendKind::kPacked;
  /// Time model pricing this tenant's expected_ms and net-benefit scores
  /// (analytic default). Switchable live via SetCostModel / the `costmodel`
  /// Dispatch verb; rankings and cached per-class costs are model-independent
  /// and survive every switch.
  CostModelSpec cost_model;
  /// Seeds the drift window and drives the initial advise + pack, so the
  /// tenant serves queries from registration on. Unset = uniform workload.
  std::optional<Workload> initial_workload;
};

/// One published generation of a tenant's physical design. Readers pin the
/// epoch by holding the shared_ptr; a background relayout publishes a fresh
/// epoch by swapping the tenant's pointer under a mutex held only for the
/// swap, and the superseded epoch is destroyed when its last pinned reader
/// drains — the double-buffering that keeps readers block-free during
/// reclustering.
struct TenantEpoch {
  /// Publish count (1 = the registration layout).
  uint64_t sequence = 0;
  std::shared_ptr<const Linearization> linearization;
  /// The packed storage representation; null for analytic tenants.
  std::shared_ptr<const StorageBackend> backend;
};

/// Point-in-time view of one tenant's serving state.
struct TenantStatus {
  TenantId id = 0;
  std::string name;
  uint64_t epochs_closed = 0;
  uint64_t ingested_total = 0;
  uint64_t ingested_this_epoch = 0;
  uint64_t published_sequence = 0;
  uint64_t recluster_epochs = 0;
  uint64_t recluster_adoptions = 0;
  std::string current_strategy;
  /// Name of the tenant's storage backend ("packed" / "micropartition").
  std::string backend;
  /// Name of the tenant's cost model ("analytic" / "hdd" / "ssd" /
  /// "calibrated").
  std::string cost_model;

  std::string ToString() const;
};

/// A long-lived, multi-tenant advisor daemon over the library: registers
/// fact tables, ingests a stream of parsed GridQuerys per tenant, maintains
/// sliding-window workload estimates, and serves concurrent Advise /
/// Measure / Query traffic batched onto a ThreadPool while per-tenant
/// ReclusterEngine epochs fire on a background worker against double-
/// buffered StorageBackend epochs.
///
///   AdvisorService service(config);
///   TenantId t = service.RegisterTenant(spec).value();
///   auto answer = service.SubmitQuery(t, query);     // future<Result<...>>
///   service.Ingest(t, query); ...; service.EndEpoch(t);
///   auto rec = service.Advise(t);  // bit-identical to AdviseIncremental
///
/// Thread-safety: every public method is safe to call concurrently. Per
/// tenant, workload state (window + advise memo) is guarded by one mutex,
/// the recluster engine by another, the class-cost table they share by
/// per-strategy fill locks, and the epoch pointer by one held only for
/// pointer copies — readers never wait on an advise or a relayout. Warm
/// results are bit-identical to direct library calls
/// (BitIdenticalRecommendations): the service adds no numeric state of its
/// own, only memoization that is already exact.
class AdvisorService {
 public:
  explicit AdvisorService(ServiceConfig config = {});
  /// Drains both pools (pending requests and reclusters complete).
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// Registers a tenant: validates the spec, seeds the drift window with
  /// the initial workload, advises, packs (when facts are present), and
  /// publishes epoch 1. Names must be unique and non-empty.
  Result<TenantId> RegisterTenant(TenantSpec spec);

  uint64_t num_tenants() const;
  /// The id registered under `name`, or NotFound.
  Result<TenantId> FindTenant(std::string_view name) const;

  // ---- Synchronous request surface ------------------------------------
  //
  // RegisterTenant and every request method below — sync, Submit*,
  // Dispatch, SubmitDispatch — run through one private handler, so a verb
  // behaves and is recorded the same whichever surface it came in by: each
  // call leaves exactly one flight-recorder record.

  /// Records one parsed query into the tenant's open epoch. Closes the
  /// epoch automatically when config.ingests_per_epoch is reached.
  Status Ingest(TenantId id, const GridQuery& query);

  /// Closes the tenant's open epoch: folds the ingested distribution into
  /// the sliding window and (per config) fires a background recluster.
  /// Returns the closed-epoch count; FailedPrecondition when no queries
  /// were ingested since the last close.
  Result<uint64_t> EndEpoch(TenantId id);

  /// Advises on the tenant's window-smoothed workload through its memoized
  /// incremental state. Bit-identical to ClusteringAdvisor::AdviseIncremental
  /// on SmoothedWorkload(id) — the contract tests/service_test.cc verifies
  /// with BitIdenticalRecommendations, including after a recluster storm.
  Result<Recommendation> Advise(TenantId id);

  /// Executes an aggregate grid query against the pinned epoch's layout.
  Result<QueryAnswer> Query(TenantId id, const GridQuery& query);

  /// Measures the I/O footprint of one query against the pinned epoch.
  Result<QueryIo> Measure(TenantId id, const GridQuery& query);

  /// Runs one ReclusterEngine epoch on the calling thread and publishes the
  /// adopted layout (if any) as a new TenantEpoch.
  Result<EpochReport> ReclusterNow(TenantId id);

  /// Repacks the tenant's live clustering into `kind` and publishes the
  /// result as a new epoch. No-op when the tenant already serves from that
  /// representation. Later recluster adoptions pack into `kind` too.
  /// QueryAnswers before and after the switch are bit-identical.
  Status SetBackend(TenantId id, StorageBackendKind kind);

  /// Swaps the tenant's live cost model (advise expected_ms and recluster
  /// net-benefit pricing). Rankings, expected_cost, and the per-class memo
  /// are model-independent, so a warm re-advise after a switch still serves
  /// entirely from cache with bit-identical expected_cost.
  Status SetCostModel(TenantId id, const CostModelSpec& spec);

  // ---- Batched request surface ----------------------------------------

  /// Each Submit* enqueues the request onto the request pool and returns
  /// its future; the enqueue time is taken at submit, so the recorded
  /// request carries its real queue wait, and queue-wait / compute
  /// histograms are recorded per request type. After Shutdown() the future
  /// is immediately ready with FailedPrecondition.
  std::future<Status> SubmitIngest(TenantId id, GridQuery query);
  std::future<Result<uint64_t>> SubmitEndEpoch(TenantId id);
  std::future<Result<Recommendation>> SubmitAdvise(TenantId id);
  std::future<Result<QueryAnswer>> SubmitQuery(TenantId id, GridQuery query);
  std::future<Result<QueryIo>> SubmitMeasure(TenantId id, GridQuery query);
  /// Queues a recluster epoch on the background worker.
  std::future<Result<EpochReport>> SubmitRecluster(TenantId id);

  // ---- Textual surface -------------------------------------------------

  /// Parses and serves one textual request against the named tenant:
  ///
  ///   advise                 | end-epoch | recluster | status
  ///   ingest <query text>    | query <query text> | measure <query text>
  ///   backend [packed|micropartition]   (no argument = report current)
  ///   costmodel [analytic|hdd|ssd | calibrated <json-or-path>]
  ///                                     (no argument = report current)
  ///
  /// Query text is the core/query_parser clause syntax and requires the
  /// tenant to have registered dimension tables. Every malformed input —
  /// unknown tenant, unknown verb, unparsable query — comes back as an
  /// error Status, never a crash (fuzzed by tests/service_fuzz_test.cc).
  Result<std::string> Dispatch(std::string_view tenant_name,
                               std::string_view request);

  /// Dispatch on the request pool.
  std::future<Result<std::string>> SubmitDispatch(std::string tenant_name,
                                                  std::string request);

  // ---- Telemetry -------------------------------------------------------

  /// Nanoseconds since the service was constructed (the service clock every
  /// request timestamp, epoch age, and audit entry is stamped on).
  uint64_t NowNs() const;

  /// Point-in-time view of the telemetry layer: the flight recorder's
  /// resident requests, per-tenant SLO windows / epoch age / recluster
  /// backlog, the recluster audit log, and tracer span accounting.
  TelemetrySnapshot Telemetry() const;

  /// The always-on ring of completed requests.
  const FlightRecorder& flight_recorder() const { return recorder_; }

  /// Every ReclusterDecision with the inputs that produced it.
  const ReclusterAuditLog& audit_log() const { return audit_; }

  /// Rotates every tenant's SLO window by one slice. Called by the sampler
  /// thread each config.telemetry.sampler_interval_ms; exposed so tests and
  /// tools with the sampler disabled can rotate deterministically.
  void AdvanceSloWindows();

  // ---- Introspection (not recorded as requests) ------------------------

  /// Pins the tenant's current epoch (never null once registered).
  Result<std::shared_ptr<const TenantEpoch>> PinEpoch(TenantId id) const;

  /// The tenant's current window-smoothed workload estimate.
  Result<Workload> SmoothedWorkload(TenantId id) const;

  Result<TenantStatus> StatusOf(TenantId id) const;

  /// Stops admission on both pools and drains them. Idempotent; in-flight
  /// requests finish, new submissions fail with FailedPrecondition.
  void Shutdown();

  const ServiceConfig& config() const { return config_; }

 private:
  struct Tenant;
  /// One request, whichever surface it arrived on: the verb, the tenant
  /// (by id, or by name for textual requests), and the verb's argument.
  struct Request;
  /// Handle's result: the verb's typed reply, or the reply line of a
  /// textual request.
  struct Reply;

  /// The one request path. Assigns the request id, installs the thread's
  /// RequestContext and "request/<verb>" span, resolves the tenant, parses a
  /// textual request's payload, validates the argument, counts the request
  /// against the tenant, runs the verb's body, and records the completed
  /// request into the flight recorder and the tenant's SLO window.
  /// `enqueue_ns` is the service-clock submit time (the call time for sync
  /// calls).
  Result<Reply> Handle(Request request, uint64_t enqueue_ns);

  /// Enqueues Handle(request) on `pool` with queue-wait/compute histograms
  /// for `type`; rejection after Shutdown surfaces as an immediately-ready
  /// FailedPrecondition future.
  template <typename R>
  std::future<R> Enqueue(ThreadPool* pool, const char* type, Request request);

  /// Looks a tenant up by id (NotFound past the registered range) or name.
  Result<Tenant*> Find(TenantId id) const;
  Result<Tenant*> Find(std::string_view name) const;

  /// Appends the decision of one engine epoch (with its inputs) to the
  /// audit log, attributed to the current request if any.
  void AuditDecision(const Tenant* tenant, const EpochReport& report);

  /// Body of the sampler thread: AdvanceSloWindows every interval.
  void SamplerLoop();
  void StopSampler();

  /// Closes the open epoch into the sliding window. Caller holds
  /// tenant->state_mu.
  Status CloseEpochLocked(Tenant* tenant);

  /// Epoch-close follow-up: fire-and-forget background recluster, itself a
  /// request through Handle.
  void MaybeScheduleRecluster(Tenant* tenant);

  /// Builds a TenantEpoch around the adopted linearization/backend, stamps
  /// the next sequence number, and swaps it in as the tenant's published
  /// epoch (the pointer swap is the only step under epoch_mu).
  void Publish(Tenant* tenant, std::shared_ptr<const Linearization> lin,
               std::shared_ptr<const StorageBackend> backend);

  ServiceConfig config_;
  /// Epoch of the service clock (NowNs).
  const std::chrono::steady_clock::time_point clock_epoch_;
  FlightRecorder recorder_;
  ReclusterAuditLog audit_;
  std::atomic<uint64_t> next_request_id_{1};
  /// Resolved once when metrics are attached.
  Counter* requests_completed_ = nullptr;
  Counter* requests_errors_ = nullptr;

  std::unique_ptr<ThreadPool> request_pool_;
  /// One worker: relayouts for different tenants run serially in the
  /// background, never on the serving pool.
  std::unique_ptr<ThreadPool> background_pool_;

  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  std::thread sampler_thread_;

  mutable std::mutex tenants_mu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unordered_map<std::string, TenantId> by_name_;
};

}  // namespace snakes

#endif  // SNAKES_SERVICE_SERVICE_H_
