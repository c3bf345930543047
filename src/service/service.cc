#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "lattice/lattice.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/executor.h"
#include "util/text_table.h"

namespace snakes {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Typed requests bypass the parser, so the service re-checks the geometry
/// a GridQuery claims before any storage code trusts it.
Status ValidateQuery(const StarSchema& schema, const GridQuery& query) {
  if (query.cls.num_dims() != schema.num_dims() ||
      query.block.size() != static_cast<size_t>(schema.num_dims())) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.cls.num_dims()) +
        " class dims / " + std::to_string(query.block.size()) +
        " blocks for a " + std::to_string(schema.num_dims()) + "-dim schema");
  }
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    const int level = query.cls.level(d);
    if (level < 0 || level > h.num_levels()) {
      return Status::OutOfRange("query level " + std::to_string(level) +
                                " outside [0, " +
                                std::to_string(h.num_levels()) +
                                "] in dimension " + h.name());
    }
    if (query.block[static_cast<size_t>(d)] >= h.num_blocks(level)) {
      return Status::OutOfRange(
          "query block " +
          std::to_string(query.block[static_cast<size_t>(d)]) +
          " outside level " + std::to_string(level) + " of dimension " +
          h.name() + " (" + std::to_string(h.num_blocks(level)) + " blocks)");
    }
  }
  return Status::OK();
}

std::string_view TrimWhitespace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A textual request split into its verb word and its trimmed payload.
std::pair<std::string_view, std::string_view> SplitVerb(
    std::string_view request) {
  const std::string_view trimmed = TrimWhitespace(request);
  const size_t space = trimmed.find(' ');
  return {trimmed.substr(0, space),
          space == std::string_view::npos
              ? std::string_view{}
              : TrimWhitespace(trimmed.substr(space + 1))};
}

/// Name of the span around each verb's body, indexed by RequestVerb.
constexpr const char* kServiceSpanNames[kNumRequestVerbs] = {
    "service/unknown",   "service/ingest",      "service/end_epoch",
    "service/advise",    "service/query",       "service/measure",
    "service/recluster", "service/set_backend", "service/status",
    "service/register",  "service/telemetry",   "service/set_cost_model"};

Status AlreadyRegistered(const std::string& name) {
  return Status::InvalidArgument("tenant '" + name + "' is already registered");
}

}  // namespace

std::string TenantStatus::ToString() const {
  std::string out = "tenant " + name + " (id " + std::to_string(id) + ")\n";
  out += "  epochs closed " + std::to_string(epochs_closed) + ", ingested " +
         std::to_string(ingested_total) + " (" +
         std::to_string(ingested_this_epoch) + " open)\n";
  out += "  published epoch " + std::to_string(published_sequence) +
         ", strategy " + (current_strategy.empty() ? "-" : current_strategy) +
         ", backend " + (backend.empty() ? "-" : backend) + ", cost model " +
         (cost_model.empty() ? "-" : cost_model) + "\n";
  out += "  recluster epochs " + std::to_string(recluster_epochs) +
         ", adoptions " + std::to_string(recluster_adoptions) + "\n";
  return out;
}

struct AdvisorService::Request {
  /// A textual request as Dispatch received it. Handle resolves the tenant
  /// by name and parses the payload into the verb's typed argument.
  struct Text {
    std::string tenant_name;
    std::string text;
  };
  /// Marks the recluster a closed epoch scheduled in the background. It
  /// runs on the service's behalf, so it does not count as a tenant request.
  struct Background {};

  RequestVerb verb = RequestVerb::kUnknown;
  /// Unused by textual requests, which name their tenant.
  TenantId tenant = kNoTenant;
  std::variant<std::monostate, GridQuery, StorageBackendKind, CostModelSpec,
               TenantSpec, Text, Background>
      arg;

  static Request FromText(std::string tenant_name, std::string text) {
    // The verb is parsed before Handle runs, so the recorded request
    // carries it even when the tenant lookup or the request itself fails.
    const RequestVerb verb = ParseRequestVerb(SplitVerb(text).first);
    return {verb, kNoTenant, Text{std::move(tenant_name), std::move(text)}};
  }
};

struct AdvisorService::Reply {
  /// uint64_t carries both a registered TenantId and a closed-epoch count;
  /// std::string is the reply line of a textual request.
  std::variant<std::monostate, uint64_t, Recommendation, QueryAnswer, QueryIo,
               EpochReport, std::string>
      body;

  /// The typed surfaces' view of a reply: R is Status or Result<T>.
  template <typename R>
  static R Unpack(Result<Reply> reply) {
    if constexpr (std::is_same_v<R, Status>) {
      return reply.status();
    } else {
      if (!reply.ok()) return reply.status();
      using T = decltype(std::declval<R>().value());
      return std::get<T>(std::move(reply).value().body);
    }
  }
};

struct AdvisorService::Tenant {
  Tenant(TenantId id_in, TenantSpec spec, const ReclusterConfig& engine_config,
         int window_epochs, int slo_buckets)
      : id(id_in),
        name(std::move(spec.name)),
        schema(std::move(spec.schema)),
        facts(std::move(spec.facts)),
        tables(std::move(spec.tables)),
        lattice(*schema),
        advisor(schema),
        window(lattice, window_epochs),
        pending(lattice.size(), 0.0),
        cost_model(engine_config.cost_model != nullptr
                       ? engine_config.cost_model
                       : DefaultCostModel()),
        engine(schema, facts, engine_config),
        slo(slo_buckets) {
    advise_state.cost_cache.ShareTable(engine.state().cost_cache);
  }

  TenantId id;
  const std::string name;
  const std::shared_ptr<const StarSchema> schema;
  const std::shared_ptr<const FactTable> facts;
  const std::vector<DimensionTable> tables;
  const QueryClassLattice lattice;
  const ClusteringAdvisor advisor;

  /// Guards the workload state: window, advise memo (its class-cost table is
  /// the engine's, guarded by per-strategy fill locks), open-epoch counts.
  mutable std::mutex state_mu;
  WindowDriftEstimator window;
  IncrementalAdvisorState advise_state;
  std::vector<double> pending;
  uint64_t pending_ingests = 0;
  uint64_t ingested_total = 0;
  uint64_t epochs_closed = 0;
  /// The tenant's live time model (never null); prices advise expected_ms.
  /// Guarded by state_mu; SetCostModel also hands it to the engine under
  /// recluster_mu for net-benefit pricing.
  std::shared_ptr<const CostModel> cost_model;

  /// Serializes ReclusterEngine epochs (the engine is not thread-safe).
  mutable std::mutex recluster_mu;
  ReclusterEngine engine;

  /// Held only to copy or swap the epoch pointer — never across an advise,
  /// a pack, or any I/O, which is what keeps readers block-free.
  mutable std::mutex epoch_mu;
  std::shared_ptr<const TenantEpoch> epoch;
  uint64_t published_sequence = 0;

  /// Sliding-window latency/error SLO tracker, rotated by the sampler.
  SloWindow slo;
  /// Service-clock time of the last Publish (epoch age in telemetry).
  std::atomic<uint64_t> last_publish_ns{0};
  /// Background reclusters scheduled vs finished; the difference is the
  /// tenant's recluster backlog.
  std::atomic<uint64_t> reclusters_scheduled{0};
  std::atomic<uint64_t> reclusters_completed{0};

  /// Resolved once at registration when metrics are attached.
  Counter* requests_counter = nullptr;
  Counter* ingested_counter = nullptr;
  Counter* reclusters_counter = nullptr;
  Histogram* pin_histogram = nullptr;

  void CountRequest() const {
    if (requests_counter != nullptr) requests_counter->Inc();
  }

  /// Copies the published epoch pointer, timing the copy into
  /// service.epoch.pin_ns.
  Result<std::shared_ptr<const TenantEpoch>> Pin() const {
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const TenantEpoch> pinned;
    {
      std::lock_guard<std::mutex> lock(epoch_mu);
      pinned = epoch;
    }
    if (pin_histogram != nullptr) pin_histogram->Record(ElapsedNs(start));
    if (pinned == nullptr) {
      return Status::Internal("tenant '" + name + "' has no published epoch");
    }
    return pinned;
  }

  /// What StatusOf and the `status` verb report.
  TenantStatus Describe() const {
    TenantStatus status;
    status.id = id;
    status.name = name;
    {
      std::lock_guard<std::mutex> lock(state_mu);
      status.epochs_closed = epochs_closed;
      status.ingested_total = ingested_total;
      status.ingested_this_epoch = pending_ingests;
      status.cost_model = cost_model->name();
    }
    {
      std::lock_guard<std::mutex> lock(epoch_mu);
      status.published_sequence = published_sequence;
    }
    {
      std::lock_guard<std::mutex> lock(recluster_mu);
      status.recluster_epochs = engine.epochs_seen();
      status.recluster_adoptions = engine.adoptions();
      status.backend = StorageBackendKindName(engine.backend_kind());
      if (engine.current() != nullptr) {
        status.current_strategy = engine.current()->name();
      }
    }
    return status;
  }
};

AdvisorService::AdvisorService(ServiceConfig config)
    : config_(std::move(config)),
      clock_epoch_(std::chrono::steady_clock::now()),
      recorder_(config_.telemetry.recorder_capacity),
      audit_(config_.telemetry.audit_capacity),
      request_pool_(std::make_unique<ThreadPool>(
          config_.request_threads <= 0 ? 1 : config_.request_threads)),
      background_pool_(std::make_unique<ThreadPool>(1)) {
  if (config_.obs.metrics != nullptr) {
    requests_completed_ =
        config_.obs.metrics->GetCounter("service.requests.completed");
    requests_errors_ =
        config_.obs.metrics->GetCounter("service.requests.errors");
  }
  if (!config_.telemetry.error_dump_path.empty()) {
    // One-shot: on the first non-OK request the recorder dumps itself, so
    // the lead-up to the first failure is preserved without being asked.
    recorder_.SetErrorHook([this](const RequestRecord&) {
      std::ofstream out(config_.telemetry.error_dump_path);
      out << recorder_.ToJson(/*pretty=*/true);
    });
  }
  if (config_.telemetry.sampler_interval_ms > 0) {
    sampler_thread_ = std::thread(&AdvisorService::SamplerLoop, this);
  }
}

AdvisorService::~AdvisorService() { Shutdown(); }

uint64_t AdvisorService::NowNs() const { return ElapsedNs(clock_epoch_); }

void AdvisorService::SamplerLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.telemetry.sampler_interval_ms);
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_) {
    if (sampler_cv_.wait_for(lock, interval,
                             [this] { return sampler_stop_; })) {
      break;
    }
    lock.unlock();
    AdvanceSloWindows();
    lock.lock();
  }
}

void AdvisorService::StopSampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_thread_.joinable()) sampler_thread_.join();
}

void AdvisorService::AdvanceSloWindows() {
  std::vector<Tenant*> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& tenant : tenants_) tenants.push_back(tenant.get());
  }
  // Tenant storage is stable (append-only vector of unique_ptrs), so the
  // rotation runs outside tenants_mu_.
  for (Tenant* tenant : tenants) tenant->slo.Advance();
}

void AdvisorService::Shutdown() {
  StopSampler();
  // Requests first: a draining request may still schedule a recluster,
  // which the background pool either runs (pre-shutdown) or rejects into
  // the service.recluster.rejected counter.
  request_pool_->Shutdown();
  background_pool_->Shutdown();
}

Result<AdvisorService::Tenant*> AdvisorService::Find(TenantId id) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (id >= tenants_.size()) {
    return Status::NotFound("no tenant with id " + std::to_string(id));
  }
  return tenants_[id].get();
}

Result<AdvisorService::Tenant*> AdvisorService::Find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no tenant named '" + std::string(name) + "'");
  }
  return tenants_[it->second].get();
}

Result<TenantId> AdvisorService::FindTenant(std::string_view name) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return tenant->id;
}

uint64_t AdvisorService::num_tenants() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.size();
}

Result<AdvisorService::Reply> AdvisorService::Handle(Request request,
                                                     uint64_t enqueue_ns) {
  // The request's context is this thread's current one until Handle returns,
  // so every span under it carries its "rid" (the "request/<verb>" span
  // reads it, hence the order).
  RequestContext ctx{
      .id = next_request_id_.fetch_add(1, std::memory_order_relaxed),
      .verb = request.verb,
      .enqueue_ns = enqueue_ns,
      .start_ns = NowNs()};
  const RequestContextScope scope(&ctx);
  const ScopedSpan request_span(
      config_.obs.tracer,
      std::string("request/") + RequestVerbName(request.verb), "request");
  Tenant* tenant = nullptr;  // once the request resolves its tenant
  Result<Reply> out = [&]() -> Result<Reply> {
    if (auto* spec = std::get_if<TenantSpec>(&request.arg)) {
      ScopedSpan span(config_.obs.tracer,
                      kServiceSpanNames[static_cast<int>(request.verb)],
                      "service");
      if (spec->name.empty()) {
        return Status::InvalidArgument("tenant name must be non-empty");
      }
      if (spec->schema == nullptr) {
        return Status::InvalidArgument("tenant schema must be non-null");
      }
      if (spec->facts != nullptr &&
          &spec->facts->schema() != spec->schema.get()) {
        return Status::InvalidArgument(
            "tenant fact table belongs to a different schema");
      }
      if (!spec->tables.empty() &&
          spec->tables.size() !=
              static_cast<size_t>(spec->schema->num_dims())) {
        return Status::InvalidArgument(
            "tenant needs one dimension table per schema dimension (got " +
            std::to_string(spec->tables.size()) + " for " +
            std::to_string(spec->schema->num_dims()) + " dims)");
      }
      // A taken name fails before the advise and the pack; the insert below
      // re-checks under tenants_mu_ for concurrent registrations.
      if (Find(spec->name).ok()) return AlreadyRegistered(spec->name);
      span.AddArg("tenant", spec->name);

      ReclusterConfig engine_config = config_.recluster;
      engine_config.storage = config_.storage;
      engine_config.backend = spec->backend;
      engine_config.obs = config_.obs;
      SNAKES_ASSIGN_OR_RETURN(engine_config.cost_model,
                              MakeCostModel(spec->cost_model));
      span.AddArg("cost_model", engine_config.cost_model->name());

      const QueryClassLattice lattice(*spec->schema);
      Workload initial = spec->initial_workload.has_value()
                             ? *spec->initial_workload
                             : Workload::Uniform(lattice);
      if (initial.size() != lattice.size()) {
        return Status::InvalidArgument(
            "initial workload lattice does not match the tenant schema");
      }

      auto owned = std::make_unique<Tenant>(0, std::move(*spec), engine_config,
                                            config_.window_epochs,
                                            config_.telemetry.slo_buckets);
      Tenant* t = owned.get();
      SNAKES_RETURN_IF_ERROR(t->window.Observe(initial));

      // Advise + pack + publish epoch 1 before the tenant becomes visible,
      // so a registered tenant always serves from a live epoch.
      EpochReport initial_report;
      {
        std::lock_guard<std::mutex> lock(t->recluster_mu);
        SNAKES_ASSIGN_OR_RETURN(initial_report, t->engine.OnEpoch(initial));
        Publish(t, t->engine.current(), t->engine.current_backend());
      }

      std::lock_guard<std::mutex> lock(tenants_mu_);
      if (by_name_.count(t->name) > 0) return AlreadyRegistered(t->name);
      const TenantId id = tenants_.size();
      t->id = id;
      tenant = t;
      ctx.tenant = id;
      AuditDecision(t, initial_report);
      if (config_.obs.metrics != nullptr) {
        MetricsRegistry* metrics = config_.obs.metrics;
        const std::string prefix = "service.tenant." + t->name;
        t->requests_counter = metrics->GetCounter(prefix + ".requests");
        t->ingested_counter = metrics->GetCounter(prefix + ".ingested");
        t->reclusters_counter = metrics->GetCounter(prefix + ".reclusters");
        t->pin_histogram = metrics->GetHistogram("service.epoch.pin_ns");
        metrics->GetCounter("service.tenants")->Inc();
      }
      by_name_.emplace(t->name, id);
      tenants_.push_back(std::move(owned));
      return Reply{id};
    }

    const auto* text = std::get_if<Request::Text>(&request.arg);
    SNAKES_ASSIGN_OR_RETURN(tenant, text != nullptr ? Find(text->tenant_name)
                                                    : Find(request.tenant));
    ctx.tenant = tenant->id;

    // A textual request: parse the payload into the verb's typed argument.
    // The verbs that only report on the tenant answer right here.
    const bool textual = text != nullptr;
    if (textual) {
      const auto [word, payload] = SplitVerb(text->text);
      switch (request.verb) {
        case RequestVerb::kIngest:
        case RequestVerb::kQuery:
        case RequestVerb::kMeasure: {
          if (tenant->tables.empty()) {
            return Status::FailedPrecondition(
                "tenant '" + tenant->name +
                "' registered no dimension tables; textual queries are "
                "disabled");
          }
          SNAKES_ASSIGN_OR_RETURN(
              GridQuery query,
              ParseGridQuery(*tenant->schema, tenant->tables, payload));
          request.arg = query;  // ends `text`, `word` and `payload`
          break;
        }
        case RequestVerb::kAdvise:
        case RequestVerb::kEndEpoch:
        case RequestVerb::kRecluster:
          break;
        case RequestVerb::kStatus:
          return Reply{tenant->Describe().ToString()};
        case RequestVerb::kBackend: {
          if (payload.empty()) {
            std::lock_guard<std::mutex> lock(tenant->recluster_mu);
            return Reply{"backend " + std::string(StorageBackendKindName(
                                          tenant->engine.backend_kind()))};
          }
          SNAKES_ASSIGN_OR_RETURN(StorageBackendKind kind,
                                  ParseStorageBackendKind(payload));
          request.arg = kind;
          break;
        }
        case RequestVerb::kCostModel: {
          //   costmodel                         -> report the live model
          //   costmodel analytic|hdd|ssd        -> switch to a preset
          //   costmodel calibrated <json|path>  -> load fitted coefficients
          if (payload.empty()) {
            std::lock_guard<std::mutex> lock(tenant->state_mu);
            return Reply{"costmodel " + tenant->cost_model->name() + " " +
                         tenant->cost_model->ToJson()};
          }
          const size_t space = payload.find(' ');
          CostModelSpec spec;
          SNAKES_ASSIGN_OR_RETURN(spec.kind,
                                  ParseCostModelKind(payload.substr(0, space)));
          if (space != std::string_view::npos) {
            spec.calibrated_json =
                std::string(TrimWhitespace(payload.substr(space + 1)));
          }
          request.arg = std::move(spec);
          break;
        }
        case RequestVerb::kTelemetry:
          // Service-wide telemetry, reachable from any registered tenant:
          //   telemetry [json]   -> full snapshot as JSON
          //   telemetry prom     -> Prometheus text exposition
          //   telemetry recorder -> flight-recorder dump only
          //   telemetry advance  -> rotate the SLO windows (sampler-less)
          if (payload.empty() || payload == "json") {
            return Reply{Telemetry().ToJson(/*pretty=*/true)};
          }
          if (payload == "prom" || payload == "prometheus") {
            return Reply{Telemetry().ToPrometheus()};
          }
          if (payload == "recorder") {
            return Reply{recorder_.ToJson(/*pretty=*/true)};
          }
          if (payload == "advance") {
            AdvanceSloWindows();
            return Reply{std::string("advanced slo windows")};
          }
          return Status::InvalidArgument("unknown telemetry format '" +
                                         std::string(payload) + "'");
        default:
          return Status::InvalidArgument("unknown request verb '" +
                                         std::string(word) + "'");
      }
    }

    Reply reply;
    {
      ScopedSpan span(config_.obs.tracer,
                      kServiceSpanNames[static_cast<int>(request.verb)],
                      "service");
      // Only a valid request counts against the tenant.
      if (const auto* query = std::get_if<GridQuery>(&request.arg)) {
        SNAKES_RETURN_IF_ERROR(ValidateQuery(*tenant->schema, *query));
      }
      std::shared_ptr<const CostModel> model;
      if (const auto* spec = std::get_if<CostModelSpec>(&request.arg)) {
        span.AddArg("tenant", tenant->name);
        SNAKES_ASSIGN_OR_RETURN(model, MakeCostModel(*spec));
        span.AddArg("cost_model", model->name());
      }
      if (!std::holds_alternative<Request::Background>(request.arg)) {
        tenant->CountRequest();
      }
      switch (request.verb) {
        case RequestVerb::kIngest: {
          const GridQuery& query = std::get<GridQuery>(request.arg);
          if (tenant->ingested_counter != nullptr) {
            tenant->ingested_counter->Inc();
          }
          bool closed = false;
          {
            std::lock_guard<std::mutex> lock(tenant->state_mu);
            tenant->pending[tenant->lattice.Index(query.cls)] += 1.0;
            ++tenant->pending_ingests;
            ++tenant->ingested_total;
            if (config_.ingests_per_epoch > 0 &&
                tenant->pending_ingests >= config_.ingests_per_epoch) {
              SNAKES_RETURN_IF_ERROR(CloseEpochLocked(tenant));
              closed = true;
            }
          }
          if (closed) MaybeScheduleRecluster(tenant);
          break;
        }
        case RequestVerb::kEndEpoch: {
          {
            std::lock_guard<std::mutex> lock(tenant->state_mu);
            SNAKES_RETURN_IF_ERROR(CloseEpochLocked(tenant));
            reply.body = tenant->epochs_closed;
          }
          MaybeScheduleRecluster(tenant);
          break;
        }
        case RequestVerb::kAdvise: {
          span.AddArg("tenant", tenant->name);
          std::lock_guard<std::mutex> lock(tenant->state_mu);
          EvaluationRequest advise{tenant->window.Smoothed()};
          advise.strategies = config_.recluster.strategies;
          advise.num_threads = 1;  // the request pool is the parallelism
          advise.obs = config_.obs;
          advise.cost_model = tenant->cost_model;
          SNAKES_ASSIGN_OR_RETURN(
              reply.body,
              tenant->advisor.AdviseIncremental(advise, &tenant->advise_state));
          break;
        }
        case RequestVerb::kQuery:
        case RequestVerb::kMeasure: {
          SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const TenantEpoch> epoch,
                                  tenant->Pin());
          if (epoch->backend == nullptr) {
            return Status::FailedPrecondition(
                "tenant '" + tenant->name + "' is analytic (no fact table)");
          }
          const GridQuery& query = std::get<GridQuery>(request.arg);
          PruneStats prune;
          QueryIo io;
          if (request.verb == RequestVerb::kQuery) {
            const QueryEngine engine(*epoch->backend, config_.obs);
            QueryAnswer answer = engine.Execute(query, &prune);
            io = answer.io;
            reply.body = std::move(answer);
          } else {
            const IoSimulator simulator(*epoch->backend, config_.obs);
            io = simulator.Measure(query, &prune);
            reply.body = io;
          }
          ctx.pages += io.pages;
          ctx.partitions_pruned += prune.pruned;
          break;
        }
        case RequestVerb::kRecluster: {
          span.AddArg("tenant", tenant->name);
          if (tenant->reclusters_counter != nullptr) {
            tenant->reclusters_counter->Inc();
          }
          Workload mu = [&] {
            std::lock_guard<std::mutex> lock(tenant->state_mu);
            return tenant->window.Smoothed();
          }();
          std::lock_guard<std::mutex> lock(tenant->recluster_mu);
          SNAKES_ASSIGN_OR_RETURN(EpochReport report,
                                  tenant->engine.OnEpoch(mu));
          AuditDecision(tenant, report);
          if (report.decision == ReclusterDecision::kAdopt ||
              report.decision == ReclusterDecision::kInitialAdopt) {
            // Double-buffer publish: readers pinned to the previous epoch
            // keep it alive; new pins see the fresh layout immediately.
            Publish(tenant, tenant->engine.current(),
                    tenant->engine.current_backend());
          }
          reply.body = std::move(report);
          break;
        }
        case RequestVerb::kBackend: {
          const StorageBackendKind kind =
              std::get<StorageBackendKind>(request.arg);
          span.AddArg("tenant", tenant->name);
          span.AddArg("backend", StorageBackendKindName(kind));
          std::lock_guard<std::mutex> lock(tenant->recluster_mu);
          if (tenant->engine.backend_kind() == kind) break;
          SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const StorageBackend> backend,
                                  tenant->engine.SwitchBackend(kind));
          if (tenant->engine.current() != nullptr) {
            // Analytic tenants publish a null backend either way; fact-backed
            // ones double-buffer the repacked representation exactly like an
            // adoption.
            Publish(tenant, tenant->engine.current(), std::move(backend));
          }
          break;
        }
        case RequestVerb::kCostModel: {
          // Two consumers, two locks: the advise path reads under state_mu,
          // the engine prices net benefit under recluster_mu. No cache is
          // invalidated — per-class costs are model-independent, so the next
          // warm advise still serves from the memo.
          {
            std::lock_guard<std::mutex> lock(tenant->state_mu);
            tenant->cost_model = model;
          }
          {
            std::lock_guard<std::mutex> lock(tenant->recluster_mu);
            tenant->engine.SetCostModel(model);
          }
          if (config_.obs.metrics != nullptr) {
            config_.obs.metrics->GetCounter("service.costmodel_switches")
                ->Inc();
          }
          break;
        }
        default:  // the report-only verbs answered above
          break;
      }
    }
    if (!textual) return reply;

    // A textual request gets its reply line.
    switch (request.verb) {
      case RequestVerb::kIngest:
        return Reply{"ingested " + std::get<GridQuery>(request.arg).ToString()};
      case RequestVerb::kEndEpoch:
        return Reply{"closed epoch " +
                     std::to_string(std::get<uint64_t>(reply.body))};
      case RequestVerb::kAdvise: {
        const auto& rec = std::get<Recommendation>(reply.body);
        if (!rec.has_best()) {
          return Status::InvalidArgument("no strategy applies to the schema");
        }
        return Reply{"best " + rec.best().name + " cost " +
                     FormatDouble(rec.best().expected_cost, 4) + " (" +
                     std::to_string(rec.ranked.size()) + " strategies)"};
      }
      case RequestVerb::kQuery: {
        const auto& answer = std::get<QueryAnswer>(reply.body);
        return Reply{"count " + std::to_string(answer.count) + " sum " +
                     FormatDouble(answer.sum, 2) + " pages " +
                     std::to_string(answer.io.pages) + " seeks " +
                     std::to_string(answer.io.seeks)};
      }
      case RequestVerb::kMeasure: {
        const auto& io = std::get<QueryIo>(reply.body);
        return Reply{"records " + std::to_string(io.records) + " pages " +
                     std::to_string(io.pages) + " seeks " +
                     std::to_string(io.seeks)};
      }
      case RequestVerb::kRecluster: {
        const auto& report = std::get<EpochReport>(reply.body);
        return Reply{std::string(ReclusterDecisionName(report.decision)) +
                     " " + report.proposed_strategy};
      }
      case RequestVerb::kBackend:
        return Reply{"backend " + std::string(StorageBackendKindName(
                                      std::get<StorageBackendKind>(
                                          request.arg)))};
      default:  // kCostModel
        return Reply{
            "costmodel " +
            std::string(CostModelKindName(
                std::get<CostModelSpec>(request.arg).kind))};
    }
  }();

  // The completed request, recorded exactly once.
  ctx.status = out.status().code();
  ctx.finish_ns = NowNs();
  const RequestRecord record{.id = ctx.id,
                             .tenant = ctx.tenant,
                             .verb = ctx.verb,
                             .status = ctx.status,
                             .enqueue_ns = ctx.enqueue_ns,
                             .start_ns = ctx.start_ns,
                             .finish_ns = ctx.finish_ns,
                             .pages = ctx.pages,
                             .partitions_pruned = ctx.partitions_pruned};
  recorder_.Record(record);
  if (tenant != nullptr) {
    tenant->slo.Record(ctx.verb, record.compute_ns(),
                       ctx.status != StatusCode::kOk);
  }
  if (requests_completed_ != nullptr) {
    requests_completed_->Inc();
    if (ctx.status != StatusCode::kOk) requests_errors_->Inc();
  }
  return out;
}

Status AdvisorService::CloseEpochLocked(Tenant* tenant) {
  if (tenant->pending_ingests == 0) {
    return Status::FailedPrecondition(
        "tenant '" + tenant->name +
        "': no queries ingested since the last epoch close");
  }
  SNAKES_ASSIGN_OR_RETURN(
      Workload epoch_mu_w,
      Workload::FromDense(tenant->lattice, tenant->pending,
                          /*normalize=*/true));
  SNAKES_RETURN_IF_ERROR(tenant->window.Observe(epoch_mu_w));
  std::fill(tenant->pending.begin(), tenant->pending.end(), 0.0);
  tenant->pending_ingests = 0;
  ++tenant->epochs_closed;
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("service.epochs_closed")->Inc();
    config_.obs.metrics->GetGauge("service.window.last_drift")
        ->Set(tenant->window.LastDrift());
  }
  return Status::OK();
}

void AdvisorService::MaybeScheduleRecluster(Tenant* tenant) {
  if (!config_.recluster_on_epoch_close) return;
  MetricsRegistry* metrics = config_.obs.metrics;
  // The background job is a request of its own: it gets the next id, its
  // spans nest under "request/recluster", and its completion lands in the
  // flight recorder like any foreground request.
  auto submitted = background_pool_->TrySubmit(
      [this, tenant, metrics, enqueue_ns = NowNs()]() {
        const bool ok = Handle({RequestVerb::kRecluster, tenant->id,
                                Request::Background{}},
                               enqueue_ns)
                            .ok();
        tenant->reclusters_completed.fetch_add(1, std::memory_order_relaxed);
        if (!ok && metrics != nullptr) {
          metrics->GetCounter("service.recluster.errors")->Inc();
        }
      });
  if (submitted.ok()) {
    tenant->reclusters_scheduled.fetch_add(1, std::memory_order_relaxed);
  } else if (metrics != nullptr) {
    metrics->GetCounter("service.recluster.rejected")->Inc();
  }
}

// ---- Request surfaces: each builds one Request for Handle ---------------

Result<TenantId> AdvisorService::RegisterTenant(TenantSpec spec) {
  return Reply::Unpack<Result<TenantId>>(Handle(
      {RequestVerb::kRegister, kNoTenant, std::move(spec)}, NowNs()));
}

Status AdvisorService::Ingest(TenantId id, const GridQuery& query) {
  return Reply::Unpack<Status>(
      Handle({RequestVerb::kIngest, id, query}, NowNs()));
}

Result<uint64_t> AdvisorService::EndEpoch(TenantId id) {
  return Reply::Unpack<Result<uint64_t>>(
      Handle({RequestVerb::kEndEpoch, id, {}}, NowNs()));
}

Result<Recommendation> AdvisorService::Advise(TenantId id) {
  return Reply::Unpack<Result<Recommendation>>(
      Handle({RequestVerb::kAdvise, id, {}}, NowNs()));
}

Result<QueryAnswer> AdvisorService::Query(TenantId id, const GridQuery& query) {
  return Reply::Unpack<Result<QueryAnswer>>(
      Handle({RequestVerb::kQuery, id, query}, NowNs()));
}

Result<QueryIo> AdvisorService::Measure(TenantId id, const GridQuery& query) {
  return Reply::Unpack<Result<QueryIo>>(
      Handle({RequestVerb::kMeasure, id, query}, NowNs()));
}

Result<EpochReport> AdvisorService::ReclusterNow(TenantId id) {
  return Reply::Unpack<Result<EpochReport>>(
      Handle({RequestVerb::kRecluster, id, {}}, NowNs()));
}

Status AdvisorService::SetBackend(TenantId id, StorageBackendKind kind) {
  return Reply::Unpack<Status>(
      Handle({RequestVerb::kBackend, id, kind}, NowNs()));
}

Status AdvisorService::SetCostModel(TenantId id, const CostModelSpec& spec) {
  return Reply::Unpack<Status>(
      Handle({RequestVerb::kCostModel, id, spec}, NowNs()));
}

Result<std::string> AdvisorService::Dispatch(std::string_view tenant_name,
                                             std::string_view request) {
  return Reply::Unpack<Result<std::string>>(
      Handle(Request::FromText(std::string(tenant_name), std::string(request)),
             NowNs()));
}

template <typename R>
std::future<R> AdvisorService::Enqueue(ThreadPool* pool, const char* type,
                                       Request request) {
  Histogram* queue_hist = nullptr;
  Histogram* compute_hist = nullptr;
  if (config_.obs.metrics != nullptr) {
    const std::string prefix = std::string("service.") + type;
    queue_hist = config_.obs.metrics->GetHistogram(prefix + ".queue_ns");
    compute_hist = config_.obs.metrics->GetHistogram(prefix + ".compute_ns");
  }
  auto accepted = pool->TrySubmit(
      [this, enqueue_ns = NowNs(), queue_hist, compute_hist,
       request = std::move(request)]() mutable -> R {
        const uint64_t start_ns = NowNs();
        if (queue_hist != nullptr) queue_hist->Record(start_ns - enqueue_ns);
        R out = Reply::Unpack<R>(Handle(std::move(request), enqueue_ns));
        if (compute_hist != nullptr) compute_hist->Record(NowNs() - start_ns);
        return out;
      });
  if (accepted.ok()) return std::move(accepted).value();
  std::promise<R> rejected;
  rejected.set_value(R(Status::FailedPrecondition(
      std::string("service: ") + type + " submitted after Shutdown()")));
  return rejected.get_future();
}

std::future<Status> AdvisorService::SubmitIngest(TenantId id, GridQuery query) {
  return Enqueue<Status>(request_pool_.get(), "ingest",
                         {RequestVerb::kIngest, id, std::move(query)});
}

std::future<Result<uint64_t>> AdvisorService::SubmitEndEpoch(TenantId id) {
  return Enqueue<Result<uint64_t>>(request_pool_.get(), "end_epoch",
                                   {RequestVerb::kEndEpoch, id, {}});
}

std::future<Result<Recommendation>> AdvisorService::SubmitAdvise(TenantId id) {
  return Enqueue<Result<Recommendation>>(request_pool_.get(), "advise",
                                         {RequestVerb::kAdvise, id, {}});
}

std::future<Result<QueryAnswer>> AdvisorService::SubmitQuery(TenantId id,
                                                             GridQuery query) {
  return Enqueue<Result<QueryAnswer>>(
      request_pool_.get(), "query",
      {RequestVerb::kQuery, id, std::move(query)});
}

std::future<Result<QueryIo>> AdvisorService::SubmitMeasure(TenantId id,
                                                           GridQuery query) {
  return Enqueue<Result<QueryIo>>(
      request_pool_.get(), "measure",
      {RequestVerb::kMeasure, id, std::move(query)});
}

std::future<Result<EpochReport>> AdvisorService::SubmitRecluster(TenantId id) {
  return Enqueue<Result<EpochReport>>(background_pool_.get(), "recluster",
                                      {RequestVerb::kRecluster, id, {}});
}

std::future<Result<std::string>> AdvisorService::SubmitDispatch(
    std::string tenant_name, std::string request) {
  return Enqueue<Result<std::string>>(
      request_pool_.get(), "dispatch",
      Request::FromText(std::move(tenant_name), std::move(request)));
}

// ---- Introspection (not recorded as requests) ----------------------------

Result<std::shared_ptr<const TenantEpoch>> AdvisorService::PinEpoch(
    TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  return tenant->Pin();
}

Result<Workload> AdvisorService::SmoothedWorkload(TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  std::lock_guard<std::mutex> lock(tenant->state_mu);
  return tenant->window.Smoothed();
}

Result<TenantStatus> AdvisorService::StatusOf(TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  return tenant->Describe();
}

void AdvisorService::AuditDecision(const Tenant* tenant,
                                   const EpochReport& report) {
  ReclusterAuditEntry entry;
  entry.timestamp_ns = NowNs();
  if (const RequestContext* ctx = RequestContext::Current()) {
    entry.request_id = ctx->id;
  }
  entry.tenant = tenant->id;
  entry.engine_epoch = report.epoch;
  entry.decision = report.decision;
  entry.drift = report.drift;
  entry.budget_pages = config_.recluster.movement_budget_pages;
  entry.current_cost = report.current_cost;
  entry.proposed_cost = report.proposed_cost;
  entry.relative_improvement = report.relative_improvement;
  entry.net_benefit = report.net_benefit;
  entry.benefit_ms = report.benefit_ms;
  entry.movement_ms = report.movement_ms;
  entry.pages_moved = report.movement.pages_moved();
  entry.current_strategy = report.current_strategy;
  entry.proposed_strategy = report.proposed_strategy;
  audit_.Record(std::move(entry));
}

void AdvisorService::Publish(Tenant* tenant,
                             std::shared_ptr<const Linearization> lin,
                             std::shared_ptr<const StorageBackend> backend) {
  auto epoch = std::make_shared<TenantEpoch>();
  epoch->linearization = std::move(lin);
  epoch->backend = std::move(backend);
  {
    std::lock_guard<std::mutex> lock(tenant->epoch_mu);
    epoch->sequence = ++tenant->published_sequence;
    tenant->epoch = std::move(epoch);
  }
  tenant->last_publish_ns.store(NowNs(), std::memory_order_relaxed);
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("service.epochs_published")->Inc();
  }
}

TelemetrySnapshot AdvisorService::Telemetry() const {
  TelemetrySnapshot snap;
  snap.now_ns = NowNs();
  snap.recorder_capacity = recorder_.capacity();
  snap.recorder_recorded = recorder_.recorded();
  snap.requests = recorder_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    snap.tenants.reserve(tenants_.size());
    for (const auto& tenant : tenants_) {
      TenantTelemetry t;
      t.tenant = tenant->id;
      t.name = tenant->name;
      t.slo = tenant->slo.Snap();
      const uint64_t published =
          tenant->last_publish_ns.load(std::memory_order_relaxed);
      t.epoch_age_ns = snap.now_ns >= published ? snap.now_ns - published : 0;
      {
        std::lock_guard<std::mutex> epoch_lock(tenant->epoch_mu);
        t.published_sequence = tenant->published_sequence;
      }
      {
        std::lock_guard<std::mutex> state_lock(tenant->state_mu);
        t.cost_model = tenant->cost_model->name();
      }
      const uint64_t scheduled =
          tenant->reclusters_scheduled.load(std::memory_order_relaxed);
      const uint64_t completed =
          tenant->reclusters_completed.load(std::memory_order_relaxed);
      t.recluster_backlog = scheduled >= completed ? scheduled - completed : 0;
      snap.tenants.push_back(std::move(t));
    }
  }
  snap.audit = audit_.Snapshot();
  if (config_.obs.tracer != nullptr) {
    snap.trace_spans = config_.obs.tracer->num_events();
    snap.trace_dropped_spans = config_.obs.tracer->dropped_spans();
  }
  return snap;
}

}  // namespace snakes
