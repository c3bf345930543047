// perf_ledger — open-loop TPC-D benchmark of AdvisorService, timed end to end
// and layer by layer.
//
//   perf_ledger --workload olap-rollup|drill-down --seed N
//               --seconds S --trace 0|1 [--out-dir DIR]
//
// One process registers three seeded TPC-D tenants (tpcd::GenerateWarehouse,
// a distinct dbgen seed per tenant, DimensionTable labels built from the
// TPC-D hierarchies) and sends text requests through
// AdvisorService::SubmitDispatch, so core/query_parser is on every request's
// path. One harness thread submits each request at its due time whatever the
// service is doing (open loop), polls the futures, and times every request
// from its due time to its future becoming ready. The service adds its two
// request workers and one background worker. The whole process runs on one
// CPU (see Main).
//
// Both modes first run an adapt phase: each tenant's ingests walk the 27
// Section 6.2 ramp workloads and close epochs, each close followed by a
// closed-loop advise and a background recluster. --trace 0 then runs the
// reference phase (reads plus an ingest stream) in segments, each followed by
// the next read-only rung of a search for the highest rate that meets the
// latency limit, and prints the end-to-end metrics. --trace 1 runs the reference segments traced and prints the
// per-layer metrics: after the run, for a seeded sample of the traced
// requests, it calls each layer's public function directly against the epoch
// the request was pinned to, records one span per call and writes the spans
// to DIR/spans-<workload>-<seed>.jsonl at exit.
//
// Outputs are checked in both modes; any mismatch makes the run fail (exit
// status 1 after the result line). The last stdout line is the JSON result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include <sched.h>
#include <time.h>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/query_parser.h"
#include "cost/cost_cache.h"
#include "curves/bit_interleave.h"
#include "curves/run_arena.h"
#include "hierarchy/dimension_table.h"
#include "lattice/grid_query.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "path/dpkd.h"
#include "path/snaked_dp.h"
#include "recluster/movement.h"
#include "service/service.h"
#include "storage/backend.h"
#include "storage/executor.h"
#include "storage/query_engine.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "tpcd/workloads.h"
#include "util/rng.h"

#ifndef PERF_LEDGER_BUILD_TYPE
#define PERF_LEDGER_BUILD_TYPE "unknown"
#endif

namespace snakes {
namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTenants = 3;
constexpr int kRequestThreads = 2;
/// One query/measure request in this many is sampled for output checks (and,
/// in the traced phase, for layer replays).
constexpr uint64_t kSampleEvery = 16;
/// Share of reads sent as `measure` (the rest are `query`).
constexpr double kMeasureShare = 0.15;
/// Probe queries per read class and tenant behind seeks_per_query and
/// blocks_per_query (classes with fewer queries are probed exhaustively).
constexpr uint64_t kProbesPerClass = 1000;
/// Futures the harness polls per sweep, oldest first.
constexpr size_t kPollWindow = 64;
/// Latency percentiles are taken per window of kWindowSamples consecutive
/// samples (so a p99 has ten samples beyond it; a window lasts a tenth to a
/// third of a second at the reference rates). A host stall of a few
/// milliseconds lifts the p99 of the one or two windows it falls in, while a
/// tail the service causes all along lifts every window.
constexpr size_t kWindowSamples = 1000;
/// The reported reference-phase percentiles are the lower quartile over
/// windows of the per-window figure: the p50 or p99 of the calmer windows.
/// On a shared four-vCPU virtual machine, millisecond stalls landed in a
/// quarter to a half of the windows in some runs and in few in others, which
/// moved the median over windows twofold; the lower quartile moved by a tenth.
constexpr double kCalmWindows = 0.25;
/// Epochs in each tenant's sliding drift window: short, so the smoothed
/// workload follows the ramp walk and about a quarter of the closes adopt a
/// new layout, which gives relayout_p50_ms a few dozen samples a run.
constexpr int kWindowEpochs = 2;
/// Adapt phase, per tenant: epochs of the ramp walk, then kWindowEpochs
/// settle epochs on the read mix; its ingest rate and epoch length.
constexpr int kAdaptWalkEpochs = 32;
constexpr double kAdaptIngestQps = 300;
constexpr uint64_t kAdaptIngestsPerEpoch = 150;
/// The max_qps_at_slo search: its rung count (and the count of reference
/// segments), and the query_p99_ms limit a rung must meet (generous:
/// scheduling hiccups of a shared virtual machine alone reach several
/// milliseconds). The first rung runs at the workload's ladder start; each
/// next rung is kLadderStep times faster after meets only, kLadderStep times
/// slower after misses only, and once both happened it bisects, by geometric
/// mean, between the fastest rate met and the slowest missed. A fixed ladder
/// capped the figure at its top rung and moved it in whole steps.
constexpr int kLadderRungs = 12;
constexpr double kLadderStep = 1.25;
constexpr double kSloMs = 20.0;

// ---- Small helpers ------------------------------------------------------

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perf_ledger: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// CPU seconds the whole process has used. The kernel leaves out the time
/// the hypervisor gave the virtual CPUs to other guests (steal), which wall
/// time would count.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t NsSince(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // 1-based rank
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 29);
}

std::string ReadFirstLine(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  const std::string hwm = ReadFirstLine("/proc/self/status", "VmHWM");
  return std::atof(hwm.c_str()) / 1024.0;  // "123456 kB"
}

bool SameWorkload(const Workload& a, const Workload& b) {
  if (a.size() != b.size()) return false;
  for (uint64_t i = 0; i < a.size(); ++i) {
    if (a.probability_at(i) != b.probability_at(i)) return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// ---- Workloads ----------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  StorageBackendKind backend = StorageBackendKind::kPacked;
  /// Read classes, sent with equal probability.
  std::vector<QueryClass> read_classes;
  /// Offered read rate (requests/s, all tenants) of the reference phase:
  /// about a sixth of the read capacity on one CPU, so the tails are set by
  /// the service's work rather than by queueing, and a host that slows the
  /// CPU by a third still leaves the phase far from the knee.
  double reference_qps = 0;
  /// First rung of the read-only max_qps_at_slo search, about half of the
  /// read capacity.
  double ladder_start_qps = 0;
  /// Per-tenant ingest rate of the reference phase (the read mix's query
  /// log; no epoch closes, so the advisor idles while reads are timed).
  double ingest_qps_per_tenant = 0;
};

std::vector<QueryClass> TpcdClasses() {
  std::vector<QueryClass> out;
  for (const tpcd::BenchmarkQuery& q : tpcd::BenchmarkQueries()) {
    out.push_back(q.cls);
  }
  return out;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "olap-rollup") {
    spec.backend = StorageBackendKind::kPacked;
    spec.read_classes = TpcdClasses();
    spec.reference_qps = 3500;
    spec.ladder_start_qps = 7500;
    spec.ingest_qps_per_tenant = 1000;
    return spec;
  }
  if (name == "drill-down") {
    spec.backend = StorageBackendKind::kMicroPartition;
    // Leaf level on at least two dimensions: part x supplier x month,
    // part x month, part x supplier x year, manufacturer x supplier x month.
    spec.read_classes = {QueryClass{0, 0, 0}, QueryClass{0, 1, 0},
                         QueryClass{0, 0, 1}, QueryClass{1, 0, 0}};
    spec.reference_qps = 10000;
    spec.ladder_start_qps = 35000;
    spec.ingest_qps_per_tenant = 1000;
    return spec;
  }
  return std::nullopt;
}

// ---- Tenants ------------------------------------------------------------

struct Tenant {
  std::string name;
  TenantId id = 0;
  tpcd::Warehouse warehouse;
  std::vector<DimensionTable> tables;
  /// The registration epoch, kept pinned for the movement/pack replays.
  std::shared_ptr<const TenantEpoch> first_epoch;
  /// CPU seconds of the tenant's set-up (dbgen, registration, first advise)
  /// and of its dbgen alone, and the set-up's wall seconds.
  double setup_s = 0;
  double dbgen_s = 0;
  double setup_wall_s = 0;
};

/// Labels of every member of one TPC-D hierarchy, level by level. Labels are
/// unique across the levels of a dimension, so the parser's bare
/// `dimension=label` form resolves them.
std::vector<std::vector<std::string>> TpcdLabels(const Hierarchy& h, int dim) {
  std::vector<std::vector<std::string>> labels;
  for (int level = 0; level <= h.num_levels(); ++level) {
    std::vector<std::string> names;
    for (uint64_t b = 0; b < h.num_blocks(level); ++b) {
      char buf[48];
      if (level == h.num_levels()) {
        std::snprintf(buf, sizeof(buf), "all-%s", h.name().c_str());
      } else if (dim == tpcd::kPartsDim) {
        std::snprintf(buf, sizeof(buf), level == 0 ? "part%03llu" : "mfgr%llu",
                      static_cast<unsigned long long>(b));
      } else if (dim == tpcd::kSupplierDim) {
        std::snprintf(buf, sizeof(buf), "supp%02llu",
                      static_cast<unsigned long long>(b));
      } else if (level == 0) {
        std::snprintf(buf, sizeof(buf), "%llu-%02llu",
                      static_cast<unsigned long long>(1992 + b / 12),
                      static_cast<unsigned long long>(b % 12 + 1));
      } else {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(1992 + b));
      }
      names.emplace_back(buf);
    }
    labels.push_back(std::move(names));
  }
  return labels;
}

/// The textual clause list selecting `query` ("parts=mfgr3 time=1994").
std::string QueryText(const Tenant& tenant, const GridQuery& query) {
  const StarSchema& schema = *tenant.warehouse.schema;
  std::string out;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const int level = query.cls.level(d);
    if (level == schema.dim(d).num_levels()) continue;
    if (!out.empty()) out.push_back(' ');
    out += schema.dim(d).name();
    out.push_back('=');
    out += tenant.tables[static_cast<size_t>(d)].label(
        level, query.block[static_cast<size_t>(d)]);
  }
  return out;
}

// ---- Requests and their outcomes -----------------------------------------

enum class Kind : uint8_t { kQuery, kMeasure, kIngest, kEndEpoch, kAdvise };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQuery:
      return "query";
    case Kind::kMeasure:
      return "measure";
    case Kind::kIngest:
      return "ingest";
    case Kind::kEndEpoch:
      return "end-epoch";
    case Kind::kAdvise:
      return "advise";
  }
  return "?";
}

struct Request {
  uint64_t due_ns = 0;  // offset from the phase start
  uint32_t tenant = 0;
  Kind kind = Kind::kQuery;
  bool sampled = false;
  GridQuery query;
  std::string payload;  // clause text, "" for end-epoch
};

struct Outcome {
  /// Offsets from the phase start: when the harness submitted the request,
  /// and the service's finish stamp from the request's flight-recorder
  /// record (taken just before the future is made ready).
  uint64_t submit_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;
  std::string reply;
  std::string error;
  /// Sampled reads: the epoch pinned just before submission, the publish
  /// sequence seen at completion, and how long the pin took.
  std::shared_ptr<const TenantEpoch> pinned;
  uint64_t seq_at_done = 0;
  uint64_t pin_ns = 0;
  /// Span of the request itself in a traced phase (-1 when not recorded).
  int64_t span_id = -1;
};

/// One closed-loop advise (submitted by the harness after a close reply).
struct AdviseRun {
  uint32_t tenant = 0;
  /// Enqueue and finish stamps of its flight-recorder record, as offsets
  /// from the phase start.
  uint64_t start_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;
  std::string reply;
  std::string error;
  /// Window-smoothed workload read before submission and after the reply;
  /// a replay is only comparable when the two agree.
  std::optional<Workload> mu_before;
  bool mu_stable = false;
};

struct CloseRun {
  uint32_t tenant = 0;
  /// The end-epoch request (an index into the phase's requests).
  size_t request = 0;
  /// Epochs closed, from the reply ("closed epoch N"); the recluster it fires
  /// is engine epoch N + 1 (registration is epoch 1).
  uint64_t closed = 0;
  /// Service clock of the reply (the request's finish stamp).
  uint64_t reply_service_ns = 0;
};

/// A request span or a replayed layer call; spans of one request share rid.
struct Span {
  std::string rid;
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;  // run clock
  uint64_t end_ns = 0;
};

struct PhaseResult {
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  /// Requests run in earlier phases: request i's id is first_request + i.
  uint64_t first_request = 0;
  std::vector<AdviseRun> advises;
  std::vector<CloseRun> closes;
  /// Every submission in order: a request index, or -1 - an advise index.
  std::vector<int64_t> submissions;
  uint64_t start_service_ns = 0;
  uint64_t end_service_ns = 0;
  Clock::time_point start;
  /// Submitted minus completed when the last request went out, and its
  /// median over the second half of the submissions (sampled every
  /// millisecond), which a stall of a few milliseconds does not lift.
  uint64_t backlog_at_end = 0;
  uint64_t backlog_late = 0;
  double duration_s = 0;
};

struct InFlight {
  std::future<Result<std::string>> future;
  int64_t index = -1;  // into requests, or -1 - advise index
};

// ---- The benchmark ------------------------------------------------------

class Ledger {
 public:
  Ledger(WorkloadSpec spec, uint64_t seed, double seconds, bool trace,
         std::string out_dir)
      : spec_(std::move(spec)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        out_dir_(std::move(out_dir)),
        run_start_(Clock::now()) {}

  int Run();

 private:
  ServiceConfig MakeConfig() const;
  void SetUp();
  void PrintHardware() const;

  std::vector<Request> BuildReads(double qps, double seconds, Rng* rng) const;
  std::vector<Request> BuildWrites(double rate, double seconds, bool closes,
                                   Rng* rng);
  /// The class distribution epoch `epoch` of tenant `tenant` ingests;
  /// `settle` asks for the read mix itself.
  Workload EpochWorkload(uint32_t tenant, uint64_t epoch, bool settle,
                         Rng* rng) const;
  Request MakeRead(uint32_t tenant, const QueryClass& cls, Rng* rng) const;

  PhaseResult RunPhase(std::vector<Request> requests, bool record_spans);
  /// Handles one ready future. May submit a closed-loop advise into
  /// `inflight`.
  void Complete(PhaseResult* phase, InFlight* item,
                std::deque<InFlight>* inflight);
  void SubmitAdvise(PhaseResult* phase, uint32_t tenant,
                    std::deque<InFlight>* inflight);
  /// Fills the phase's completion times and backlog from the flight
  /// recorder, and in a traced phase records a span per sampled request.
  void StampCompletions(PhaseResult* phase, bool record_spans);

  /// Checks sampled replies against direct library calls; returns mismatches.
  uint64_t CheckPhase(const PhaseResult& phase);
  uint64_t CheckFinalAdvise();
  /// Blocks until every scheduled background recluster has been decided.
  void WaitForReclusters(const std::vector<const PhaseResult*>& phases) const;
  void MeasureProbes(double* seeks_per_query, double* blocks_per_query);

  void ReplayReads(const PhaseResult& phase);
  void ReplayAdvises(
      const std::vector<std::pair<const AdviseRun*, bool>>& runs);
  void ReplayRelayouts();

  /// Records a span and returns its id; `id` 0 allocates one, otherwise it
  /// is an id reserved earlier (a parent recorded after its children).
  int64_t AddSpan(const std::string& rid, const char* name, int64_t parent,
                  uint64_t start_ns, uint64_t end_ns, int64_t id = 0);
  uint64_t RunNs() const { return NsSince(run_start_); }
  void WriteSpans() const;

  /// Latency samples (ms) of `kind` requests of a phase, due time to ready.
  static std::vector<double> LatenciesMs(const PhaseResult& phase, Kind kind);
  /// The `q` quantile of each window of kWindowSamples consecutive `samples`
  /// (in due-time order); one window when there are too few samples.
  static std::vector<double> PerWindow(const std::vector<double>& samples,
                                       double q);
  /// The `over` quantile (by default the median) over windows of
  /// PerWindow(samples, q).
  static double WindowedQuantile(const std::vector<double>& samples, double q,
                                 double over = 0.5) {
    return Quantile(PerWindow(samples, q), over);
  }
  /// How late the harness submitted each request (ms).
  static std::vector<double> LagMs(const PhaseResult& phase);
  std::vector<RequestRecord> RecorderWindow(const PhaseResult& phase,
                                            RequestVerb verb) const;
  std::vector<double> RelayoutMs(const PhaseResult& phase) const;
  void CountOutcomes(const PhaseResult& phase);

  void Emit(const std::vector<std::pair<std::string, std::pair<double,
                                                                std::string>>>&
                metrics) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string out_dir_;
  Clock::time_point run_start_;

  std::unique_ptr<AdvisorService> service_;
  std::vector<Tenant> tenants_;
  /// Ingests/epochs emitted so far per tenant (write streams continue across
  /// phases).
  std::vector<uint64_t> epochs_emitted_;
  std::vector<uint64_t> ramp_walk_;
  /// Closed-loop advise state of the phase being run: one in flight per
  /// tenant, and whether another close arrived meanwhile.
  std::vector<bool> advise_busy_;
  std::vector<bool> advise_pending_;
  std::optional<Workload> read_mix_;
  /// The set-up advise of each tenant (replayed first, untimed).
  std::vector<AdviseRun> warmups_;

  uint64_t requests_run_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> failure_notes_;

  // Traced-run state.
  std::vector<Span> spans_;
  int64_t next_span_id_ = 1;
  std::map<std::string, std::vector<double>> layer_;  // name -> samples
  uint64_t replays_checked_ = 0;
};

ServiceConfig Ledger::MakeConfig() const {
  ServiceConfig config;
  config.request_threads = kRequestThreads;
  config.window_epochs = kWindowEpochs;
  config.recluster_on_epoch_close = true;
  // An epoch's ingests are a sample of the traffic it stands for; price the
  // benefit of a relayout over a realistic query volume so improvements can
  // pay for their movement, and keep a small hysteresis against noise.
  config.recluster.queries_per_epoch = 100000;
  config.recluster.hysteresis_min_improvement = 0.02;
  // Room for the largest phase's records: completion times are read back
  // from the recorder after each phase.
  config.telemetry.recorder_capacity = 1u << 19;
  config.telemetry.sampler_interval_ms = 0;
  return config;
}

void Ledger::SetUp() {
  service_ = std::make_unique<AdvisorService>(MakeConfig());
  tenants_.resize(kTenants);
  epochs_emitted_.assign(kTenants, 0);
  // The walk order is fixed, not seeded, so every seed's reads meet the same
  // sequence of layouts. The seed still draws the data, the perturbations and
  // every query.
  Rng walk_rng(27);
  for (uint64_t w = 1; w <= 27; ++w) ramp_walk_.push_back(w);
  for (size_t i = ramp_walk_.size(); i > 1; --i) {
    std::swap(ramp_walk_[i - 1], ramp_walk_[walk_rng.Below(i)]);
  }

  for (int t = 0; t < kTenants; ++t) {
    Tenant& tenant = tenants_[static_cast<size_t>(t)];
    tenant.name = "tpcd-" + std::to_string(t);
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    tenant.warehouse = Must(
        tpcd::GenerateWarehouse(tpcd::Config{}, Mix(seed_, 1000 + t)), "dbgen");
    tenant.dbgen_s = CpuSeconds() - cpu_start;
    const StarSchema& schema = *tenant.warehouse.schema;
    for (int d = 0; d < schema.num_dims(); ++d) {
      tenant.tables.push_back(Must(
          DimensionTable::Make(schema.dim(d), TpcdLabels(schema.dim(d), d)),
          "dimension table"));
    }
    const QueryClassLattice lattice(schema);
    TenantSpec spec;
    spec.name = tenant.name;
    spec.schema = tenant.warehouse.schema;
    spec.facts = tenant.warehouse.facts;
    spec.tables = tenant.tables;
    spec.backend = spec_.backend;
    // Tenants start their walks 9 steps apart.
    spec.initial_workload = Must(
        tpcd::SectionSixWorkload(lattice,
                                 static_cast<int>(ramp_walk_[(9 * t) % 27])),
        "ramp workload");
    if (!read_mix_.has_value()) {
      std::vector<std::pair<QueryClass, double>> masses;
      for (const QueryClass& c : spec_.read_classes) masses.emplace_back(c, 1);
      read_mix_ = Must(Workload::FromMasses(lattice, masses, true), "read mix");
    }
    tenant.id = Must(service_->RegisterTenant(std::move(spec)), "register");
    // A first advise fills the tenant's advise memo; every tenant pays it
    // once, so it is set-up work rather than part of any measured phase.
    AdviseRun warmup;
    warmup.tenant = static_cast<uint32_t>(t);
    warmup.mu_before = Must(service_->SmoothedWorkload(tenant.id), "smoothed");
    warmup.reply = Must(service_->Dispatch(tenant.name, "advise"), "warm-up");
    warmup.ok = true;
    warmup.mu_stable = true;
    warmups_.push_back(std::move(warmup));
    tenant.setup_s = CpuSeconds() - cpu_start;
    tenant.setup_wall_s = NsSince(start) * 1e-9;
    tenant.first_epoch = Must(service_->PinEpoch(tenant.id), "pin");
  }
}

void Ledger::PrintHardware() const {
  const Tenant& t0 = tenants_.front();
  std::printf(
      "hardware {\"cpu\": \"%s\", \"nproc\": %u, \"kernel\": \"%s\", "
      "\"kernels_forced_portable_at_build\": %s, \"build_type\": \"%s\", "
      "\"request_threads\": %d, \"tenants\": %d, \"pinned_cpu\": %d}\n",
      JsonEscape(ReadFirstLine("/proc/cpuinfo", "model name")).c_str(),
      std::thread::hardware_concurrency(),
      curve_internal::ActiveKernel() == curve_internal::KernelKind::kBmi2 ? "bmi2" : "portable",
      curve_internal::KernelsForcedPortableAtBuild() ? "true" : "false",
      PERF_LEDGER_BUILD_TYPE, kRequestThreads, kTenants, sched_getcpu());
  std::printf(
      "data {\"records_per_tenant\": %llu, \"cells\": %llu, "
      "\"pages_per_tenant\": %llu, \"page_bytes\": %llu, \"backend\": "
      "\"%s\", \"storage\": \"in-memory; latencies are this host's, not a "
      "disk's\"}\n",
      static_cast<unsigned long long>(t0.warehouse.facts->total_records()),
      static_cast<unsigned long long>(t0.warehouse.schema->num_cells()),
      static_cast<unsigned long long>(t0.first_epoch->backend->num_pages()),
      static_cast<unsigned long long>(
          t0.first_epoch->backend->config().page_size_bytes),
      StorageBackendKindName(spec_.backend));
}

Request Ledger::MakeRead(uint32_t tenant, const QueryClass& cls,
                         Rng* rng) const {
  Request r;
  r.tenant = tenant;
  r.kind = rng->NextDouble() < kMeasureShare ? Kind::kMeasure : Kind::kQuery;
  r.query = SampleQuery(*tenants_[tenant].warehouse.schema, cls, rng);
  r.payload = QueryText(tenants_[tenant], r.query);
  return r;
}

std::vector<Request> Ledger::BuildReads(double qps, double seconds,
                                        Rng* rng) const {
  const uint64_t n = static_cast<uint64_t>(qps * seconds);
  std::vector<Request> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t tenant = static_cast<uint32_t>(rng->Below(kTenants));
    Request r = MakeRead(tenant, read_mix_->Sample(rng), rng);
    r.due_ns = static_cast<uint64_t>(static_cast<double>(i) * 1e9 / qps);
    r.sampled = rng->Below(kSampleEvery) == 0;
    out.push_back(std::move(r));
  }
  return out;
}

Workload Ledger::EpochWorkload(uint32_t tenant, uint64_t epoch, bool settle,
                               Rng* rng) const {
  const QueryClassLattice lattice(*tenants_[tenant].warehouse.schema);
  if (settle) return *read_mix_;
  // Ramp walk: each epoch blends its ramp workload with a seeded random
  // perturbation.
  const uint64_t step = (epoch + 1 + 9 * tenant) % ramp_walk_.size();
  const Workload ramp = Must(
      tpcd::SectionSixWorkload(lattice, static_cast<int>(ramp_walk_[step])),
      "ramp workload");
  const Workload noise = Workload::Random(lattice, rng);
  std::vector<double> p(lattice.size());
  for (uint64_t i = 0; i < lattice.size(); ++i) {
    p[i] = 0.75 * ramp.probability_at(i) + 0.25 * noise.probability_at(i);
  }
  return Must(Workload::FromDense(lattice, p, true), "perturbed ramp");
}

std::vector<Request> Ledger::BuildWrites(double rate, double seconds,
                                         bool closes, Rng* rng) {
  // With closes, each epoch is N ingests of the ramp walk, a free slot, the
  // end-epoch, and a free slot, so an epoch's ingests have run before its
  // close is even due. Tenants are staggered by a third of an epoch, so their
  // relayouts do not queue behind each other on the single background
  // worker. Without closes the stream is the read mix's query log, ingests
  // only, left open.
  std::vector<Request> out;
  const uint64_t slots = static_cast<uint64_t>(rate * seconds);
  const uint64_t n = closes ? kAdaptIngestsPerEpoch : slots;
  // The walk ends with one window of epochs on the read mix, so every tenant
  // ends on the same layout whatever the seed drew.
  const uint64_t epochs_in_phase = slots / (n + 3);
  const uint64_t settle_from = !closes || epochs_in_phase <= kWindowEpochs
                                   ? 0
                                   : epochs_in_phase - kWindowEpochs;
  for (uint32_t t = 0; t < kTenants; ++t) {
    const double offset =
        static_cast<double>(closes ? t * (n + 3) : t) / kTenants;
    std::optional<Workload> mu;
    for (uint64_t k = 0; k < slots; ++k) {
      const uint64_t pos = k % (n + 3);
      const double due_s = (static_cast<double>(k) + offset) / rate;
      if (due_s >= seconds) break;
      if (pos == 0) {
        mu = EpochWorkload(t, epochs_emitted_[t], k / (n + 3) >= settle_from,
                           rng);
      }
      if (pos < n) {
        Request r;
        r.tenant = t;
        r.kind = Kind::kIngest;
        r.query = SampleQuery(*tenants_[t].warehouse.schema, mu->Sample(rng),
                              rng);
        r.payload = QueryText(tenants_[t], r.query);
        r.due_ns = static_cast<uint64_t>(due_s * 1e9);
        out.push_back(std::move(r));
      } else if (pos == n + 1) {
        Request r;
        r.tenant = t;
        r.kind = Kind::kEndEpoch;
        r.due_ns = static_cast<uint64_t>(due_s * 1e9);
        out.push_back(std::move(r));
        ++epochs_emitted_[t];
      }
    }
    // A trailing partial epoch is dropped so every phase that closes
    // epochs closes what it ingests.
    while (closes && !out.empty() && out.back().tenant == t &&
           out.back().kind == Kind::kIngest) {
      out.pop_back();
    }
  }
  return out;
}

// ---- Running a phase ----------------------------------------------------

PhaseResult Ledger::RunPhase(std::vector<Request> requests,
                             bool record_spans) {
  // One harness thread both submits and collects: it submits every request
  // that is due, collects the ready futures among the oldest (the request
  // pool is FIFO, so they become ready in about submission order), and
  // yields the CPU until the next request is due. Completion times come
  // from the flight recorder afterwards, so a late collection does not
  // lengthen a latency; a late submission does, and is reported as harness
  // lag.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  PhaseResult phase;
  phase.first_request = requests_run_;
  requests_run_ += requests.size();
  phase.requests = std::move(requests);
  phase.outcomes.resize(phase.requests.size());
  phase.submissions.reserve(phase.requests.size());
  advise_busy_.assign(kTenants, false);
  advise_pending_.assign(kTenants, false);

  std::deque<InFlight> inflight;
  size_t next = 0;
  phase.start_service_ns = service_->NowNs();
  phase.start = Clock::now();
  while (next < phase.requests.size() || !inflight.empty()) {
    // Submit everything due.
    const uint64_t now_ns = NsSince(phase.start);
    while (next < phase.requests.size() &&
           phase.requests[next].due_ns <= now_ns) {
      const Request& r = phase.requests[next];
      Outcome& o = phase.outcomes[next];
      const Tenant& tenant = tenants_[r.tenant];
      if (r.sampled) {
        const auto pin_start = Clock::now();
        o.pinned = Must(service_->PinEpoch(tenant.id), "pin");
        o.pin_ns = NsSince(pin_start);
      }
      std::string text = KindName(r.kind);
      if (!r.payload.empty()) {
        text.push_back(' ');
        text += r.payload;
      }
      o.submit_ns = NsSince(phase.start);
      inflight.push_back(
          InFlight{service_->SubmitDispatch(tenant.name, std::move(text)),
                   static_cast<int64_t>(next)});
      phase.submissions.push_back(static_cast<int64_t>(next));
      ++next;
      if (next == phase.requests.size()) {
        phase.duration_s = NsSince(phase.start) * 1e-9;
      }
    }
    // Collect what is ready among the oldest.
    for (size_t i = 0; i < inflight.size() && i < kPollWindow;) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      InFlight item = std::move(inflight[i]);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      Complete(&phase, &item, &inflight);
    }
    // Poll towards the next due time, yielding so that a worker woken on
    // this CPU runs at once rather than when the harness's slice ends; once
    // all is submitted, wait on the oldest.
    if (next < phase.requests.size()) {
      std::this_thread::yield();
    } else if (!inflight.empty()) {
      (void)inflight.front().future.wait_for(std::chrono::milliseconds(1));
    }
  }
  phase.end_service_ns = service_->NowNs();
  StampCompletions(&phase, record_spans);
  return phase;
}

void Ledger::SubmitAdvise(PhaseResult* phase, uint32_t tenant,
                          std::deque<InFlight>* inflight) {
  AdviseRun run;
  run.tenant = tenant;
  if (trace_) {
    run.mu_before = Must(service_->SmoothedWorkload(tenants_[tenant].id),
                         "smoothed workload");
  }
  const int64_t index = -1 - static_cast<int64_t>(phase->advises.size());
  inflight->push_back(InFlight{
      service_->SubmitDispatch(tenants_[tenant].name, "advise"), index});
  phase->submissions.push_back(index);
  phase->advises.push_back(std::move(run));
  advise_busy_[tenant] = true;
}

void Ledger::Complete(PhaseResult* phase, InFlight* item,
                      std::deque<InFlight>* inflight) {
  Result<std::string> reply = item->future.get();
  if (item->index < 0) {
    AdviseRun& run = phase->advises[static_cast<size_t>(-1 - item->index)];
    run.ok = reply.ok();
    if (reply.ok()) {
      run.reply = reply.value();
    } else {
      run.error = reply.status().ToString();
    }
    if (trace_) {
      run.mu_stable =
          run.mu_before.has_value() &&
          SameWorkload(Must(service_->SmoothedWorkload(tenants_[run.tenant].id),
                            "smoothed workload"),
                       *run.mu_before);
    }
    const uint32_t t = run.tenant;
    advise_busy_[t] = false;
    if (advise_pending_[t]) {
      advise_pending_[t] = false;
      SubmitAdvise(phase, t, inflight);
    }
    return;
  }
  const size_t idx = static_cast<size_t>(item->index);
  const Request& r = phase->requests[idx];
  Outcome& o = phase->outcomes[idx];
  o.ok = reply.ok();
  if (!reply.ok()) {
    o.error = reply.status().ToString();
  } else if (r.sampled || r.kind == Kind::kEndEpoch) {
    o.reply = reply.value();
  }
  if (r.sampled && o.ok) {
    o.seq_at_done =
        Must(service_->PinEpoch(tenants_[r.tenant].id), "pin")->sequence;
  }
  if (r.kind == Kind::kEndEpoch && o.ok) {
    CloseRun close;
    close.tenant = r.tenant;
    close.request = idx;
    close.closed = std::strtoull(o.reply.c_str() + std::strlen("closed epoch "),
                                 nullptr, 10);
    phase->closes.push_back(close);
    if (advise_busy_[r.tenant]) {
      advise_pending_[r.tenant] = true;
    } else {
      SubmitAdvise(phase, r.tenant, inflight);
    }
  }
}

RequestVerb VerbOf(Kind kind) {
  switch (kind) {
    case Kind::kQuery:
      return RequestVerb::kQuery;
    case Kind::kMeasure:
      return RequestVerb::kMeasure;
    case Kind::kIngest:
      return RequestVerb::kIngest;
    case Kind::kEndEpoch:
      return RequestVerb::kEndEpoch;
    case Kind::kAdvise:
      return RequestVerb::kAdvise;
  }
  return RequestVerb::kUnknown;
}

void Ledger::StampCompletions(PhaseResult* phase, bool record_spans) {
  // Every submission left one flight-recorder record whose enqueue stamp was
  // taken on this thread as it submitted, so the phase's records other than
  // background reclusters, in enqueue order, are its submissions in order.
  std::vector<RequestRecord> records;
  for (const RequestRecord& r : service_->flight_recorder().Snapshot()) {
    if (r.verb != RequestVerb::kRecluster &&
        r.enqueue_ns >= phase->start_service_ns &&
        r.enqueue_ns <= phase->end_service_ns) {
      records.push_back(r);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.enqueue_ns != b.enqueue_ns ? a.enqueue_ns < b.enqueue_ns
                                                  : a.id < b.id;
            });
  if (records.size() != phase->submissions.size()) {
    Die("flight recorder holds " + std::to_string(records.size()) +
        " records of a phase that submitted " +
        std::to_string(phase->submissions.size()));
  }
  const uint64_t start = phase->start_service_ns;
  const uint64_t last_submit = records.empty() ? 0 : records.back().enqueue_ns;
  const uint64_t phase_offset = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(phase->start -
                                                           run_start_)
          .count());
  uint64_t backlog = 0;
  for (size_t k = 0; k < records.size(); ++k) {
    const RequestRecord& rec = records[k];
    const int64_t s = phase->submissions[k];
    if (rec.finish_ns > last_submit) ++backlog;
    const Kind kind =
        s < 0 ? Kind::kAdvise : phase->requests[static_cast<size_t>(s)].kind;
    if (rec.verb != VerbOf(kind)) {
      Die("flight-recorder record " + std::to_string(rec.id) + " is a " +
          RequestVerbName(rec.verb) + ", submission " + std::to_string(k) +
          " a " + KindName(kind));
    }
    if (s < 0) {
      AdviseRun& run = phase->advises[static_cast<size_t>(-1 - s)];
      run.start_ns = rec.enqueue_ns - start;
      run.done_ns = rec.finish_ns - start;
      continue;
    }
    const size_t idx = static_cast<size_t>(s);
    Outcome& o = phase->outcomes[idx];
    o.done_ns = rec.finish_ns - start;
    // Spans for the sampled requests, the ones the replays break down.
    if (record_spans && phase->requests[idx].sampled) {
      o.span_id = AddSpan(std::string(KindName(kind)) + "-" +
                              std::to_string(phase->first_request + idx),
                          KindName(kind), -1,
                          phase_offset + phase->requests[idx].due_ns,
                          phase_offset + o.done_ns);
    }
  }
  for (CloseRun& close : phase->closes) {
    close.reply_service_ns = start + phase->outcomes[close.request].done_ns;
  }
  phase->backlog_at_end = backlog;
  std::vector<uint64_t> finishes;
  for (const RequestRecord& rec : records) finishes.push_back(rec.finish_ns);
  std::sort(finishes.begin(), finishes.end());
  std::vector<double> late;
  const uint64_t first_submit = records.empty() ? 0 : records.front().enqueue_ns;
  for (uint64_t t = first_submit + (last_submit - first_submit) / 2;
       t <= last_submit; t += 1'000'000) {
    const auto submitted = std::upper_bound(
        records.begin(), records.end(), t,
        [](uint64_t v, const RequestRecord& r) { return v < r.enqueue_ns; });
    const auto finished =
        std::upper_bound(finishes.begin(), finishes.end(), t);
    late.push_back(static_cast<double>((submitted - records.begin()) -
                                       (finished - finishes.begin())));
  }
  phase->backlog_late = static_cast<uint64_t>(Quantile(late, 0.5));
}

// ---- Output checks ------------------------------------------------------

struct DirectAnswer {
  uint64_t count = 0;
  double sum = 0;
};

/// COUNT/SUM over the query box straight from the fact table, in the same
/// cell order QueryEngine::Execute sums them.
DirectAnswer DirectSum(const FactTable& facts, const GridQuery& query) {
  const StarSchema& schema = facts.schema();
  const CellBox box = BoxOf(schema, query);
  DirectAnswer out;
  CellCoord coord = box.lo;
  const int k = schema.num_dims();
  for (;;) {
    const CellId id = schema.Flatten(coord);
    out.count += facts.count(id);
    out.sum += facts.measure_sum(id);
    int d = k - 1;
    for (; d >= 0; --d) {
      if (++coord[static_cast<size_t>(d)] < box.hi[static_cast<size_t>(d)]) {
        break;
      }
      coord[static_cast<size_t>(d)] = box.lo[static_cast<size_t>(d)];
    }
    if (d < 0) break;
  }
  return out;
}

/// The fields of a served `query` ("count C sum S pages P seeks K") or
/// `measure` ("records R pages P seeks K") reply.
struct ServedRead {
  uint64_t count = 0;
  double sum = 0;
  QueryIo io;
};

std::optional<ServedRead> ParseReadReply(Kind kind, const std::string& reply) {
  ServedRead out;
  unsigned long long a = 0, pages = 0, seeks = 0;
  const bool parsed =
      kind == Kind::kQuery
          ? std::sscanf(reply.c_str(), "count %llu sum %lf pages %llu seeks %llu",
                        &a, &out.sum, &pages, &seeks) == 4
          : std::sscanf(reply.c_str(), "records %llu pages %llu seeks %llu", &a,
                        &pages, &seeks) == 3;
  if (!parsed) return std::nullopt;
  (kind == Kind::kQuery ? out.count : out.io.records) = a;
  out.io.pages = pages;
  out.io.seeks = seeks;
  return out;
}

/// Whether a printed value (`decimals` after the point) is `exact` rounded.
bool SamePrinted(double printed, double exact, int decimals) {
  return std::abs(printed - exact) <=
         0.5 * std::pow(10.0, -decimals) + 1e-12 * std::abs(exact);
}

/// Whether a served read reply carries `count`/`sum` (queries only) and the
/// I/O of `io`.
bool ReadMatches(Kind kind, const ServedRead& served, uint64_t count,
                 double sum, const QueryIo& io) {
  if (kind == Kind::kQuery &&
      (served.count != count || !SamePrinted(served.sum, sum, 2))) {
    return false;
  }
  return (kind == Kind::kQuery || served.io.records == io.records) &&
         served.io.pages == io.pages && served.io.seeks == io.seeks;
}

/// Whether a served advise reply ("best NAME cost C (N strategies)") names
/// `rec`'s best strategy, its cost and its strategy count.
bool AdviseMatches(const std::string& reply, const Recommendation& rec) {
  const size_t cost_at = reply.rfind(" cost ");
  double cost = 0;
  unsigned long long n = 0;
  if (reply.rfind("best ", 0) != 0 || cost_at == std::string::npos ||
      std::sscanf(reply.c_str() + cost_at, " cost %lf (%llu strategies)",
                  &cost, &n) != 2) {
    return false;
  }
  return reply.substr(5, cost_at - 5) == rec.best().name &&
         SamePrinted(cost, rec.best().expected_cost, 4) &&
         n == rec.ranked.size();
}

uint64_t Ledger::CheckPhase(const PhaseResult& phase) {
  uint64_t mismatches = 0;
  const auto note = [&](const std::string& what) {
    ++mismatches;
    if (failure_notes_.size() < 8) failure_notes_.push_back(what);
  };
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    const Outcome& o = phase.outcomes[i];
    if (!r.sampled || !o.ok) continue;
    if (r.kind != Kind::kQuery && r.kind != Kind::kMeasure) continue;
    const Tenant& tenant = tenants_[r.tenant];
    const std::optional<ServedRead> served = ParseReadReply(r.kind, o.reply);
    if (!served.has_value()) {
      note("unparsable " + std::string(KindName(r.kind)) + " reply '" +
           o.reply + "'");
      continue;
    }
    const DirectAnswer direct = r.kind == Kind::kQuery
                                    ? DirectSum(*tenant.warehouse.facts, r.query)
                                    : DirectAnswer{};
    if (r.kind == Kind::kQuery &&
        (served->count != direct.count ||
         !SamePrinted(served->sum, direct.sum, 2))) {
      note("query answer '" + o.reply + "' != direct count " +
           std::to_string(direct.count) + " sum " + std::to_string(direct.sum));
      continue;
    }
    // Only when no relayout was published between the submit-time pin and
    // completion is the pinned epoch provably the one the service read.
    if (o.pinned->sequence != o.seq_at_done) continue;
    const IoSimulator sim(*o.pinned->backend);
    const QueryIo io = sim.Measure(r.query);
    if (!ReadMatches(r.kind, *served, direct.count, direct.sum, io)) {
      note(std::string(KindName(r.kind)) + " reply '" + o.reply +
           "' != simulated records " + std::to_string(io.records) + " pages " +
           std::to_string(io.pages) + " seeks " + std::to_string(io.seeks));
    }
  }
  return mismatches;
}

uint64_t Ledger::CheckFinalAdvise() {
  uint64_t mismatches = 0;
  const ServiceConfig& config = service_->config();
  for (const Tenant& tenant : tenants_) {
    const Recommendation served = Must(service_->Advise(tenant.id), "advise");
    EvaluationRequest request{
        Must(service_->SmoothedWorkload(tenant.id), "smoothed workload")};
    request.strategies = config.recluster.strategies;
    request.num_threads = 1;
    request.cost_mode = config.recluster.cost_mode;
    IncrementalAdvisorState fresh;
    const ClusteringAdvisor advisor(tenant.warehouse.schema);
    const Recommendation direct =
        Must(advisor.AdviseIncremental(request, &fresh), "direct advise");
    if (!BitIdenticalRecommendations(served, direct)) {
      ++mismatches;
      failure_notes_.push_back("final advise of " + tenant.name +
                               " is not bit-identical to AdviseIncremental");
    }
  }
  return mismatches;
}

void Ledger::WaitForReclusters(
    const std::vector<const PhaseResult*>& phases) const {
  uint64_t expected = kTenants;  // the registration decisions
  for (const PhaseResult* p : phases) expected += p->closes.size();
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (service_->audit_log().recorded() < expected) {
    if (Clock::now() > deadline) Die("background reclusters did not drain");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Ledger::MeasureProbes(double* seeks_per_query, double* blocks_per_query) {
  // Probes of every read class on every tenant, measured through the service
  // after every relayout has drained: all queries of a class when it has at
  // most kProbesPerClass of them, else a seeded sample of that many. The
  // figures are means over classes (the read mix weighs classes equally) of
  // per-class means over non-empty probes, so they repeat exactly for a seed
  // and barely move with it.
  Rng rng(Mix(seed_, 77));
  struct Probe {
    size_t cls = 0;
    std::future<Result<std::string>> reply;
  };
  std::vector<Probe> probes;
  for (uint32_t t = 0; t < kTenants; ++t) {
    const StarSchema& schema = *tenants_[t].warehouse.schema;
    for (size_t c = 0; c < spec_.read_classes.size(); ++c) {
      const QueryClass& cls = spec_.read_classes[c];
      const uint64_t n = NumQueriesInClass(schema, cls);
      const uint64_t count = std::min<uint64_t>(n, kProbesPerClass);
      for (uint64_t i = 0; i < count; ++i) {
        const GridQuery q = n <= kProbesPerClass ? QueryAt(schema, cls, i)
                                                 : SampleQuery(schema, cls, &rng);
        probes.push_back(
            {c, service_->SubmitDispatch(
                    tenants_[t].name, "measure " + QueryText(tenants_[t], q))});
      }
    }
  }
  const StorageConfig& storage = service_->config().storage;
  std::vector<double> seeks(spec_.read_classes.size(), 0.0);
  std::vector<double> blocks(spec_.read_classes.size(), 0.0);
  std::vector<uint64_t> nonempty(spec_.read_classes.size(), 0);
  for (Probe& probe : probes) {
    Result<std::string> reply = probe.reply.get();
    ++attempted_;
    if (!reply.ok()) {
      ++failed_;
      continue;
    }
    const std::optional<ServedRead> served =
        ParseReadReply(Kind::kMeasure, reply.value());
    if (!served.has_value()) {
      ++mismatches_;
      if (failure_notes_.size() < 8) {
        failure_notes_.push_back("unparsable probe reply '" + reply.value() +
                                 "'");
      }
      continue;
    }
    QueryIo io = served->io;
    if (io.records == 0) continue;
    io.min_pages = (io.records * storage.record_size_bytes +
                    storage.page_size_bytes - 1) /
                   storage.page_size_bytes;
    seeks[probe.cls] += static_cast<double>(io.seeks);
    blocks[probe.cls] += io.NormalizedBlocks();
    ++nonempty[probe.cls];
  }
  double seek_sum = 0, block_sum = 0;
  size_t classes = 0;
  for (size_t c = 0; c < nonempty.size(); ++c) {
    if (nonempty[c] == 0) continue;
    seek_sum += seeks[c] / static_cast<double>(nonempty[c]);
    block_sum += blocks[c] / static_cast<double>(nonempty[c]);
    ++classes;
  }
  *seeks_per_query = classes == 0 ? 0 : seek_sum / static_cast<double>(classes);
  *blocks_per_query =
      classes == 0 ? 0 : block_sum / static_cast<double>(classes);
}

// ---- Replays (traced run) -----------------------------------------------

int64_t Ledger::AddSpan(const std::string& rid, const char* name,
                        int64_t parent, uint64_t start_ns, uint64_t end_ns,
                        int64_t id) {
  Span span;
  span.rid = rid;
  span.name = name;
  span.id = id != 0 ? id : next_span_id_++;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Ledger::ReplayReads(const PhaseResult& phase) {
  // The sampled reads of the traced phase: each layer's public function is
  // called directly against the epoch the request was pinned to. The span
  // tree is request -> replay -> one span per call. The calls run one after
  // another, so prune and emit (which Measure also does) and measure (which
  // Execute also does) are separate calls, not nested intervals.
  std::vector<double>& parse = layer_["core.parse_us"];
  std::vector<double>& prune = layer_["storage.prune_us"];
  std::vector<double>& emit = layer_["curves.emit_us"];
  std::vector<double>& measure = layer_["storage.measure_us"];
  std::vector<double>& execute = layer_["storage.execute_us"];
  std::vector<double>& query_measure = layer_["storage.query_measure_us"];
  std::vector<double>& attributed = layer_["bench.attributed_query_us"];
  std::vector<double>& runs_per_query = layer_["curves.runs_per_query"];
  std::vector<double>& prune_ratio = layer_["storage.prune_ratio"];
  std::vector<double>& cells = layer_["storage.cells_per_query"];
  std::vector<double>& pages = layer_["storage.pages_per_query"];
  std::vector<double>& pin = layer_["service.pin_ns"];

  std::vector<RankRun> runs;
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    const Outcome& o = phase.outcomes[i];
    if (!r.sampled || !o.ok) continue;
    if (r.kind != Kind::kQuery && r.kind != Kind::kMeasure) continue;
    const Tenant& tenant = tenants_[r.tenant];
    const StorageBackend& backend = *o.pinned->backend;
    const std::string rid = std::string(KindName(r.kind)) + "-" +
                            std::to_string(phase.first_request + i);
    const int64_t root = next_span_id_++;
    const uint64_t root_start = RunNs();
    pin.push_back(static_cast<double>(o.pin_ns));

    const auto time_call = [&](const char* name, int64_t parent,
                               const std::function<void()>& fn) {
      const uint64_t start = RunNs();
      fn();
      const uint64_t end = RunNs();
      AddSpan(rid, name, parent, start, end);
      return static_cast<double>(end - start) * 1e-3;
    };

    GridQuery parsed;
    const double parse_us = time_call("core.parse", root, [&] {
      parsed = Must(ParseGridQuery(*tenant.warehouse.schema, tenant.tables,
                                   r.payload),
                    "replay parse");
    });
    if (!(parsed.cls == r.query.cls) || parsed.block.size() != r.query.block.size() ||
        !std::equal(parsed.block.begin(), parsed.block.end(),
                    r.query.block.begin())) {
      ++mismatches_;
      failure_notes_.push_back("replayed parse of '" + r.payload +
                               "' differs from the generated query");
      continue;
    }
    const double pin_us = time_call("service.pin", root, [&] {
      (void)Must(service_->PinEpoch(tenant.id), "replay pin");
    });
    const CellBox box = BoxOf(*tenant.warehouse.schema, parsed);
    PruneStats prune_stats;
    const double prune_us = time_call("storage.prune", root, [&] {
      prune_stats = backend.PruneBox(box);
    });
    const double emit_us = time_call("curves.emit", root, [&] {
      runs.clear();
      backend.linearization().AppendRuns(box, &runs);
    });
    const IoSimulator simulator(backend);
    QueryIo io;
    const double measure_us = time_call("storage.measure", root, [&] {
      io = simulator.Measure(parsed);
    });
    QueryAnswer answer;
    answer.io = io;
    double attributed_us = parse_us + pin_us;
    if (r.kind == Kind::kQuery) {
      const QueryEngine engine(backend);
      const double execute_us = time_call("storage.execute", root, [&] {
        answer = engine.Execute(parsed);
      });
      execute.push_back(execute_us);
      query_measure.push_back(measure_us);
      attributed_us += execute_us;
      attributed.push_back(attributed_us);
    } else {
      attributed_us += measure_us;
    }
    AddSpan(rid, "replay", o.span_id, root_start, RunNs(), root);

    if (o.pinned->sequence == o.seq_at_done) {
      ++replays_checked_;
      const std::optional<ServedRead> served = ParseReadReply(r.kind, o.reply);
      if (!served.has_value() || !ReadMatches(r.kind, *served, answer.count,
                                              answer.sum, answer.io)) {
        ++mismatches_;
        failure_notes_.push_back(
            "replayed " + std::string(KindName(r.kind)) + " count " +
            std::to_string(answer.count) + " pages " +
            std::to_string(answer.io.pages) + " seeks " +
            std::to_string(answer.io.seeks) + " != served '" + o.reply + "'");
      }
    }
    parse.push_back(parse_us);
    prune.push_back(prune_us);
    emit.push_back(emit_us);
    measure.push_back(measure_us);
    runs_per_query.push_back(static_cast<double>(runs.size()));
    prune_ratio.push_back(prune_stats.PrunedFraction());
    cells.push_back(static_cast<double>(box.NumCells()));
    pages.push_back(static_cast<double>(io.pages));
  }
}

void Ledger::ReplayAdvises(
    const std::vector<std::pair<const AdviseRun*, bool>>& runs) {
  // Replays every advise in order against per-tenant replica memos, so the
  // replica caches evolve exactly like the service's advise state; only the
  // ones marked timed are timed. The cold class fill and class emission are
  // measured on the first few timed ones.
  struct Replica {
    ClassCostCache cost;
    DpCache dp;
  };
  std::vector<Replica> replicas(kTenants);
  const ServiceConfig& config = service_->config();
  size_t heavy = 0;
  uint64_t dp_hits = 0, dp_total = 0, cost_hits = 0, cost_total = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const AdviseRun& run = *runs[i].first;
    if (!run.ok || !run.mu_before.has_value()) continue;
    const Tenant& tenant = tenants_[run.tenant];
    Replica& replica = replicas[run.tenant];
    const ClusteringAdvisor advisor(tenant.warehouse.schema);
    EvaluationRequest request{*run.mu_before};
    request.strategies = config.recluster.strategies;
    request.num_threads = 1;
    request.cost_mode = config.recluster.cost_mode;
    request.cost_cache = &replica.cost;
    request.dp_cache = &replica.dp;
    const bool timed = runs[i].second;
    const std::string rid = "advise-" + std::to_string(i);
    const int64_t root = next_span_id_++;
    const uint64_t root_start = RunNs();

    const DpCache::Stats dp_before = replica.dp.stats();
    const ClassCostCache::Stats cost_before = replica.cost.stats();
    uint64_t t0 = RunNs();
    const EvaluationPlan plan = Must(advisor.Plan(request), "replay plan");
    uint64_t t1 = RunNs();
    const Recommendation rec = Must(advisor.Evaluate(plan), "replay evaluate");
    uint64_t t2 = RunNs();
    if (!timed) continue;
    AddSpan(rid, "core.plan", root, t0, t1);
    AddSpan(rid, "core.evaluate", root, t1, t2);
    layer_["core.plan_ms"].push_back((t1 - t0) * 1e-6);
    layer_["core.evaluate_ms"].push_back((t2 - t1) * 1e-6);
    dp_hits += replica.dp.stats().hits - dp_before.hits;
    dp_total += replica.dp.stats().hits + replica.dp.stats().misses -
                dp_before.hits - dp_before.misses;
    cost_hits += replica.cost.stats().hits - cost_before.hits;
    cost_total += replica.cost.stats().hits + replica.cost.stats().misses -
                  cost_before.hits - cost_before.misses;
    if (run.mu_stable) {
      ++replays_checked_;
      if (!AdviseMatches(run.reply, rec)) {
        ++mismatches_;
        failure_notes_.push_back("replayed advise best " + rec.best().name +
                                 " != served '" + run.reply + "'");
      }
    }

    t0 = RunNs();
    (void)Must(FindOptimalLatticePath(*run.mu_before), "replay dp");
    (void)Must(FindOptimalSnakedLatticePath(*run.mu_before), "replay snaked dp");
    t1 = RunNs();
    AddSpan(rid, "path.dp", root, t0, t1);
    layer_["path.dp_ms"].push_back((t1 - t0) * 1e-6);

    if (heavy++ < 6) {
      for (const PlannedStrategy& s : plan.strategies) {
        ClassCostCache cold;
        t0 = RunNs();
        (void)MeasureExpectedCostCached(*run.mu_before, *s.linearization, &cold,
                                        {}, config.recluster.cost_mode);
        t1 = RunNs();
        AddSpan(rid, "cost.class_fill", root, t0, t1);
        layer_["cost.class_fill_ms"].push_back((t1 - t0) * 1e-6);
      }
      const Linearization& best = *rec.best().linearization;
      const QueryClassLattice lattice(*tenant.warehouse.schema);
      RunArena arena;
      for (uint64_t c = 0; c < lattice.size(); ++c) {
        if (run.mu_before->probability_at(c) <= 0) continue;
        t0 = RunNs();
        best.AppendClassRuns(lattice.ClassAt(c), &arena);
        t1 = RunNs();
        AddSpan(rid, "curves.class_emit", root, t0, t1);
        layer_["curves.class_emit_ms"].push_back((t1 - t0) * 1e-6);
      }
    }
    AddSpan(rid, "replay", -1, root_start, RunNs(), root);
  }
  layer_["path.dp_cache_hit_ratio"].push_back(
      dp_total == 0 ? 0 : static_cast<double>(dp_hits) / dp_total);
  layer_["cost.cache_hit_ratio"].push_back(
      cost_total == 0 ? 0 : static_cast<double>(cost_hits) / cost_total);
}

void Ledger::ReplayRelayouts() {
  // Per tenant: repack the live (adopted) linearization, and price moving
  // the registration layout to it.
  for (const Tenant& tenant : tenants_) {
    const auto live = Must(service_->PinEpoch(tenant.id), "pin");
    const std::string rid = "relayout-" + tenant.name;
    uint64_t t0 = RunNs();
    const auto packed = Must(
        MakeStorageBackend(spec_.backend, live->linearization,
                           tenant.warehouse.facts, service_->config().storage),
        "replay pack");
    uint64_t t1 = RunNs();
    AddSpan(rid, "storage.pack", -1, t0, t1);
    layer_["storage.pack_ms"].push_back((t1 - t0) * 1e-6);
    t0 = RunNs();
    (void)Must(ComputeMovementCost(*tenant.first_epoch->backend, *packed),
               "replay movement");
    t1 = RunNs();
    AddSpan(rid, "recluster.movement", -1, t0, t1);
    layer_["recluster.movement_ms"].push_back((t1 - t0) * 1e-6);
  }
}

void Ledger::WriteSpans() const {
  const std::string path =
      out_dir_ + "/spans-" + spec_.name + "-" + std::to_string(seed_) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perf_ledger: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans_) {
    out << "{\"rid\":\"" << s.rid << "\",\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  std::printf("spans %zu written to %s\n", spans_.size(), path.c_str());
}

// ---- Metrics ------------------------------------------------------------

std::vector<double> Ledger::LatenciesMs(const PhaseResult& phase, Kind kind) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (phase.requests[i].kind != kind || !o.ok) continue;
    out.push_back((o.done_ns - phase.requests[i].due_ns) * 1e-6);
  }
  return out;
}

std::vector<double> Ledger::PerWindow(const std::vector<double>& samples,
                                      double q) {
  const size_t windows = std::max<size_t>(1, samples.size() / kWindowSamples);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = samples.size() * w / windows;
    const size_t hi = samples.size() * (w + 1) / windows;
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                            samples.begin() + static_cast<std::ptrdiff_t>(hi)),
        q));
  }
  return per_window;
}

std::vector<double> Ledger::LagMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const uint64_t due = phase.requests[i].due_ns;
    const uint64_t submit = phase.outcomes[i].submit_ns;
    out.push_back((submit > due ? submit - due : 0) * 1e-6);
  }
  return out;
}

std::vector<RequestRecord> Ledger::RecorderWindow(const PhaseResult& phase,
                                                  RequestVerb verb) const {
  std::vector<RequestRecord> out;
  for (const RequestRecord& r : service_->flight_recorder().Snapshot()) {
    if (r.verb == verb && r.enqueue_ns >= phase.start_service_ns &&
        r.enqueue_ns <= phase.end_service_ns) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<double> Ledger::RelayoutMs(const PhaseResult& phase) const {
  // From the end-epoch reply to the publish of the layout its recluster
  // adopted (the audit entry is stamped just before Publish swaps the epoch
  // pointer, which is what the next PinEpoch sees).
  const std::vector<ReclusterAuditEntry> audit =
      service_->audit_log().Snapshot();
  std::vector<double> out;
  for (const CloseRun& close : phase.closes) {
    const TenantId id = tenants_[close.tenant].id;
    for (const ReclusterAuditEntry& e : audit) {
      if (e.tenant != id || e.engine_epoch != close.closed + 1) continue;
      if (e.decision == ReclusterDecision::kAdopt) {
        out.push_back(e.timestamp_ns > close.reply_service_ns
                          ? (e.timestamp_ns - close.reply_service_ns) * 1e-6
                          : 0.0);
      }
    }
  }
  return out;
}

void Ledger::CountOutcomes(const PhaseResult& phase) {
  for (const Outcome& o : phase.outcomes) {
    ++attempted_;
    if (!o.ok) {
      ++failed_;
      if (failure_notes_.size() < 8) failure_notes_.push_back(o.error);
    }
  }
  for (const AdviseRun& run : phase.advises) {
    ++attempted_;
    if (!run.ok) {
      ++failed_;
      if (failure_notes_.size() < 8) failure_notes_.push_back(run.error);
    }
  }
  mismatches_ += CheckPhase(phase);
}

void Ledger::Emit(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics) const {
  std::string json = "{\"correct\": ";
  json += mismatches_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].second.first);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Ledger::Run() {
  SetUp();
  PrintHardware();
  std::vector<double> setup_s, dbgen_s;
  for (const Tenant& t : tenants_) {
    setup_s.push_back(t.setup_s);
    dbgen_s.push_back(t.dbgen_s);
    std::printf("setup %s: %.3f cpu s (dbgen %.3f), %.3f wall s\n",
                t.name.c_str(), t.setup_s, t.dbgen_s, t.setup_wall_s);
  }

  Rng rng(Mix(seed_, 1));
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  // Adapt: every tenant walks the ramp and settles on its read mix. Each
  // close is followed by a closed-loop advise and a background recluster; the
  // phase is long enough for the most staggered tenant's last close. The
  // harness then waits for every recluster, so no relayout runs beside the
  // timed reads.
  const double epoch_s = (kAdaptIngestsPerEpoch + 3) / kAdaptIngestQps;
  const double stagger = (kTenants - 1.0) / kTenants;
  const PhaseResult adapt = RunPhase(
      BuildWrites(kAdaptIngestQps,
                  (kAdaptWalkEpochs + kWindowEpochs + stagger) * epoch_s, true,
                  &rng),
      false);
  CountOutcomes(adapt);
  std::printf(
      "phase adapt: %.2f s, %zu requests, %zu advises, %zu closes, backlog at "
      "end %llu\n",
      adapt.duration_s, adapt.requests.size(), adapt.advises.size(),
      adapt.closes.size(), static_cast<unsigned long long>(adapt.backlog_at_end));
  WaitForReclusters({&adapt});

  // Reference and ladder. The reference reads, beside the query-log
  // ingests, run in kLadderRungs segments; in an untraced run each segment is
  // followed by the next read-only rung of the max_qps_at_slo search. Every
  // segment and rung drains before the next starts. Spreading the reference
  // windows over the whole measured span lets the calm-window figures find
  // the host's calm stretches, which came and went every ten to thirty
  // seconds.
  const double segment_s = 0.5 * seconds_ / kLadderRungs;
  std::vector<PhaseResult> refs;
  double peak_rss_mb = 0;
  // The fastest rate that met the limit and the slowest that missed it (0
  // while there is none).
  double met = 0, missed = 0;
  double qps = spec_.ladder_start_qps;
  for (int k = 0; k < kLadderRungs; ++k) {
    std::vector<Request> requests =
        BuildWrites(spec_.ingest_qps_per_tenant, segment_s, false, &rng);
    for (Request& r : BuildReads(spec_.reference_qps, segment_s, &rng)) {
      requests.push_back(std::move(r));
    }
    refs.push_back(RunPhase(std::move(requests), trace_));
    CountOutcomes(refs.back());
    // Sampled before the first rung: overload rungs queue a backlog whose
    // size depends on how far past the knee they reach.
    if (k == 0) peak_rss_mb = PeakRssMb();
    if (trace_) continue;

    const PhaseResult rung = RunPhase(BuildReads(qps, segment_s, &rng), false);
    CountOutcomes(rung);
    uint64_t rung_failed = 0;
    for (const Outcome& o : rung.outcomes) rung_failed += o.ok ? 0 : 1;
    const double p99 = WindowedQuantile(LatenciesMs(rung, Kind::kQuery), 0.99);
    const double backlog_limit = qps * kSloMs * 1e-3;
    const bool meets =
        p99 <= kSloMs && rung_failed == 0 &&
        static_cast<double>(rung.backlog_late) <= backlog_limit;
    if (meets) {
      met = std::max(met, qps);
    } else {
      missed = missed == 0 ? qps : std::min(missed, qps);
    }
    const double rung_qps = qps;
    if (missed == 0) {
      qps *= kLadderStep;
    } else if (met == 0) {
      qps /= kLadderStep;
    } else {
      qps = std::sqrt(met * missed);
    }
    qps = std::round(qps);
    std::printf(
        "rung %7.0f/s: query p50 %8.3f ms p99 %9.3f ms, lag p99 %7.3f ms, "
        "backlog late %6llu at end %6llu (limit %.0f), failed %llu -> %s\n",
        rung_qps, Quantile(LatenciesMs(rung, Kind::kQuery), 0.5), p99,
        Quantile(LagMs(rung), 0.99),
        static_cast<unsigned long long>(rung.backlog_late),
        static_cast<unsigned long long>(rung.backlog_at_end), backlog_limit,
        static_cast<unsigned long long>(rung_failed),
        meets ? "meets slo" : "misses slo");
  }
  size_t ref_requests = 0;
  double ref_s = 0;
  for (const PhaseResult& p : refs) {
    ref_requests += p.requests.size();
    ref_s += p.duration_s;
  }
  std::printf("phase reference: %zu segments, %.2f s, %zu requests\n",
              refs.size(), ref_s, ref_requests);
  // One sample list over every reference segment, in time order.
  const auto over_refs = [&refs](const auto& per_phase) {
    std::vector<double> out;
    for (const PhaseResult& p : refs) {
      const std::vector<double> v = per_phase(p);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  };
  const auto latencies = [&over_refs](Kind kind) {
    return over_refs(
        [kind](const PhaseResult& p) { return LatenciesMs(p, kind); });
  };

  if (!trace_) {
    double seeks = 0, blocks = 0;
    MeasureProbes(&seeks, &blocks);
    mismatches_ += CheckFinalAdvise();

    const std::vector<double> query = latencies(Kind::kQuery);
    const std::vector<double> measure = latencies(Kind::kMeasure);
    const std::vector<double> ingest = latencies(Kind::kIngest);
    std::vector<double> advise;
    for (const AdviseRun& run : adapt.advises) {
      if (run.ok) advise.push_back((run.done_ns - run.start_ns) * 1e-6);
    }
    const std::vector<double> relayout = RelayoutMs(adapt);
    // The spread over windows shows how calm the host was; the whole-phase
    // p99s show what the calm-window figures leave out.
    for (const double q : {0.5, 0.99}) {
      const std::vector<double> windows = PerWindow(query, q);
      std::printf(
          "query p%.0f over %zu windows: quartiles %.4f / %.4f / %.4f ms, "
          "worst %.4f ms\n",
          q * 100, windows.size(), Quantile(windows, 0.25),
          Quantile(windows, 0.5), Quantile(windows, 0.75),
          Quantile(windows, 1.0));
    }
    std::printf(
        "samples: query %zu, measure %zu, ingest %zu, advise %zu, relayout "
        "%zu; calm-window measure p99 %.3f ms; whole-phase p99: query %.3f "
        "ms, measure %.3f ms, ingest %.3f ms\n",
        query.size(), measure.size(), ingest.size(), advise.size(),
        relayout.size(), WindowedQuantile(measure, 0.99, kCalmWindows),
        Quantile(query, 0.99), Quantile(measure, 0.99), Quantile(ingest, 0.99));

    metrics = {
        {"setup_s", {Quantile(setup_s, 0.5), "s"}},
        {"query_p50_ms", {WindowedQuantile(query, 0.5, kCalmWindows), "ms"}},
        {"query_p99_ms", {WindowedQuantile(query, 0.99, kCalmWindows), "ms"}},
        {"measure_p50_ms",
         {WindowedQuantile(measure, 0.5, kCalmWindows), "ms"}},
        {"ingest_p99_ms", {WindowedQuantile(ingest, 0.99, kCalmWindows), "ms"}},
        {"advise_p50_ms", {Quantile(advise, 0.5), "ms"}},
        {"advise_p90_ms", {Quantile(advise, 0.9), "ms"}},
        {"relayout_p50_ms", {Quantile(relayout, 0.5), "ms"}},
        {"max_qps_at_slo", {met, "1/s"}},
        {"seeks_per_query", {seeks, "count"}},
        {"blocks_per_query", {blocks, "count"}},
        {"answered_frac",
         {attempted_ == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
          "ratio"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
    };
  } else {
    for (const PhaseResult& p : refs) ReplayReads(p);
    // Every advise in the order it ran; the set-up advises are replayed (to
    // keep the replica memos in step) but not timed.
    std::vector<std::pair<const AdviseRun*, bool>> advises;
    for (const AdviseRun& run : warmups_) advises.emplace_back(&run, false);
    for (const AdviseRun& run : adapt.advises) advises.emplace_back(&run, true);
    ReplayAdvises(advises);
    ReplayRelayouts();
    mismatches_ += CheckFinalAdvise();

    std::vector<double> queue_us, compute_us, recluster_ms;
    for (const PhaseResult& p : refs) {
      for (const RequestRecord& r : RecorderWindow(p, RequestVerb::kQuery)) {
        queue_us.push_back(r.queue_ns() * 1e-3);
        compute_us.push_back(r.compute_ns() * 1e-3);
      }
    }
    double adopts = 0, decisions = 0;
    std::vector<double> pages_moved;
    // Every background recluster of the run (they are few, and the ring
    // holds the whole traced run).
    for (const RequestRecord& r : service_->flight_recorder().Snapshot()) {
      if (r.verb == RequestVerb::kRecluster) {
        recluster_ms.push_back(r.compute_ns() * 1e-6);
      }
    }
    for (const ReclusterAuditEntry& e : service_->audit_log().Snapshot()) {
      if (e.engine_epoch <= 1) continue;  // registration
      decisions += 1;
      if (e.decision == ReclusterDecision::kAdopt) {
        adopts += 1;
        pages_moved.push_back(static_cast<double>(e.pages_moved));
      }
    }
    const double compute_p50 = Quantile(compute_us, 0.5);
    const double attributed_p50 =
        Quantile(layer_["bench.attributed_query_us"], 0.5);
    const std::vector<double> lag_ms = over_refs(LagMs);
    std::printf(
        "replays: %zu read samples, %zu advises (%zu timed), %llu compared "
        "with the served reply\n",
        layer_["core.parse_us"].size(), advises.size(),
        static_cast<size_t>(std::count_if(
            advises.begin(), advises.end(),
            [](const auto& a) { return a.second; })),
        static_cast<unsigned long long>(replays_checked_));
    const auto p50 = [&](const char* name) {
      return Quantile(layer_[name], 0.5);
    };
    metrics = {
        {"service.queue_p99_us", {WindowedQuantile(queue_us, 0.99), "us"}},
        {"service.compute_p50_us", {compute_p50, "us"}},
        {"service.pin_p99_ns", {Quantile(layer_["service.pin_ns"], 0.99), "ns"}},
        {"service.overhead_us", {compute_p50 - attributed_p50, "us"}},
        {"core.parse_us", {p50("core.parse_us"), "us"}},
        {"core.plan_ms", {p50("core.plan_ms"), "ms"}},
        {"core.evaluate_ms", {p50("core.evaluate_ms"), "ms"}},
        {"path.dp_ms", {p50("path.dp_ms"), "ms"}},
        {"path.dp_cache_hit_ratio",
         {Mean(layer_["path.dp_cache_hit_ratio"]), "ratio"}},
        {"cost.class_fill_ms", {p50("cost.class_fill_ms"), "ms"}},
        {"cost.cache_hit_ratio", {Mean(layer_["cost.cache_hit_ratio"]), "ratio"}},
        {"curves.emit_us", {p50("curves.emit_us"), "us"}},
        {"curves.runs_per_query", {Mean(layer_["curves.runs_per_query"]), "count"}},
        {"curves.class_emit_ms", {p50("curves.class_emit_ms"), "ms"}},
        {"storage.prune_us", {p50("storage.prune_us"), "us"}},
        {"storage.prune_ratio", {Mean(layer_["storage.prune_ratio"]), "ratio"}},
        {"storage.measure_us", {p50("storage.measure_us"), "us"}},
        {"storage.aggregate_us",
         {p50("storage.execute_us") - p50("storage.query_measure_us"), "us"}},
        {"storage.cells_per_query",
         {Mean(layer_["storage.cells_per_query"]), "count"}},
        {"storage.pages_per_query",
         {Mean(layer_["storage.pages_per_query"]), "count"}},
        {"storage.pack_ms", {p50("storage.pack_ms"), "ms"}},
        {"recluster.compute_ms", {Quantile(recluster_ms, 0.5), "ms"}},
        {"recluster.movement_ms", {p50("recluster.movement_ms"), "ms"}},
        {"recluster.pages_moved", {Mean(pages_moved), "count"}},
        {"recluster.adopt_ratio",
         {decisions == 0 ? 0 : adopts / decisions, "ratio"}},
        {"tpcd.dbgen_s", {Quantile(dbgen_s, 0.5), "s"}},
        {"bench.unattributed_pct",
         {compute_p50 == 0 ? 0
                           : (compute_p50 - attributed_p50) / compute_p50 *
                                 100.0,
          "%"}},
        {"bench.lag_p99_ms", {WindowedQuantile(lag_ms, 0.99), "ms"}},
    };
    WriteSpans();
  }

  for (const std::string& note : failure_notes_) {
    std::fprintf(stderr, "perf_ledger: check: %s\n", note.c_str());
  }
  service_->Shutdown();
  Emit(metrics);
  return mismatches_ == 0 ? 0 : 1;
}

}  // namespace

int Main(int argc, char** argv) {
  // The whole process runs on one CPU, the last one it may use; the service's
  // threads inherit the affinity. The harness polls without sleeping, so that
  // virtual CPU never halts, and handing a request to a worker is a context
  // switch inside the guest. Spread over several virtual CPUs of a shared
  // host, each hand-off woke a halted one through the hypervisor, which
  // waited up to milliseconds and at times cut the service's throughput
  // fivefold.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) {
    Die("cannot read the CPU affinity");
  }
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &cpus)) continue;
    CPU_ZERO(&cpus);
    CPU_SET(c, &cpus);
    break;
  }
  if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
    Die("cannot pin the process to one CPU");
  }
  std::string workload, out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  std::optional<WorkloadSpec> spec = FindWorkload(workload);
  if (!spec.has_value()) Die("unknown workload '" + workload + "'");
  if (seconds <= 0) Die("--seconds must be positive");
  Ledger ledger(std::move(*spec), seed, seconds, trace != 0, out_dir);
  return ledger.Run();
}

}  // namespace ledger
}  // namespace snakes

int main(int argc, char** argv) { return snakes::ledger::Main(argc, argv); }
