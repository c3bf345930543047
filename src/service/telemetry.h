#ifndef SNAKES_SERVICE_TELEMETRY_H_
#define SNAKES_SERVICE_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/slo_window.h"
#include "recluster/engine.h"

namespace snakes {

/// Knobs of the advisor service's always-on telemetry layer.
struct TelemetryConfig {
  /// Completed requests the flight recorder retains.
  size_t recorder_capacity = FlightRecorder::kDefaultCapacity;
  /// Time slices per tenant SLO window.
  int slo_buckets = SloWindow::kDefaultBuckets;
  /// Sampler thread cadence: every interval it rotates the SLO windows and
  /// refreshes the per-tenant health gauges. 0 disables the thread —
  /// windows then rotate only via AdvisorService::AdvanceSloWindows() (the
  /// deterministic mode unit tests rely on).
  uint64_t sampler_interval_ms = 0;
  /// Recluster decisions the audit log retains.
  size_t audit_capacity = 1024;
  /// File the flight recorder dumps itself to when the first request
  /// finishes with a non-OK status. Empty disables the automatic dump (the
  /// one-shot error hook still counts via service.requests.errors).
  std::string error_dump_path;
};

/// One audited ReclusterDecision with the inputs that produced it — enough
/// to answer "why did (or didn't) tenant X recluster at epoch N" after the
/// fact, without re-running the engine.
struct ReclusterAuditEntry {
  uint64_t sequence = 0;    // audit-log order (stamped by Record)
  uint64_t timestamp_ns = 0;  // service clock
  /// Request the decision ran under (0 = none, e.g. registration).
  uint64_t request_id = 0;
  uint64_t tenant = 0;
  uint64_t engine_epoch = 0;
  ReclusterDecision decision = ReclusterDecision::kKeepDriftBelowThreshold;
  // ---- inputs ----
  double drift = 0.0;               // total-variation drift of the epoch
  uint64_t budget_pages = 0;        // movement_budget_pages in force
  // ---- outputs ----
  double current_cost = 0.0;
  double proposed_cost = 0.0;
  double relative_improvement = 0.0;
  double net_benefit = 0.0;
  /// The two sides of net_benefit (EpochReport::benefit_ms / movement_ms):
  /// modeled query-time savings and modeled rewrite time, in ms.
  double benefit_ms = 0.0;
  double movement_ms = 0.0;
  uint64_t pages_moved = 0;
  std::string current_strategy;
  std::string proposed_strategy;

  /// One-line JSON object.
  std::string ToJson() const;
};

/// Bounded, mutex-protected log of recluster decisions, oldest dropped
/// first. Decisions are rare (one per tenant epoch) and already serialized
/// per tenant by recluster_mu, so a short lock is the right tool here — the
/// lock-free machinery stays reserved for the per-request recorder.
class ReclusterAuditLog {
 public:
  explicit ReclusterAuditLog(size_t capacity = 1024);
  ReclusterAuditLog(const ReclusterAuditLog&) = delete;
  ReclusterAuditLog& operator=(const ReclusterAuditLog&) = delete;

  /// Appends `entry`, stamping its sequence number.
  void Record(ReclusterAuditEntry entry);

  size_t capacity() const { return capacity_; }
  /// Entries ever recorded (>= Snapshot().size()).
  uint64_t recorded() const;

  /// Copy of the resident entries, oldest first.
  std::vector<ReclusterAuditEntry> Snapshot() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t recorded_ = 0;
  std::deque<ReclusterAuditEntry> entries_;
};

/// One tenant's health in a telemetry snapshot.
struct TenantTelemetry {
  uint64_t tenant = 0;
  std::string name;
  SloWindow::Snapshot slo;
  /// Nanoseconds since the tenant's epoch was last published.
  uint64_t epoch_age_ns = 0;
  uint64_t published_sequence = 0;
  /// Background reclusters scheduled but not yet finished.
  uint64_t recluster_backlog = 0;
  /// Name of the tenant's live cost model ("analytic" / "hdd" / ...).
  std::string cost_model;
};

/// Point-in-time view of the whole telemetry layer, detached from the
/// service. Serializes as JSON (machines) or Prometheus text exposition
/// (scrapers); both renderings come from the same snapshot, so they always
/// agree.
struct TelemetrySnapshot {
  uint64_t now_ns = 0;  // service clock at snapshot time
  // ---- flight recorder ----
  uint64_t recorder_capacity = 0;
  uint64_t recorder_recorded = 0;
  std::vector<RequestRecord> requests;  // sorted by id
  // ---- per-tenant SLO ----
  std::vector<TenantTelemetry> tenants;
  // ---- recluster audit ----
  std::vector<ReclusterAuditEntry> audit;
  // ---- tracer ----
  uint64_t trace_spans = 0;
  uint64_t trace_dropped_spans = 0;

  /// {"now_ns": .., "recorder": {..}, "tenants": [..], "audit": [..],
  ///  "trace": {..}}.
  std::string ToJson(bool pretty = true) const;

  /// Prometheus text exposition (one "# TYPE" line per metric family;
  /// summaries carry quantile labels). Tenant and verb label values are
  /// escaped per the exposition format.
  std::string ToPrometheus() const;
};

}  // namespace snakes

#endif  // SNAKES_SERVICE_TELEMETRY_H_
