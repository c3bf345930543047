#include "service/telemetry.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace snakes {

namespace {

/// Shortest float text that survives a round-trip through a scraper.
std::string PromNumber(double v) {
  if (!(v == v)) return "NaN";
  if (v > 1.7e308) return "+Inf";
  if (v < -1.7e308) return "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
std::string PromEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string TenantVerbLabels(const TenantTelemetry& t, int verb) {
  return "{tenant=\"" + PromEscape(t.name) + "\",verb=\"" +
         RequestVerbName(static_cast<RequestVerb>(verb)) + "\"";
}

}  // namespace

std::string ReclusterAuditEntry::ToJson() const {
  std::string out = "{\"sequence\": " + std::to_string(sequence);
  out += ", \"timestamp_ns\": " + std::to_string(timestamp_ns);
  out += ", \"request_id\": " + std::to_string(request_id);
  out += ", \"tenant\": " + std::to_string(tenant);
  out += ", \"engine_epoch\": " + std::to_string(engine_epoch);
  out += ", \"decision\": \"" + std::string(ReclusterDecisionName(decision)) +
         "\"";
  out += ", \"drift\": " + PromNumber(drift);
  out += ", \"budget_pages\": " + std::to_string(budget_pages);
  out += ", \"current_cost\": " + PromNumber(current_cost);
  out += ", \"proposed_cost\": " + PromNumber(proposed_cost);
  out += ", \"relative_improvement\": " + PromNumber(relative_improvement);
  out += ", \"net_benefit\": " + PromNumber(net_benefit);
  out += ", \"benefit_ms\": " + PromNumber(benefit_ms);
  out += ", \"movement_ms\": " + PromNumber(movement_ms);
  out += ", \"pages_moved\": " + std::to_string(pages_moved);
  out += ", \"current_strategy\": \"" + JsonEscape(current_strategy) + "\"";
  out += ", \"proposed_strategy\": \"" + JsonEscape(proposed_strategy) + "\"";
  out += "}";
  return out;
}

ReclusterAuditLog::ReclusterAuditLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void ReclusterAuditLog::Record(ReclusterAuditEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.sequence = recorded_++;
  entries_.push_back(std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_front();
}

uint64_t ReclusterAuditLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::vector<ReclusterAuditEntry> ReclusterAuditLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<ReclusterAuditEntry>(entries_.begin(), entries_.end());
}

std::string TelemetrySnapshot::ToJson(bool pretty) const {
  const char* nl = pretty ? "\n" : "";
  const char* ind = pretty ? "  " : "";
  const char* ind2 = pretty ? "    " : "";
  std::string out = "{";
  out += nl;
  out += ind;
  out += "\"now_ns\": " + std::to_string(now_ns) + ",";
  out += nl;

  out += ind;
  out += "\"recorder\": {\"capacity\": " + std::to_string(recorder_capacity) +
         ", \"recorded\": " + std::to_string(recorder_recorded) +
         ", \"requests\": [";
  out += nl;
  for (size_t i = 0; i < requests.size(); ++i) {
    out += ind2;
    out += requests[i].ToJson();
    if (i + 1 < requests.size()) out += ",";
    out += nl;
  }
  out += ind;
  out += "]},";
  out += nl;

  out += ind;
  out += "\"tenants\": [";
  out += nl;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantTelemetry& t = tenants[i];
    out += ind2;
    out += "{\"tenant\": " + std::to_string(t.tenant) + ", \"name\": \"" +
           JsonEscape(t.name) + "\"";
    out += ", \"epoch_age_ns\": " + std::to_string(t.epoch_age_ns);
    out += ", \"published_sequence\": " +
           std::to_string(t.published_sequence);
    out += ", \"recluster_backlog\": " + std::to_string(t.recluster_backlog);
    out += ", \"cost_model\": \"" + JsonEscape(t.cost_model) + "\"";
    out += ", \"slo_advances\": " + std::to_string(t.slo.advances);
    out += ", \"slo\": {";
    bool first = true;
    for (int v = 0; v < kNumRequestVerbs; ++v) {
      const SloWindow::VerbStats& s = t.slo.verbs[static_cast<size_t>(v)];
      if (s.count == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" +
             std::string(RequestVerbName(static_cast<RequestVerb>(v))) +
             "\": {\"count\": " + std::to_string(s.count) +
             ", \"errors\": " + std::to_string(s.errors) +
             ", \"error_rate\": " + PromNumber(s.error_rate) +
             ", \"p50_ns\": " + PromNumber(s.p50_ns) +
             ", \"p99_ns\": " + PromNumber(s.p99_ns) + "}";
    }
    out += "}}";
    if (i + 1 < tenants.size()) out += ",";
    out += nl;
  }
  out += ind;
  out += "],";
  out += nl;

  out += ind;
  out += "\"audit\": [";
  out += nl;
  for (size_t i = 0; i < audit.size(); ++i) {
    out += ind2;
    out += audit[i].ToJson();
    if (i + 1 < audit.size()) out += ",";
    out += nl;
  }
  out += ind;
  out += "],";
  out += nl;

  out += ind;
  out += "\"trace\": {\"spans\": " + std::to_string(trace_spans) +
         ", \"dropped_spans\": " + std::to_string(trace_dropped_spans) + "}";
  out += nl;
  out += "}";
  if (pretty) out += "\n";
  return out;
}

std::string TelemetrySnapshot::ToPrometheus() const {
  std::string out;

  out += "# TYPE snakes_flight_recorder_capacity gauge\n";
  out += "snakes_flight_recorder_capacity " +
         std::to_string(recorder_capacity) + "\n";
  out += "# TYPE snakes_flight_recorder_recorded_total counter\n";
  out += "snakes_flight_recorder_recorded_total " +
         std::to_string(recorder_recorded) + "\n";

  out += "# TYPE snakes_trace_spans gauge\n";
  out += "snakes_trace_spans " + std::to_string(trace_spans) + "\n";
  out += "# TYPE snakes_trace_dropped_spans_total counter\n";
  out += "snakes_trace_dropped_spans_total " +
         std::to_string(trace_dropped_spans) + "\n";

  out += "# TYPE snakes_slo_request_latency_ns summary\n";
  for (const TenantTelemetry& t : tenants) {
    for (int v = 0; v < kNumRequestVerbs; ++v) {
      const SloWindow::VerbStats& s = t.slo.verbs[static_cast<size_t>(v)];
      if (s.count == 0) continue;
      const std::string labels = TenantVerbLabels(t, v);
      out += "snakes_slo_request_latency_ns" + labels +
             ",quantile=\"0.5\"} " + PromNumber(s.p50_ns) + "\n";
      out += "snakes_slo_request_latency_ns" + labels +
             ",quantile=\"0.99\"} " + PromNumber(s.p99_ns) + "\n";
      out += "snakes_slo_request_latency_ns_sum" + labels + "} " +
             std::to_string(s.sum_ns) + "\n";
      out += "snakes_slo_request_latency_ns_count" + labels + "} " +
             std::to_string(s.count) + "\n";
    }
  }

  out += "# TYPE snakes_slo_request_errors_total counter\n";
  for (const TenantTelemetry& t : tenants) {
    for (int v = 0; v < kNumRequestVerbs; ++v) {
      const SloWindow::VerbStats& s = t.slo.verbs[static_cast<size_t>(v)];
      if (s.count == 0) continue;
      out += "snakes_slo_request_errors_total" + TenantVerbLabels(t, v) +
             "} " + std::to_string(s.errors) + "\n";
    }
  }
  out += "# TYPE snakes_slo_error_rate gauge\n";
  for (const TenantTelemetry& t : tenants) {
    for (int v = 0; v < kNumRequestVerbs; ++v) {
      const SloWindow::VerbStats& s = t.slo.verbs[static_cast<size_t>(v)];
      if (s.count == 0) continue;
      out += "snakes_slo_error_rate" + TenantVerbLabels(t, v) + "} " +
             PromNumber(s.error_rate) + "\n";
    }
  }

  out += "# TYPE snakes_epoch_age_ns gauge\n";
  for (const TenantTelemetry& t : tenants) {
    out += "snakes_epoch_age_ns{tenant=\"" + PromEscape(t.name) + "\"} " +
           std::to_string(t.epoch_age_ns) + "\n";
  }
  out += "# TYPE snakes_epoch_published_sequence counter\n";
  for (const TenantTelemetry& t : tenants) {
    out += "snakes_epoch_published_sequence{tenant=\"" + PromEscape(t.name) +
           "\"} " + std::to_string(t.published_sequence) + "\n";
  }
  out += "# TYPE snakes_recluster_backlog gauge\n";
  for (const TenantTelemetry& t : tenants) {
    out += "snakes_recluster_backlog{tenant=\"" + PromEscape(t.name) +
           "\"} " + std::to_string(t.recluster_backlog) + "\n";
  }
  out += "# TYPE snakes_cost_model_info gauge\n";
  for (const TenantTelemetry& t : tenants) {
    out += "snakes_cost_model_info{tenant=\"" + PromEscape(t.name) +
           "\",model=\"" + PromEscape(t.cost_model) + "\"} 1\n";
  }

  out += "# TYPE snakes_recluster_audit_decisions gauge\n";
  uint64_t by_decision[16] = {};
  for (const ReclusterAuditEntry& e : audit) {
    const auto d = static_cast<size_t>(e.decision);
    if (d < 16) ++by_decision[d];
  }
  for (size_t d = 0; d < 16; ++d) {
    if (by_decision[d] == 0) continue;
    out += "snakes_recluster_audit_decisions{decision=\"" +
           std::string(
               ReclusterDecisionName(static_cast<ReclusterDecision>(d))) +
           "\"} " + std::to_string(by_decision[d]) + "\n";
  }
  return out;
}

}  // namespace snakes
