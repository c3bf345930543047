#include "recluster/engine.h"

#include <utility>

#include "cost/cost_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/text_table.h"

namespace snakes {

const char* ReclusterDecisionName(ReclusterDecision decision) {
  switch (decision) {
    case ReclusterDecision::kInitialAdopt:
      return "initial-adopt";
    case ReclusterDecision::kAdopt:
      return "adopt";
    case ReclusterDecision::kKeepDriftBelowThreshold:
      return "keep-drift-below-threshold";
    case ReclusterDecision::kKeepAlreadyOptimal:
      return "keep-already-optimal";
    case ReclusterDecision::kKeepCooldown:
      return "keep-cooldown";
    case ReclusterDecision::kKeepBelowHysteresis:
      return "keep-below-hysteresis";
    case ReclusterDecision::kKeepOverBudget:
      return "keep-over-budget";
    case ReclusterDecision::kKeepNegativeNetBenefit:
      return "keep-negative-net-benefit";
  }
  return "unknown";
}

std::string EpochReport::ToString() const {
  std::string out = "epoch " + std::to_string(epoch) + ": " +
                    ReclusterDecisionName(decision) +
                    " (drift " + FormatDouble(drift, 4) + ")\n";
  out += "  current  " + current_strategy + " cost " +
         FormatDouble(current_cost, 4) + "\n";
  out += "  proposed " + proposed_strategy + " cost " +
         FormatDouble(proposed_cost, 4) + " (improvement " +
         FormatDouble(100.0 * relative_improvement, 2) + "%, net benefit " +
         FormatDouble(net_benefit, 2) + " ms = " +
         FormatDouble(benefit_ms, 2) + " saved - " +
         FormatDouble(movement_ms, 2) + " rewrite)\n";
  out += "  movement: " + std::to_string(movement.pages_moved()) +
         " pages (" + std::to_string(movement.moved_runs) + " runs, " +
         std::to_string(movement.moved_records) + " records, stable prefix " +
         std::to_string(movement.stable_prefix_cells) + "/" +
         std::to_string(movement.total_cells) + " cells";
  if (movement.partitions_read + movement.partitions_written > 0) {
    out += ", partitions " + std::to_string(movement.partitions_read) +
           " read / " + std::to_string(movement.partitions_written) +
           " written";
  }
  out += ")\n";
  out += "  recompute: " + std::to_string(cost_evaluations) +
         " class evaluations, " + std::to_string(cost_cache_hits) +
         " cached\n";
  return out;
}

ReclusterEngine::ReclusterEngine(std::shared_ptr<const StarSchema> schema,
                                 std::shared_ptr<const FactTable> facts,
                                 ReclusterConfig config)
    : schema_(std::move(schema)),
      facts_(std::move(facts)),
      config_(std::move(config)),
      advisor_(schema_),
      estimator_(QueryClassLattice(*schema_), config_.ewma_alpha) {}

double ReclusterEngine::CurrentCostUnder(const Workload& mu,
                                         const Recommendation& rec) {
  for (const StrategyReport& report : rec.ranked) {
    if (report.name == current_->name()) return report.expected_cost;
  }
  // The live strategy fell out of the evaluated set (config change between
  // epochs); measure it directly, still through the memo.
  return MeasureExpectedCostCached(mu, *current_, &state_.cost_cache,
                                   config_.obs);
}

Result<EpochReport> ReclusterEngine::OnEpoch(const Workload& epoch_mu) {
  ScopedSpan span(config_.obs.tracer, "recluster/epoch", "recluster");
  {
    Status observed = estimator_.Observe(epoch_mu);
    if (!observed.ok()) return observed;
  }
  ++epochs_seen_;
  const bool in_cooldown = cooldown_remaining_ > 0;
  if (in_cooldown) --cooldown_remaining_;

  EpochReport report;
  report.epoch = epochs_seen_;
  report.drift = estimator_.LastDrift();
  report.current_strategy = current_ != nullptr ? current_->name() : "";
  span.AddArg("drift", report.drift);
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("recluster.epochs")->Inc();
  }

  // A quiet epoch (and an already-adopted layout) skips the advisor
  // entirely; the drift estimator alone absorbs the observation.
  if (current_ != nullptr && state_.advises > 0 &&
      report.drift < config_.readvise_drift_threshold) {
    report.decision = ReclusterDecision::kKeepDriftBelowThreshold;
    report.proposed_strategy = report.current_strategy;
    span.AddArg("decision", ReclusterDecisionName(report.decision));
    return report;
  }

  const Workload mu = estimator_.Smoothed();
  EvaluationRequest request{mu};
  request.strategies = config_.strategies;
  request.num_threads = config_.num_threads;
  request.obs = config_.obs;
  SNAKES_ASSIGN_OR_RETURN(Recommendation rec,
                          advisor_.AdviseIncremental(request, &state_));
  report.cost_evaluations = state_.last_cost_evaluations;
  report.cost_cache_hits = state_.last_cost_hits;
  if (config_.obs.metrics != nullptr) {
    MetricsRegistry& metrics = *config_.obs.metrics;
    metrics.GetCounter("recluster.classes_recomputed")
        ->Inc(report.cost_evaluations);
    metrics.GetCounter("recluster.cache_hits")->Inc(report.cost_cache_hits);
    metrics.GetCounter("recluster.cache_misses")->Inc(report.cost_evaluations);
  }
  if (!rec.has_best()) {
    return Status::InvalidArgument(
        "recluster: no strategy family applies to the schema");
  }
  const std::string best_name = rec.best().name;
  const double best_cost = rec.best().expected_cost;
  std::shared_ptr<const Linearization> best_lin = rec.best().linearization;
  report.proposed_strategy = best_name;
  report.proposed_cost = best_cost;

  const auto finish = [&](ReclusterDecision decision) -> EpochReport {
    report.decision = decision;
    span.AddArg("decision", ReclusterDecisionName(decision));
    report.recommendation = std::move(rec);
    return std::move(report);
  };

  const auto adopt = [&]() -> Status {
    current_ = best_lin;
    if (facts_ != nullptr) {
      // Initial adoption packs fresh; re-adoptions already packed the
      // proposed backend to price the movement.
      if (current_backend_ == nullptr ||
          &current_backend_->linearization() != best_lin.get()) {
        SNAKES_ASSIGN_OR_RETURN(
            current_backend_,
            MakeStorageBackend(config_.backend, best_lin, facts_,
                               config_.storage, config_.obs));
      }
    }
    ++adoptions_;
    cooldown_remaining_ = config_.cooldown_epochs;
    if (config_.obs.metrics != nullptr) {
      config_.obs.metrics->GetCounter("recluster.adoptions")->Inc();
    }
    return Status::OK();
  };

  if (current_ == nullptr) {
    report.current_strategy = best_name;
    report.current_cost = best_cost;
    SNAKES_RETURN_IF_ERROR(adopt());
    return finish(ReclusterDecision::kInitialAdopt);
  }

  report.current_cost = CurrentCostUnder(mu, rec);
  if (best_name == current_->name() || best_cost >= report.current_cost ||
      report.current_cost <= 0.0) {
    report.proposed_cost = best_cost;
    return finish(ReclusterDecision::kKeepAlreadyOptimal);
  }
  const double improvement_seeks = report.current_cost - best_cost;
  report.relative_improvement = improvement_seeks / report.current_cost;
  if (in_cooldown) return finish(ReclusterDecision::kKeepCooldown);
  if (report.relative_improvement < config_.hysteresis_min_improvement) {
    return finish(ReclusterDecision::kKeepBelowHysteresis);
  }

  uint64_t pages_moved = 0;
  std::shared_ptr<const StorageBackend> proposed_backend;
  if (facts_ != nullptr && current_backend_ != nullptr) {
    SNAKES_ASSIGN_OR_RETURN(
        proposed_backend,
        MakeStorageBackend(config_.backend, best_lin, facts_, config_.storage,
                           config_.obs));
    {
      ScopedSpan movement_span(config_.obs.tracer, "recluster/movement",
                               "recluster");
      SNAKES_ASSIGN_OR_RETURN(
          report.movement,
          ComputeMovementCost(*current_backend_, *proposed_backend));
    }
    pages_moved = report.movement.pages_moved();
    if (config_.movement_budget_pages > 0 &&
        pages_moved > config_.movement_budget_pages) {
      return finish(ReclusterDecision::kKeepOverBudget);
    }
  }
  // Both sides of the score in model milliseconds: the benefit is the
  // epoch's saved query time (expected_cost is seeks/query), the cost is
  // the modeled rewrite time. Read and write sides each pay one positioning
  // op per moved run (or per partition at partition granularity) plus their
  // page traffic; movement_cost_per_page scales the total as a unitless
  // write-amplification multiplier.
  const CostModel& model = cost_model();
  report.benefit_ms =
      improvement_seeks * model.SeekMs() * config_.queries_per_epoch;
  if (pages_moved > 0) {
    CostFeatures rewrite;
    rewrite.seeks = static_cast<double>(
        report.movement.partitions_read + report.movement.partitions_written >
                0
            ? report.movement.partitions_read +
                  report.movement.partitions_written
            : 2 * report.movement.moved_runs);
    rewrite.pages = static_cast<double>(pages_moved);
    rewrite.records = static_cast<double>(report.movement.moved_records);
    rewrite.runs = static_cast<double>(report.movement.moved_runs);
    report.movement_ms =
        model.EstimateMs(rewrite, config_.storage.page_size_bytes);
  }
  report.net_benefit =
      report.benefit_ms - report.movement_ms * config_.movement_cost_per_page;
  if (proposed_backend != nullptr && report.net_benefit <= 0.0) {
    return finish(ReclusterDecision::kKeepNegativeNetBenefit);
  }

  if (proposed_backend != nullptr) {
    current_backend_ = std::move(proposed_backend);
  }
  SNAKES_RETURN_IF_ERROR(adopt());
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("recluster.pages_moved")->Inc(pages_moved);
  }
  return finish(ReclusterDecision::kAdopt);
}

Result<std::shared_ptr<const StorageBackend>> ReclusterEngine::SwitchBackend(
    StorageBackendKind kind) {
  if (kind == config_.backend) return current_backend_;
  config_.backend = kind;
  if (current_ == nullptr || facts_ == nullptr) {
    // Nothing adopted yet (or analytic engine): later adoptions pack into
    // the new representation; there is no live backend to convert.
    return std::shared_ptr<const StorageBackend>();
  }
  SNAKES_ASSIGN_OR_RETURN(
      current_backend_,
      MakeStorageBackend(kind, current_, facts_, config_.storage,
                         config_.obs));
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("recluster.backend_switches")->Inc();
  }
  return current_backend_;
}

}  // namespace snakes
