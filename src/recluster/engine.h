#ifndef SNAKES_RECLUSTER_ENGINE_H_
#define SNAKES_RECLUSTER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "cost/cost_model.h"
#include "cost/workload_cost.h"
#include "lattice/workload.h"
#include "lattice/workload_delta.h"
#include "obs/obs.h"
#include "recluster/movement.h"
#include "storage/backend.h"
#include "storage/fact_table.h"
#include "util/result.h"

namespace snakes {

/// Knobs of the incremental reclustering engine.
struct ReclusterConfig {
  /// EWMA smoothing weight for the workload estimate (lattice/workload_delta).
  double ewma_alpha = 0.3;
  /// Skip re-advising entirely when the epoch's total-variation drift
  /// against the running estimate is below this (0 = always re-advise).
  double readvise_drift_threshold = 0.0;
  /// Queries expected per epoch: converts per-query expected-cost
  /// improvement into the benefit side of the net-benefit score.
  double queries_per_epoch = 1000.0;
  /// Unitless multiplier on the modeled movement time (a write-amplification
  /// fudge: rewrite pipelines rarely run at the model's read bandwidth).
  /// Historically this was "seek units per page moved"; both sides of the
  /// net-benefit score are now denominated in model milliseconds.
  double movement_cost_per_page = 1.0;
  /// Hard ceiling on pages a single re-layout may touch (0 = unlimited).
  uint64_t movement_budget_pages = 0;
  /// Flap guard: adopt only when the relative improvement
  /// (current - proposed) / current exceeds this fraction.
  double hysteresis_min_improvement = 0.0;
  /// Flap guard: epochs after an adoption during which no further
  /// re-layout is adopted.
  int cooldown_epochs = 0;
  /// Strategy families to evaluate (empty = all registered).
  std::vector<std::string> strategies;
  /// Threads for the advisor's evaluation engine (0 = hardware).
  int num_threads = 1;
  /// Unused; kept while the perf ledger still names it.
  CostEvalMode cost_mode = CostEvalMode::kAuto;
  StorageConfig storage;
  /// Storage representation the engine packs adopted layouts into.
  StorageBackendKind backend = StorageBackendKind::kPacked;
  /// Time model pricing both sides of the net-benefit score
  /// (cost/cost_model.h). Null = the analytic default. The model never
  /// changes which strategy ranks best — only whether an improvement is
  /// worth its movement, so an hdd and an ssd model can legitimately
  /// disagree about adopting the same re-layout.
  std::shared_ptr<const CostModel> cost_model;
  ObsSink obs;
};

/// Why an epoch kept or changed the physical layout.
enum class ReclusterDecision {
  /// First advised epoch: the initial layout is adopted unconditionally.
  kInitialAdopt,
  /// A cheaper layout cleared every guard; the re-layout is adopted.
  kAdopt,
  /// Drift since the running estimate was below readvise_drift_threshold;
  /// no re-advise was performed.
  kKeepDriftBelowThreshold,
  /// The advisor's best strategy is the current one (or no cheaper one).
  kKeepAlreadyOptimal,
  /// Within the post-adoption cooldown window.
  kKeepCooldown,
  /// Improvement below the hysteresis threshold.
  kKeepBelowHysteresis,
  /// The re-layout would exceed movement_budget_pages.
  kKeepOverBudget,
  /// Improvement positive but the movement cost eats it: net benefit <= 0.
  kKeepNegativeNetBenefit,
};

/// Short stable name ("adopt", "keep-cooldown", ...) for reports.
const char* ReclusterDecisionName(ReclusterDecision decision);

/// What one epoch did and what it cost to find out.
struct EpochReport {
  uint64_t epoch = 0;
  /// Total-variation drift of the epoch against the running estimate.
  double drift = 0.0;
  ReclusterDecision decision = ReclusterDecision::kKeepDriftBelowThreshold;
  std::string current_strategy;
  std::string proposed_strategy;
  /// Expected cost (seeks/query) of the current and the proposed layout
  /// under the smoothed workload estimate; equal when no change proposed.
  double current_cost = 0.0;
  double proposed_cost = 0.0;
  /// (current - proposed) / current; 0 when nothing cheaper was found.
  double relative_improvement = 0.0;
  /// benefit_ms - movement_ms * movement_cost_per_page; both sides priced by
  /// the engine's CostModel so the score is denominated in milliseconds.
  double net_benefit = 0.0;
  /// improvement_in_seeks * model.SeekMs() * queries_per_epoch — the epoch's
  /// modeled query-time savings from adopting the proposed layout.
  double benefit_ms = 0.0;
  /// Modeled time of the rewrite itself (read + write sides of `movement`
  /// priced through the CostModel), before the movement_cost_per_page scale.
  double movement_ms = 0.0;
  /// Rank-run movement price of the proposed re-layout (all zero when no
  /// move was priced — analytic mode, or the epoch kept early).
  MovementCost movement;
  /// Per-class cost evaluations this epoch (cache misses) and evaluations
  /// avoided (hits) — the incremental-recompute savings.
  uint64_t cost_evaluations = 0;
  uint64_t cost_cache_hits = 0;
  /// Full advisor output when the epoch re-advised.
  std::optional<Recommendation> recommendation;

  std::string ToString() const;
};

/// Replays a sequence of workload epochs against a fact table, re-advising
/// incrementally and re-laying the table only when the net benefit is
/// positive and every guard (hysteresis, budget, cooldown) passes:
///
///   ReclusterEngine engine(schema, facts, config);
///   for (const Workload& mu : epochs) {
///     auto report = engine.OnEpoch(mu);          // advises + decides
///     ... engine.current() is the live layout ...
///   }
///
/// `facts` may be null: the engine then scores layouts analytically and
/// adopts without pricing movement (movement stays zero, the budget is not
/// consulted). Not thread-safe; one epoch at a time.
class ReclusterEngine {
 public:
  ReclusterEngine(std::shared_ptr<const StarSchema> schema,
                  std::shared_ptr<const FactTable> facts,
                  ReclusterConfig config);

  /// Observes one epoch's workload, re-advises (incrementally) when drift
  /// warrants, prices the best re-layout, and adopts or keeps.
  Result<EpochReport> OnEpoch(const Workload& epoch_mu);

  /// The live clustering; null until the first advised epoch adopts.
  std::shared_ptr<const Linearization> current() const { return current_; }
  /// The live storage backend; null until first adoption or when `facts` is
  /// null. Shared so a serving layer can publish the backend as an epoch and
  /// let in-flight readers keep it alive after the engine adopts a
  /// replacement (double-buffering: the engine never mutates a published
  /// backend, it swaps in a freshly packed one).
  std::shared_ptr<const StorageBackend> current_backend() const {
    return current_backend_;
  }

  /// The representation adopted layouts are packed into.
  StorageBackendKind backend_kind() const { return config_.backend; }

  /// Repacks the live clustering into `kind` and makes it the engine's
  /// storage representation for every later adoption. Returns the new live
  /// backend — the same object when the kind is already current, null when
  /// nothing is adopted yet or the engine is analytic (null facts; the kind
  /// still switches for later use).
  Result<std::shared_ptr<const StorageBackend>> SwitchBackend(
      StorageBackendKind kind);

  /// Swaps the time model used by every later epoch's net-benefit score
  /// (null = back to the analytic default). Cached per-class costs are
  /// model-independent and stay valid — switching models never invalidates
  /// the advisor state.
  void SetCostModel(std::shared_ptr<const CostModel> model) {
    config_.cost_model = std::move(model);
  }
  /// The model the next epoch will price with (the analytic default when the
  /// config holds none).
  const CostModel& cost_model() const {
    return config_.cost_model != nullptr ? *config_.cost_model
                                         : *DefaultCostModel();
  }

  const IncrementalAdvisorState& state() const { return state_; }
  const EwmaDriftEstimator& estimator() const { return estimator_; }
  uint64_t epochs_seen() const { return epochs_seen_; }
  uint64_t adoptions() const { return adoptions_; }

 private:
  /// Expected cost of the current strategy under `mu`, from the ranked
  /// report when present, else measured through the cost cache.
  double CurrentCostUnder(const Workload& mu, const Recommendation& rec);

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const FactTable> facts_;
  ReclusterConfig config_;
  ClusteringAdvisor advisor_;
  EwmaDriftEstimator estimator_;
  IncrementalAdvisorState state_;
  std::shared_ptr<const Linearization> current_;
  std::shared_ptr<const StorageBackend> current_backend_;
  uint64_t epochs_seen_ = 0;
  uint64_t adoptions_ = 0;
  int cooldown_remaining_ = 0;
};

}  // namespace snakes

#endif  // SNAKES_RECLUSTER_ENGINE_H_
