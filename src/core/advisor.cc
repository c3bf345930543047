#include "core/advisor.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "cost/workload_cost.h"
#include "curves/path_order.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "path/dpkd.h"
#include "path/snaked_dp.h"
#include "util/logging.h"
#include "util/text_table.h"
#include "util/thread_pool.h"

namespace snakes {

std::string Recommendation::ToString() const {
  std::string out = "optimal lattice path: " + optimal_path.ToString() + "\n";
  out += "cost " + FormatDouble(optimal_path_cost, 4) + " unsnaked, " +
         FormatDouble(snaked_optimal_cost, 4) + " snaked\n";
  out += "optimal snaked path:  " + optimal_snaked_path.ToString() +
         ", cost " + FormatDouble(optimal_snaked_cost, 4) + "\n\n";
  if (ranked.empty()) {
    out += "(no strategy evaluated: every requested family was "
           "inapplicable to the schema)\n";
    return out;
  }
  TextTable table(
      {"strategy", "expected cost", "expected ms", "seeks/query",
       "norm blocks"});
  for (const StrategyReport& report : ranked) {
    std::vector<std::string> row{report.name,
                                 FormatDouble(report.expected_cost, 4),
                                 FormatDouble(report.expected_ms, 4)};
    if (report.io.has_value()) {
      row.push_back(FormatDouble(report.io->expected_seeks, 2));
      row.push_back(FormatDouble(report.io->expected_normalized_blocks, 2));
    }
    table.AddRow(std::move(row));
  }
  out += table.Render();
  return out;
}

namespace {

bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

}  // namespace

bool BitIdenticalRecommendations(const Recommendation& a,
                                 const Recommendation& b) {
  if (!(a.optimal_path == b.optimal_path) ||
      !(a.optimal_snaked_path == b.optimal_snaked_path)) {
    return false;
  }
  if (!SameBits(a.optimal_path_cost, b.optimal_path_cost) ||
      !SameBits(a.snaked_optimal_cost, b.snaked_optimal_cost) ||
      !SameBits(a.optimal_snaked_cost, b.optimal_snaked_cost)) {
    return false;
  }
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].name != b.ranked[i].name ||
        !SameBits(a.ranked[i].expected_cost, b.ranked[i].expected_cost)) {
      return false;
    }
  }
  return true;
}

std::string EvaluationPlan::ToString() const {
  std::string out = "evaluation plan: " +
                    std::to_string(strategies.size()) + " candidate(s), " +
                    std::to_string(num_threads) + " thread(s)\n";
  out += "optimal lattice path: " + optimal_path.path.ToString() + "\n";
  out += "optimal snaked path:  " + optimal_snaked_path.path.ToString() + "\n";
  for (const PlannedStrategy& s : strategies) {
    out += "  evaluate [" + s.factory + "] " + s.linearization->name() + "\n";
  }
  for (const SkippedStrategy& s : skipped) {
    out += "  skip     [" + s.factory + "] " + s.reason.message() + "\n";
  }
  return out;
}

Result<EvaluationPlan> ClusteringAdvisor::Plan(
    const EvaluationRequest& request) const {
  ScopedSpan span(request.obs.tracer, "advisor/plan", "advisor");
  if (request.measure_storage && request.facts == nullptr) {
    return Status::InvalidArgument("measure_storage requires a fact table");
  }
  {
    const QueryClassLattice expected(*schema_);
    if (!(request.workload.lattice() == expected)) {
      return Status::InvalidArgument(
          "workload lattice does not match the advisor's schema");
    }
  }

  // Resolve the requested families against the registry before doing any
  // work, so typos fail fast.
  const StrategyRegistry& registry =
      request.registry != nullptr ? *request.registry
                                  : StrategyRegistry::BuiltIns();
  std::vector<const StrategyFactory*> selected;
  if (request.strategies.empty()) {
    for (const auto& factory : registry.factories()) {
      selected.push_back(factory.get());
    }
  } else {
    for (const std::string& name : request.strategies) {
      const StrategyFactory* factory = registry.Find(name);
      if (factory == nullptr) {
        std::string known;
        for (const auto& f : registry.factories()) {
          if (!known.empty()) known += ", ";
          known += f->name();
        }
        return Status::InvalidArgument("unknown strategy family '" + name +
                                       "' (registered: " + known + ")");
      }
      selected.push_back(factory);
    }
  }

  const int num_threads = request.num_threads <= 0
                              ? ThreadPool::DefaultThreads()
                              : request.num_threads;

  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);
  std::optional<OptimalPathResult> dp_opt;
  std::optional<OptimalPathResult> snaked_dp_opt;
  if (request.dp_cache != nullptr) {
    // Memoized DPs: bit-identical reuse when the workload is exactly a
    // previously solved one (exact probability verification inside).
    SNAKES_ASSIGN_OR_RETURN(
        OptimalPathResult dp,
        request.dp_cache->OptimalPath(request.workload,
                                      pool ? &*pool : nullptr, request.obs));
    SNAKES_ASSIGN_OR_RETURN(
        OptimalPathResult snaked_dp,
        request.dp_cache->OptimalSnakedPath(request.workload, request.obs));
    dp_opt.emplace(std::move(dp));
    snaked_dp_opt.emplace(std::move(snaked_dp));
  } else {
    SNAKES_ASSIGN_OR_RETURN(
        OptimalPathResult dp,
        FindOptimalLatticePath(request.workload, pool ? &*pool : nullptr,
                               request.obs));
    SNAKES_ASSIGN_OR_RETURN(
        OptimalPathResult snaked_dp,
        FindOptimalSnakedLatticePath(request.workload, request.obs));
    dp_opt.emplace(std::move(dp));
    snaked_dp_opt.emplace(std::move(snaked_dp));
  }
  OptimalPathResult& dp = *dp_opt;
  OptimalPathResult& snaked_dp = *snaked_dp_opt;

  const double snaked_cost_of_optimal =
      ExpectedSnakedPathCost(request.workload, dp.path);
  EvaluationPlan plan{
      .workload = request.workload,
      .optimal_path = std::move(dp),
      .optimal_snaked_path = std::move(snaked_dp),
      .snaked_cost_of_optimal = snaked_cost_of_optimal,
      .strategies = {},
      .skipped = {},
      .num_threads = num_threads,
      .measure_storage = request.measure_storage,
      .storage = request.storage,
      .backend = request.backend,
      .facts = request.facts,
      .obs = request.obs,
      .cost_model = request.cost_model != nullptr ? request.cost_model
                                                  : DefaultCostModel(),
      .cost_cache = request.cost_cache,
  };

  const StrategyContext ctx{schema_, &plan.workload, &plan.optimal_path,
                            &plan.optimal_snaked_path};
  for (const StrategyFactory* factory : selected) {
    const Status applicable = factory->Applicable(*schema_);
    if (!applicable.ok()) {
      plan.skipped.push_back({factory->name(), applicable});
      continue;
    }
    SNAKES_ASSIGN_OR_RETURN(auto candidates, factory->Build(ctx));
    for (auto& lin : candidates) {
      plan.strategies.push_back({factory->name(), std::move(lin)});
    }
  }
  if (request.obs.metrics != nullptr) {
    MetricsRegistry& metrics = *request.obs.metrics;
    metrics.GetCounter("advisor.factories_considered")->Inc(selected.size());
    metrics.GetCounter("advisor.factories_skipped")->Inc(plan.skipped.size());
    metrics.GetCounter("advisor.strategies_planned")
        ->Inc(plan.strategies.size());
  }
  span.AddArg("candidates", static_cast<uint64_t>(plan.strategies.size()));
  span.AddArg("skipped", static_cast<uint64_t>(plan.skipped.size()));
  return plan;
}

Result<Recommendation> ClusteringAdvisor::Evaluate(
    const EvaluationPlan& plan) const {
  ScopedSpan eval_span(plan.obs.tracer, "advisor/evaluate", "advisor");
  eval_span.AddArg("candidates", static_cast<uint64_t>(plan.strategies.size()));
  eval_span.AddArg("threads", static_cast<uint64_t>(plan.num_threads));
  Recommendation rec{plan.optimal_path.path,
                     plan.optimal_snaked_path.path,
                     plan.optimal_path.cost,
                     plan.snaked_cost_of_optimal,
                     plan.optimal_snaked_path.cost,
                     {}};

  // One task per candidate. Tasks are pure functions of the (shared,
  // immutable) plan, and futures are collected in submission order, so the
  // ranking below is identical at every pool size. `enqueued` is when the
  // task was submitted; the gap to the task actually starting is the
  // queue-wait (all zeros on the serial path), split out from compute time
  // so saturation is visible in the metrics.
  using Clock = std::chrono::steady_clock;
  const ObsSink& obs = plan.obs;
  const auto score = [&plan, &obs](const PlannedStrategy& candidate,
                                   Clock::time_point enqueued)
      -> Result<StrategyReport> {
    const Clock::time_point started = obs.enabled() ? Clock::now() : Clock::time_point();
    ScopedSpan span(obs.tracer, candidate.linearization->name(), "strategy");
    span.AddArg("factory", candidate.factory);
    // One run arena per task: cost measurement and storage simulation of
    // this candidate reuse its storage across every class; tasks never share
    // one (the arena is single-threaded state). Cached or not, the cost
    // comes from the same class-cost fill.
    RunArena arena;
    StrategyReport report;
    report.name = candidate.linearization->name();
    report.linearization = candidate.linearization;
    report.expected_cost =
        plan.cost_cache != nullptr
            ? MeasureExpectedCostCached(plan.workload,
                                        *candidate.linearization,
                                        plan.cost_cache, obs, {}, &arena)
            : MeasureExpectedCost(plan.workload, *candidate.linearization,
                                  obs, &arena);
    if (plan.measure_storage) {
      SNAKES_ASSIGN_OR_RETURN(
          std::shared_ptr<const StorageBackend> backend,
          MakeStorageBackend(plan.backend, candidate.linearization,
                             plan.facts, plan.storage, obs));
      const IoSimulator sim(*backend, obs, &arena);
      report.io = IoSimulator::Expect(plan.workload, sim.MeasureAllClasses());
    }
    // The ms conversion happens here at the edge: the model prices the
    // measured I/O when storage was measured, else the seek surrogate.
    const CostModel& model =
        plan.cost_model != nullptr ? *plan.cost_model : *DefaultCostModel();
    report.expected_ms =
        report.io.has_value()
            ? model.ExpectedMs(*report.io, plan.storage.page_size_bytes)
            : report.expected_cost * model.SeekMs();
    if (obs.metrics != nullptr) {
      const auto ns = [](Clock::duration d) {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
      };
      MetricsRegistry& metrics = *obs.metrics;
      metrics.GetCounter("advisor.strategies_evaluated")->Inc();
      metrics.GetHistogram("advisor.queue_wait_ns")
          ->Record(ns(started - enqueued));
      metrics.GetHistogram("advisor.strategy_compute_ns")
          ->Record(ns(Clock::now() - started));
    }
    return report;
  };

  std::vector<Result<StrategyReport>> reports;
  reports.reserve(plan.strategies.size());
  if (plan.num_threads == 1 || plan.strategies.size() <= 1) {
    for (const PlannedStrategy& candidate : plan.strategies) {
      reports.push_back(score(candidate, Clock::now()));
    }
  } else {
    ThreadPool pool(plan.num_threads);
    std::vector<std::future<Result<StrategyReport>>> pending;
    pending.reserve(plan.strategies.size());
    for (const PlannedStrategy& candidate : plan.strategies) {
      pending.push_back(pool.Submit([&score, &candidate,
                                     enqueued = Clock::now()]() {
        return score(candidate, enqueued);
      }));
    }
    for (auto& future : pending) {
      reports.push_back(future.get());
    }
  }
  for (Result<StrategyReport>& report : reports) {
    if (!report.ok()) return report.status();
    rec.ranked.push_back(std::move(report).value());
  }
  std::stable_sort(rec.ranked.begin(), rec.ranked.end(),
                   [](const StrategyReport& x, const StrategyReport& y) {
                     return x.expected_cost < y.expected_cost;
                   });
  return rec;
}

Result<Recommendation> ClusteringAdvisor::Advise(
    const EvaluationRequest& request) const {
  SNAKES_ASSIGN_OR_RETURN(EvaluationPlan plan, Plan(request));
  return Evaluate(plan);
}

Result<Recommendation> ClusteringAdvisor::AdviseIncremental(
    const EvaluationRequest& request, IncrementalAdvisorState* state) const {
  SNAKES_CHECK(state != nullptr) << "AdviseIncremental requires state";
  ScopedSpan span(request.obs.tracer, "advisor/advise_incremental", "advisor");
  EvaluationRequest cached = request;
  cached.cost_cache = &state->cost_cache;
  cached.dp_cache = &state->dp_cache;
  const ClassCostCache::Stats cost_before = state->cost_cache.stats();
  const DpCache::Stats dp_before = state->dp_cache.stats();
  SNAKES_ASSIGN_OR_RETURN(EvaluationPlan plan, Plan(cached));
  SNAKES_ASSIGN_OR_RETURN(Recommendation rec, Evaluate(plan));
  const ClassCostCache::Stats cost_after = state->cost_cache.stats();
  const DpCache::Stats dp_after = state->dp_cache.stats();
  state->last_cost_evaluations = cost_after.misses - cost_before.misses;
  state->last_cost_hits = cost_after.hits - cost_before.hits;
  state->last_dp_hits = dp_after.hits - dp_before.hits;
  state->last_dp_misses = dp_after.misses - dp_before.misses;
  ++state->advises;
  span.AddArg("cost_evaluations", state->last_cost_evaluations);
  span.AddArg("cost_hits", state->last_cost_hits);
  if (request.obs.metrics != nullptr) {
    MetricsRegistry& metrics = *request.obs.metrics;
    metrics.GetCounter("advisor.incremental_advises")->Inc();
    metrics.GetCounter("advisor.incremental_cost_evaluations")
        ->Inc(state->last_cost_evaluations);
    metrics.GetCounter("advisor.incremental_cost_hits")
        ->Inc(state->last_cost_hits);
  }
  return rec;
}

Result<std::unique_ptr<Linearization>> ClusteringAdvisor::RecommendedOrder(
    const Workload& mu) const {
  SNAKES_ASSIGN_OR_RETURN(OptimalPathResult dp,
                          FindOptimalSnakedLatticePath(mu));
  return MakePathOrder(schema_, dp.path, /*snaked=*/true);
}

}  // namespace snakes
