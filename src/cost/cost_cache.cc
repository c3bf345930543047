#include "cost/cost_cache.h"

#include "cost/edge_model.h"
#include "lattice/grid_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fraction.h"
#include "util/logging.h"

namespace snakes {

ClassCostCache::StrategyCosts* ClassCostCache::Strategy(
    const std::string& name, uint64_t num_classes) {
  std::lock_guard<std::mutex> lock(table_->mu);
  std::unique_ptr<StrategyCosts>& entry = table_->strategies[name];
  if (entry == nullptr) entry = std::make_unique<StrategyCosts>(num_classes);
  SNAKES_CHECK(entry->known.size() == num_classes)
      << "strategy '" << name << "' cached over a different lattice ("
      << entry->known.size() << " classes, now " << num_classes << ")";
  return entry.get();
}

uint64_t ClassCostCache::NumStrategies() const {
  std::lock_guard<std::mutex> lock(table_->mu);
  return table_->strategies.size();
}

namespace {

/// The fill shared by MeasureExpectedCost and MeasureExpectedCostCached:
/// costs the classes `mu` weights that `entry` lacks, then returns the exact
/// weighted sum, inside a span named `span_name`. `cache`, when non-null,
/// is charged the hits and misses.
double FillAndSum(const Workload& mu, const Linearization& lin,
                  ClassCostCache::StrategyCosts* entry, ClassCostCache* cache,
                  const ObsSink& obs, RunArena* arena, const char* span_name) {
  ScopedSpan span(obs.tracer, span_name, "cost");
  span.AddArg("strategy", lin.name());
  const QueryClassLattice& lat = mu.lattice();
  const StarSchema& schema = lin.schema();

  // Which non-zero classes does `entry` lack, and how many queries do
  // they hold?
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t missing_queries = 0;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    if (mu.probability_at(i) == 0.0) continue;
    if (entry->known[i]) {
      ++hits;
      continue;
    }
    ++misses;
    missing_queries += NumQueriesInClass(schema, lat.ClassAt(i));
  }

  // One edge walk costs every class at once in O(cells * dims). Counting a
  // class's runs costs at least one step per query, and O(cells) per class
  // for a strategy without a run decomposition. So the edge walk fills the
  // whole table for such a strategy, and for an uncached evaluation whose
  // classes hold more queries than the grid has cells. A cached fill counts
  // each missing class by its runs whenever the strategy decomposes: it is
  // paid once per class across epochs, and whole-table edge walks there
  // slowed the median advise on the perf ledger. Both give the exact
  // fragment/query integers, so the sum below is bit-identical whichever
  // fill wrote an entry.
  const bool edge_walk =
      misses > 0 &&
      (!lin.HasRunDecomposition() ||
       (cache == nullptr && missing_queries > lin.num_cells()));
  if (edge_walk) {
    span.AddArg("fill", "edge-walk");
    const ClassCostTable table = MeasureClassCosts(lin);
    for (uint64_t i = 0; i < lat.size(); ++i) {
      if (entry->known[i]) continue;
      const QueryClass cls = lat.ClassAt(i);
      entry->fragments[i] = table.TotalFragments(cls);
      entry->queries[i] = table.NumQueries(cls);
      entry->known[i] = 1;
    }
    if (obs.metrics != nullptr) {
      obs.metrics->GetCounter("cost.cells_scanned")->Inc(lin.num_cells());
    }
  } else if (misses > 0) {
    span.AddArg("fill", "class-runs");
    RunArena local;
    RunArena* fill_arena = arena != nullptr ? arena : &local;
    uint64_t total_runs = 0;
    for (uint64_t i = 0; i < lat.size(); ++i) {
      if (mu.probability_at(i) == 0.0 || entry->known[i]) continue;
      const QueryClass cls = lat.ClassAt(i);
      uint64_t class_fragments;
      if (lin.ClassRunsDegenerate(cls)) {
        // One cell per run over a grid-tiling class: the closed form.
        class_fragments = lin.num_cells();
      } else {
        lin.AppendClassRuns(cls, fill_arena);
        class_fragments = fill_arena->num_runs();
      }
      entry->fragments[i] = class_fragments;
      entry->queries[i] = NumQueriesInClass(schema, cls);
      entry->known[i] = 1;
      total_runs += class_fragments;
    }
    if (obs.metrics != nullptr) {
      obs.metrics->GetCounter("curves.runs_emitted")->Inc(total_runs);
    }
  }
  if (cache != nullptr) {
    cache->RecordHits(hits);
    cache->RecordMisses(misses);
  }
  if (obs.metrics != nullptr) {
    obs.metrics->GetCounter("cost.cache_hits")->Inc(hits);
    obs.metrics->GetCounter("cost.cache_misses")->Inc(misses);
  }
  span.AddArg("cache_hits", hits);
  span.AddArg("cache_misses", misses);

  // The exact summation of ExpectedCost: index order, zero classes skipped,
  // the same Fraction-to-double conversion ClassCostTable::AvgDouble does.
  double total = 0.0;
  for (uint64_t i = 0; i < lat.size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * Fraction(entry->fragments[i], entry->queries[i]).ToDouble();
  }
  return total;
}

}  // namespace

double MeasureExpectedCost(const Workload& mu, const Linearization& lin,
                           const ObsSink& obs, RunArena* arena) {
  ClassCostCache::StrategyCosts entry(mu.lattice().size());
  return FillAndSum(mu, lin, &entry, nullptr, obs, arena, "cost/measure");
}

double MeasureExpectedCostCached(const Workload& mu, const Linearization& lin,
                                 ClassCostCache* cache, const ObsSink& obs,
                                 CostEvalMode, RunArena* arena) {
  SNAKES_CHECK(cache != nullptr)
      << "MeasureExpectedCostCached requires a cache";
  ClassCostCache::StrategyCosts* entry =
      cache->Strategy(lin.name(), mu.lattice().size());
  std::lock_guard<std::mutex> fill(entry->fill_mu);
  return FillAndSum(mu, lin, entry, cache, obs, arena, "cost/measure_cached");
}

}  // namespace snakes
