#ifndef SNAKES_CURVES_RUN_ARENA_H_
#define SNAKES_CURVES_RUN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "curves/rank_run.h"
#include "util/logging.h"

namespace snakes {

/// Reusable storage for the run decompositions of every query of one lattice
/// class. Batched emitters (Linearization::AppendClassRuns) walk the curve
/// once and append (query id, run) pairs in global rank order; the arena
/// coalesces per query and keeps per-query counts, so cost measurement needs
/// neither a vector per query nor a regrouping pass — each query's runs
/// already arrive in ascending rank order within the emission-order list.
///
/// Lifetime contract: one arena serves one thread. BeginClass() resets the
/// logical contents for the next class while keeping every allocation, so an
/// arena threaded through a measurement loop (IoSimulator, ClassCostCache,
/// the advisor's per-strategy tasks) amortizes run storage across all
/// classes of all strategies it scores; results are bit-identical to fresh
/// vectors because no state other than capacity survives BeginClass().
class RunArena {
 public:
  /// Starts a new class with `num_queries` query boxes, forgetting all
  /// previously emitted runs (capacity is retained).
  void BeginClass(uint64_t num_queries);

  /// Appends rank interval [start, start + len) to query `qid`, merging into
  /// that query's previous run when adjacent. Starts must be non-decreasing
  /// per query (emitters that walk the curve in rank order satisfy this
  /// globally).
  void Append(uint64_t qid, uint64_t start, uint64_t len) {
    SNAKES_DCHECK(qid < per_query_last_.size());
    SNAKES_DCHECK(len > 0);
    const int64_t last = per_query_last_[qid];
    if (last >= 0 && runs_[static_cast<size_t>(last)].end() == start) {
      runs_[static_cast<size_t>(last)].len += len;
      return;
    }
    SNAKES_DCHECK(last < 0 || runs_[static_cast<size_t>(last)].end() < start);
    per_query_last_[qid] = static_cast<int64_t>(runs_.size());
    ++per_query_runs_[qid];
    runs_.push_back(RankRun{start, len});
    qids_.push_back(qid);
  }

  /// Append for each run of `runs`, in order. Out of line, for emitters
  /// whose own loop already calls Append and would otherwise inline a
  /// second copy of it (the compiler then inlines neither).
  void AppendQuery(uint64_t qid, const std::vector<RankRun>& runs);

  uint64_t num_queries() const { return per_query_runs_.size(); }

  /// Emitted runs in emission (global rank) order, after coalescing.
  size_t num_runs() const { return runs_.size(); }
  const RankRun& run(size_t i) const { return runs_[i]; }
  uint64_t run_qid(size_t i) const { return qids_[i]; }

  /// Coalesced run count of one query — its fragment count.
  uint64_t query_run_count(uint64_t qid) const { return per_query_runs_[qid]; }

  /// A reusable scratch vector for per-box decompositions (the default
  /// AppendClassRuns and other callers that still want a plain run list).
  /// Contents are caller-managed; unrelated to the class emission state.
  std::vector<RankRun>& scratch() { return scratch_; }

 private:
  std::vector<RankRun> runs_;       // emission order
  std::vector<uint64_t> qids_;      // qids_[i] owns runs_[i]
  std::vector<int64_t> per_query_last_;   // index into runs_, -1 = none
  std::vector<uint64_t> per_query_runs_;  // coalesced count per query
  std::vector<RankRun> scratch_;
};

}  // namespace snakes

#endif  // SNAKES_CURVES_RUN_ARENA_H_
