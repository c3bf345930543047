#include "curves/run_arena.h"

#include <algorithm>

namespace snakes {

void RunArena::BeginClass(uint64_t num_queries) {
  runs_.clear();
  qids_.clear();
  per_query_last_.assign(num_queries, -1);
  per_query_runs_.assign(num_queries, 0);
}

void RunArena::AppendQuery(uint64_t qid, const std::vector<RankRun>& runs) {
  for (const RankRun& r : runs) Append(qid, r.start, r.len);
}

}  // namespace snakes
