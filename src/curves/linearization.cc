#include "curves/linearization.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace snakes {

void Linearization::Walk(
    const std::function<void(uint64_t, const CellCoord&)>& fn) const {
  const uint64_t n = num_cells();
  for (uint64_t rank = 0; rank < n; ++rank) {
    fn(rank, CellAt(rank));
  }
}

void Linearization::AppendRuns(const CellBox& box,
                               std::vector<RankRun>* runs) const {
  AppendRunsByRankScan(box, runs);
}

void Linearization::AppendClassRuns(const QueryClass& cls,
                                    RunArena* arena) const {
  const uint64_t num_queries = NumQueriesInClass(schema(), cls);
  arena->BeginClass(num_queries);
  std::vector<RankRun>& scratch = arena->scratch();
  for (uint64_t q = 0; q < num_queries; ++q) {
    scratch.clear();
    AppendRuns(BoxOf(schema(), QueryAt(schema(), cls, q)), &scratch);
    for (const RankRun& r : scratch) arena->Append(q, r.start, r.len);
  }
}

bool Linearization::ClassRunsDegenerate(const QueryClass& cls) const {
  return NumQueriesInClass(schema(), cls) == num_cells();
}

void Linearization::AppendRunsByRankScan(const CellBox& box,
                                         std::vector<RankRun>* runs) const {
  const size_t k = box.lo.size();
  SNAKES_DCHECK(static_cast<int>(k) == schema().num_dims());
  for (size_t d = 0; d < k; ++d) {
    if (box.hi[d] <= box.lo[d]) return;
  }
  std::vector<uint64_t> ranks;
  ranks.reserve(box.NumCells());
  CellCoord coord = box.lo;
  for (;;) {
    ranks.push_back(RankOf(coord));
    int d = static_cast<int>(k) - 1;
    for (; d >= 0; --d) {
      const size_t dd = static_cast<size_t>(d);
      if (++coord[dd] < box.hi[dd]) break;
      coord[dd] = box.lo[dd];
    }
    if (d < 0) break;
  }
  std::sort(ranks.begin(), ranks.end());
  const size_t floor = runs->size();
  for (uint64_t rank : ranks) AppendRun(runs, floor, rank, 1);
}

Status Linearization::Validate() const {
  const uint64_t n = num_cells();
  std::vector<bool> seen(n, false);
  uint64_t expected_rank = 0;
  Status status = Status::OK();
  Walk([&](uint64_t rank, const CellCoord& coord) {
    if (!status.ok()) return;
    if (rank != expected_rank) {
      status = Status::Internal("Walk ranks not sequential");
      return;
    }
    ++expected_rank;
    const CellId id = schema().Flatten(coord);
    if (seen[id]) {
      status = Status::Internal("cell visited twice: id " + std::to_string(id));
      return;
    }
    seen[id] = true;
    if (RankOf(coord) != rank) {
      status = Status::Internal("RankOf(CellAt(r)) != r at rank " +
                                std::to_string(rank));
      return;
    }
    const CellCoord again = CellAt(rank);
    if (schema().Flatten(again) != id) {
      status = Status::Internal("CellAt(r) disagrees with Walk at rank " +
                                std::to_string(rank));
    }
  });
  SNAKES_RETURN_IF_ERROR(status);
  if (expected_rank != n) {
    return Status::Internal("Walk visited " + std::to_string(expected_rank) +
                            " of " + std::to_string(n) + " cells");
  }
  return Status::OK();
}

Result<std::unique_ptr<MaterializedLinearization>>
MaterializedLinearization::Make(std::shared_ptr<const StarSchema> schema,
                                std::string name, std::vector<CellId> order) {
  const uint64_t n = schema->num_cells();
  if (order.size() != n) {
    return Status::InvalidArgument("order has " + std::to_string(order.size()) +
                                   " cells, schema has " + std::to_string(n));
  }
  std::vector<uint64_t> inverse(n, UINT64_MAX);
  for (uint64_t rank = 0; rank < n; ++rank) {
    const CellId id = order[rank];
    if (id >= n) {
      return Status::InvalidArgument("cell id out of range: " +
                                     std::to_string(id));
    }
    if (inverse[id] != UINT64_MAX) {
      return Status::InvalidArgument("cell id repeated: " + std::to_string(id));
    }
    inverse[id] = rank;
  }
  return std::unique_ptr<MaterializedLinearization>(
      new MaterializedLinearization(std::move(schema), std::move(name),
                                    std::move(order), std::move(inverse)));
}

std::unique_ptr<MaterializedLinearization> MaterializedLinearization::From(
    const Linearization& other) {
  std::vector<CellId> order(other.num_cells());
  other.Walk([&](uint64_t rank, const CellCoord& coord) {
    order[rank] = other.schema().Flatten(coord);
  });
  auto result = Make(other.schema_ptr(), other.name(), std::move(order));
  SNAKES_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

CellCoord MaterializedLinearization::CellAt(uint64_t rank) const {
  SNAKES_DCHECK(rank < order_.size());
  return schema().Unflatten(order_[rank]);
}

uint64_t MaterializedLinearization::RankOf(const CellCoord& coord) const {
  return inverse_[schema().Flatten(coord)];
}

void MaterializedLinearization::Walk(
    const std::function<void(uint64_t, const CellCoord&)>& fn) const {
  for (uint64_t rank = 0; rank < order_.size(); ++rank) {
    fn(rank, schema().Unflatten(order_[rank]));
  }
}

void MaterializedLinearization::AppendRuns(const CellBox& box,
                                           std::vector<RankRun>* runs) const {
  const size_t k = box.lo.size();
  SNAKES_DCHECK(static_cast<int>(k) == schema().num_dims());
  for (size_t d = 0; d < k; ++d) {
    if (box.hi[d] <= box.lo[d]) return;
  }
  std::vector<uint64_t> ranks;
  ranks.reserve(box.NumCells());
  const uint64_t row_len = box.hi[k - 1] - box.lo[k - 1];
  CellCoord coord = box.lo;
  for (;;) {
    // Flattened ids along the innermost dimension are consecutive, so one
    // row is one contiguous slice of inverse_.
    const CellId row_start = schema().Flatten(coord);
    for (uint64_t j = 0; j < row_len; ++j) {
      ranks.push_back(inverse_[row_start + j]);
    }
    int d = static_cast<int>(k) - 2;
    for (; d >= 0; --d) {
      const size_t dd = static_cast<size_t>(d);
      if (++coord[dd] < box.hi[dd]) break;
      coord[dd] = box.lo[dd];
    }
    if (d < 0) break;
  }
  std::sort(ranks.begin(), ranks.end());
  const size_t floor = runs->size();
  for (uint64_t rank : ranks) AppendRun(runs, floor, rank, 1);
}

void MaterializedLinearization::AppendClassRuns(const QueryClass& cls,
                                                RunArena* arena) const {
  const StarSchema& s = schema();
  const int k = s.num_dims();
  // Dense query-id strides matching QueryAt: dimension 0 slowest.
  FixedVector<uint64_t, kMaxDimensions> strides;
  strides.resize(static_cast<size_t>(k));
  uint64_t num_queries = 1;
  for (int d = k - 1; d >= 0; --d) {
    strides[static_cast<size_t>(d)] = num_queries;
    num_queries *= s.dim(d).num_blocks(cls.level(d));
  }
  arena->BeginClass(num_queries);
  // Rank-adjacent cells of one query form one run; each maximal stretch
  // goes to the arena as a one-run list.
  std::vector<RankRun>& run = arena->scratch();
  run.clear();
  uint64_t run_qid = 0;
  for (uint64_t rank = 0; rank < order_.size(); ++rank) {
    const CellCoord coord = s.Unflatten(order_[rank]);
    uint64_t qid = 0;
    for (int d = 0; d < k; ++d) {
      qid += s.dim(d).AncestorAt(coord[static_cast<size_t>(d)], cls.level(d)) *
             strides[static_cast<size_t>(d)];
    }
    if (!run.empty() && qid == run_qid) {
      ++run.back().len;
      continue;
    }
    if (!run.empty()) arena->AppendQuery(run_qid, run);
    run.assign(1, RankRun{rank, 1});
    run_qid = qid;
  }
  if (!run.empty()) arena->AppendQuery(run_qid, run);
}

}  // namespace snakes
