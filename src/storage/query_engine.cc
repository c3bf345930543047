#include "storage/query_engine.h"

namespace snakes {

QueryAnswer QueryEngine::Execute(const GridQuery& query,
                                 PruneStats* prune) const {
  QueryAnswer answer;
  answer.io = simulator_.Measure(query, prune, &answer.cents);
  answer.count = answer.io.records;
  answer.sum = static_cast<double>(answer.cents) / 100.0;
  return answer;
}

QueryAnswer QueryEngine::ExecuteAt(const QueryClass& cls,
                                   const CellCoord& coord) const {
  const StarSchema& schema = backend_.linearization().schema();
  return Execute(QueryContaining(schema, cls, coord));
}

QueryAnswer QueryEngine::ExecuteCellWalk(const GridQuery& query) const {
  const StarSchema& schema = backend_.linearization().schema();
  const FactTable& facts = backend_.facts();
  QueryAnswer answer;
  answer.io = simulator_.MeasureCellWalk(query);

  const CellBox box = BoxOf(schema, query);
  CellCoord coord = box.lo;
  const int k = schema.num_dims();
  for (;;) {
    const CellId id = schema.Flatten(coord);
    answer.count += facts.count(id);
    answer.cents += facts.measure_cents(id);
    int d = k - 1;
    for (; d >= 0; --d) {
      if (++coord[static_cast<size_t>(d)] < box.hi[static_cast<size_t>(d)]) {
        break;
      }
      coord[static_cast<size_t>(d)] = box.lo[static_cast<size_t>(d)];
    }
    if (d < 0) break;
  }
  answer.sum = static_cast<double>(answer.cents) / 100.0;
  return answer;
}

}  // namespace snakes
