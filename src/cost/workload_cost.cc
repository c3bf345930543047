#include "cost/workload_cost.h"

#include "util/logging.h"

namespace snakes {

double ExpectedCost(const Workload& mu, const ClassCostTable& costs) {
  SNAKES_CHECK(mu.lattice() == costs.lattice())
      << "workload and cost table built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * costs.AvgDouble(mu.lattice().ClassAt(i));
  }
  return total;
}

double ExpectedPathCost(const Workload& mu, const LatticePath& path) {
  SNAKES_CHECK(mu.lattice() == path.lattice())
      << "workload and path built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * DistToPath(path, mu.lattice().ClassAt(i));
  }
  return total;
}

double ExpectedSnakedPathCost(const Workload& mu, const LatticePath& path) {
  SNAKES_CHECK(mu.lattice() == path.lattice())
      << "workload and path built over different lattices";
  double total = 0.0;
  for (uint64_t i = 0; i < mu.lattice().size(); ++i) {
    const double p = mu.probability_at(i);
    if (p == 0.0) continue;
    total += p * DistToSnakedPath(path, mu.lattice().ClassAt(i));
  }
  return total;
}

}  // namespace snakes
