#ifndef SNAKES_TESTS_TPCD_SNAKED_LAYOUT_H_
#define SNAKES_TESTS_TPCD_SNAKED_LAYOUT_H_

#include <memory>
#include <utility>

#include "curves/linearization.h"
#include "curves/path_order.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "path/snaked_dp.h"
#include "tpcd/dbgen.h"

namespace snakes {

/// The layout EXPERIMENTS.md quotes its TPC-D pruning, run-decomposition and
/// run-emission figures on: the default dbgen warehouse (200 x 10 x 84 grid,
/// ~1.6M lineitems at the default seed) clustered by the snaked optimal
/// lattice path for the uniform workload.
struct TpcdSnakedLayout {
  tpcd::Warehouse warehouse;
  LatticePath path;
  std::shared_ptr<const Linearization> lin;
};

/// Generating the warehouse dominates a TPC-D test's cost, so a test binary
/// builds it once and every test in it shares the read-only result.
inline const TpcdSnakedLayout& SharedTpcdSnakedLayout() {
  static const TpcdSnakedLayout layout = [] {
    tpcd::Warehouse warehouse =
        tpcd::GenerateWarehouse(tpcd::Config()).value();
    const QueryClassLattice lattice(*warehouse.schema);
    LatticePath path =
        FindOptimalSnakedLatticePath(Workload::Uniform(lattice)).value().path;
    std::shared_ptr<const Linearization> lin =
        MakePathOrder(warehouse.schema, path, /*snaked=*/true).value();
    return TpcdSnakedLayout{std::move(warehouse), std::move(path),
                            std::move(lin)};
  }();
  return layout;
}

}  // namespace snakes

#endif  // SNAKES_TESTS_TPCD_SNAKED_LAYOUT_H_
