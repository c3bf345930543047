#ifndef SNAKES_CURVES_LINEARIZATION_H_
#define SNAKES_CURVES_LINEARIZATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "curves/rank_run.h"
#include "curves/run_arena.h"
#include "hierarchy/star_schema.h"
#include "lattice/grid_query.h"
#include "util/result.h"

namespace snakes {

/// A clustering strategy: a bijection between grid cells and disk ranks
/// 0..num_cells()-1. Cells are laid out on disk in rank order; every cost
/// model in the library consumes this interface.
class Linearization {
 public:
  /// `schema` describes the grid being linearized; shared, immutable.
  explicit Linearization(std::shared_ptr<const StarSchema> schema)
      : schema_(std::move(schema)) {}
  virtual ~Linearization() = default;

  Linearization(const Linearization&) = delete;
  Linearization& operator=(const Linearization&) = delete;

  const StarSchema& schema() const { return *schema_; }
  std::shared_ptr<const StarSchema> schema_ptr() const { return schema_; }
  uint64_t num_cells() const { return schema_->num_cells(); }

  /// Human-readable strategy name ("row-major(A,B)", "hilbert", ...).
  virtual std::string name() const = 0;

  /// The cell stored at disk position `rank`.
  virtual CellCoord CellAt(uint64_t rank) const = 0;

  /// The disk position of `coord` (inverse of CellAt).
  virtual uint64_t RankOf(const CellCoord& coord) const = 0;

  /// Visits every cell in rank order. The default loops over CellAt;
  /// generative strategies override this with a cheaper sweep.
  virtual void Walk(
      const std::function<void(uint64_t rank, const CellCoord& coord)>& fn)
      const;

  /// Appends the rank-run decomposition of `box`: the unique sorted,
  /// disjoint, coalesced run list covering exactly the ranks of the box's
  /// cells. Entries already in `runs` are left untouched. The default is
  /// correct for any bijection but enumerates every cell
  /// (O(cells log cells)); strategies with structure override it with a
  /// closed form or a box-pruned recursion and report so via
  /// HasRunDecomposition.
  virtual void AppendRuns(const CellBox& box, std::vector<RankRun>* runs)
      const;

  /// True when AppendRuns and AppendClassRuns cost roughly O(runs) rather
  /// than O(cells), so counting a few classes' runs beats one edge walk over
  /// every cell (the class-cost fill's choice). Default false.
  virtual bool HasRunDecomposition() const { return false; }

  /// Emits the run decomposition of *every* query box of class `cls` into
  /// `arena` (which is BeginClass-reset here). Query ids follow the dense
  /// QueryAt order (dimension 0 slowest); each query's runs equal what
  /// AppendRuns on its box alone would produce. Because the queries of a
  /// class tile the grid, structured strategies override this with a single
  /// unpruned subdivision pass over the whole curve — sibling boxes share
  /// every recursion prefix instead of re-descending per box. The default
  /// loops AppendRuns per query through the arena's scratch vector.
  virtual void AppendClassRuns(const QueryClass& cls, RunArena* arena) const;

  /// True when every run of every query of `cls` is provably a single cell
  /// (the class "degenerates": fragment count == num_cells()), so callers
  /// can use the closed-form edge model instead of materializing runs.
  /// Soundness contract: a true return is a guarantee; false is always
  /// allowed. The default detects the one case sound for any bijection —
  /// every query of the class selects exactly one cell.
  virtual bool ClassRunsDegenerate(const QueryClass& cls) const;

  /// The reference decomposition the default AppendRuns delegates to:
  /// RankOf on every cell of the box, sort, coalesce. Public so tests can
  /// cross-check closed-form overrides against it.
  void AppendRunsByRankScan(const CellBox& box, std::vector<RankRun>* runs)
      const;

  /// Verifies that CellAt is a bijection consistent with RankOf and that
  /// Walk visits the same sequence. O(num_cells) time and bitmap space.
  Status Validate() const;

 private:
  std::shared_ptr<const StarSchema> schema_;
};

/// A linearization materialized as an explicit permutation (flattened cell
/// ids in rank order). Accepts any generator; also the adapter that gives
/// non-closed-form strategies (snaked paths over non-uniform hierarchies) a
/// RankOf.
class MaterializedLinearization : public Linearization {
 public:
  /// Takes the cells in rank order (flattened ids). Fails unless `order` is a
  /// permutation of 0..num_cells-1.
  static Result<std::unique_ptr<MaterializedLinearization>> Make(
      std::shared_ptr<const StarSchema> schema, std::string name,
      std::vector<CellId> order);

  /// Copies another linearization into materialized form.
  static std::unique_ptr<MaterializedLinearization> From(
      const Linearization& other);

  std::string name() const override { return name_; }
  CellCoord CellAt(uint64_t rank) const override;
  uint64_t RankOf(const CellCoord& coord) const override;
  void Walk(const std::function<void(uint64_t, const CellCoord&)>& fn)
      const override;
  /// Gathers ranks row-wise from `inverse_` (cell ids along the innermost
  /// dimension are consecutive, so each row is one contiguous slice of the
  /// array), then sorts and coalesces. Same complexity as the default but
  /// with sequential array reads instead of virtual RankOf calls.
  void AppendRuns(const CellBox& box, std::vector<RankRun>* runs)
      const override;
  /// One pass over the ranks in order, appending each cell to the query of
  /// `cls` that holds it (the arena coalesces rank-adjacent cells): O(cells)
  /// per class, where the default's per-query gather-and-sort costs
  /// O(cells log cells).
  void AppendClassRuns(const QueryClass& cls, RunArena* arena) const override;

 private:
  MaterializedLinearization(std::shared_ptr<const StarSchema> schema,
                            std::string name, std::vector<CellId> order,
                            std::vector<uint64_t> inverse)
      : Linearization(std::move(schema)),
        name_(std::move(name)),
        order_(std::move(order)),
        inverse_(std::move(inverse)) {}

  std::string name_;
  std::vector<CellId> order_;     // rank -> cell id
  std::vector<uint64_t> inverse_; // cell id -> rank
};

}  // namespace snakes

#endif  // SNAKES_CURVES_LINEARIZATION_H_
