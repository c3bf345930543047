#ifndef SNAKES_STORAGE_FACT_TABLE_H_
#define SNAKES_STORAGE_FACT_TABLE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "hierarchy/star_schema.h"
#include "util/logging.h"

namespace snakes {

/// The fact table of a star schema, reduced to what physical clustering
/// needs: for every grid cell, the number of records mapping to that cell
/// and the sum of their measure attribute (enough to answer COUNT/SUM grid
/// queries exactly). Cells may be empty — real warehouses are sparse
/// (Section 6.1: "Each cell ... was populated with zero or more records").
///
/// Measure sums are kept in int64 fixed-point cents: each record's measure
/// is rounded to the nearest cent (std::llround(measure * 100), halves away
/// from zero) as it is added, and every sum is exact integer arithmetic from
/// there on, so a SUM is the same bits whatever order its cells are added
/// in. TPC-D measures (quantity x a two-decimal price) are whole cents, so
/// for them the rounding is the identity. Min/max stay record-level doubles.
class FactTable {
 public:
  explicit FactTable(std::shared_ptr<const StarSchema> schema)
      : schema_(std::move(schema)),
        counts_(schema_->num_cells(), 0),
        measure_cents_(schema_->num_cells(), 0),
        measure_mins_(schema_->num_cells(), 0.0),
        measure_maxs_(schema_->num_cells(), 0.0) {}

  const StarSchema& schema() const { return *schema_; }
  std::shared_ptr<const StarSchema> schema_ptr() const { return schema_; }

  /// Adds one record in `coord`'s cell with the given measure value, rounded
  /// to cents. Checked: the measure must be finite, its cents must fit in
  /// int64, and so must the table's running sum of |cents| — which bounds
  /// every cell sum, every rank-order prefix sum and every query's SUM, so
  /// none of them can wrap.
  void AddRecord(const CellCoord& coord, double measure = 0.0) {
    const double scaled = measure * 100.0;
    // Finite and in range in one test: NaN compares false.
    SNAKES_CHECK(std::fabs(scaled) < 0x1p63)
        << "measure " << measure
        << (std::isfinite(measure) ? " overflows int64 cents"
                                   : " is not finite");
    // std::llround, inlined: truncation and the fractional part are both
    // exact for |scaled| < 2^63; halves round away from zero.
    int64_t cents = static_cast<int64_t>(scaled);
    const double frac = scaled - static_cast<double>(cents);
    cents += (frac >= 0.5) - (frac <= -0.5);
    SNAKES_CHECK(!__builtin_add_overflow(abs_cents_, cents < 0 ? -cents : cents,
                                         &abs_cents_))
        << "fact table measure sums overflow int64 cents";
    const CellId id = schema_->Flatten(coord);
    if (counts_[id] == 0) {
      measure_mins_[id] = measure;
      measure_maxs_[id] = measure;
    } else {
      if (measure < measure_mins_[id]) measure_mins_[id] = measure;
      if (measure > measure_maxs_[id]) measure_maxs_[id] = measure;
    }
    ++counts_[id];
    measure_cents_[id] += cents;
    ++total_records_;
  }

  /// Record count of a cell.
  uint32_t count(CellId id) const {
    SNAKES_DCHECK(id < counts_.size());
    return counts_[id];
  }

  /// Sum of the measure attribute over a cell's records, in exact cents.
  int64_t measure_cents(CellId id) const { return measure_cents_[id]; }

  /// The same sum in measure units (measure_cents(id) / 100).
  double measure_sum(CellId id) const {
    return static_cast<double>(measure_cents_[id]) / 100.0;
  }

  /// Record-level min/max of the measure attribute over a cell's records —
  /// exact (tracked per AddRecord), not derived from the sum. Meaningful
  /// only when count(id) > 0; empty cells report 0.
  double measure_min(CellId id) const { return measure_mins_[id]; }
  double measure_max(CellId id) const { return measure_maxs_[id]; }

  uint64_t total_records() const { return total_records_; }
  uint64_t num_cells() const { return counts_.size(); }

  /// Number of cells with at least one record.
  uint64_t NumOccupiedCells() const {
    uint64_t n = 0;
    for (uint32_t c : counts_) n += c > 0;
    return n;
  }

 private:
  std::shared_ptr<const StarSchema> schema_;
  std::vector<uint32_t> counts_;
  std::vector<int64_t> measure_cents_;
  std::vector<double> measure_mins_;
  std::vector<double> measure_maxs_;
  uint64_t total_records_ = 0;
  int64_t abs_cents_ = 0;  // sum of |record cents|; bounds every partial sum
};

}  // namespace snakes

#endif  // SNAKES_STORAGE_FACT_TABLE_H_
