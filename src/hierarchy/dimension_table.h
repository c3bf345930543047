#ifndef SNAKES_HIERARCHY_DIMENSION_TABLE_H_
#define SNAKES_HIERARCHY_DIMENSION_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "util/result.h"

namespace snakes {

/// A dimension table: the labels of every hierarchy member, level by level —
/// the paper's `location(state, city, lid)` and `jeans(type, gender, jid)`
/// relations. Grid queries select members by label ("state = NY"); this
/// class resolves labels to the (level, block) positions the grid machinery
/// works with.
class DimensionTable {
 public:
  /// Builds from a hierarchy plus labels for every level:
  /// labels_per_level[l][b] names block b of level l, for l = 0..num_levels
  /// (level num_levels has the single label of the "all" member). Labels
  /// must be unique within a level.
  static Result<DimensionTable> Make(
      Hierarchy hierarchy, std::vector<std::vector<std::string>> labels);

  /// Builds hierarchy and labels together from a member tree (leaves may be
  /// unbalanced; dummy nodes spliced per Section 4.1 inherit the label of
  /// the member they stand for). The root's label names the top level.
  static Result<DimensionTable> FromTree(std::string name,
                                         const HierarchyNode& root);

  const Hierarchy& hierarchy() const { return hierarchy_; }
  const std::string& name() const { return hierarchy_.name(); }

  /// The label of block `block` at `level`.
  const std::string& label(int level, uint64_t block) const;

  /// The block with label `label` at `level`, or NotFound. O(log members).
  Result<uint64_t> BlockOf(int level, std::string_view label) const;

  /// Searches every level for `label`; returns (level, block). Ambiguous
  /// labels resolve to the lowest level carrying them. O(log members).
  Result<std::pair<int, uint64_t>> Find(std::string_view label) const;

 private:
  /// One member: block `block` of level `level`.
  struct Member {
    int level = 0;
    uint64_t block = 0;
  };

  /// Takes the labels and builds index_.
  DimensionTable(Hierarchy hierarchy,
                 std::vector<std::vector<std::string>> labels);

  std::string_view LabelOf(const Member& m) const {
    return labels_[static_cast<size_t>(m.level)][m.block];
  }

  Hierarchy hierarchy_;
  // labels_[l][b] — label of block b at level l.
  std::vector<std::vector<std::string>> labels_;
  // Every member, sorted by (label, level, block). Entries name positions
  // in labels_, never point into it, so copies and moves stay valid.
  std::vector<Member> index_;
};

}  // namespace snakes

#endif  // SNAKES_HIERARCHY_DIMENSION_TABLE_H_
