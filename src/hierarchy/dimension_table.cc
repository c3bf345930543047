#include "hierarchy/dimension_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace snakes {

DimensionTable::DimensionTable(Hierarchy hierarchy,
                               std::vector<std::vector<std::string>> labels)
    : hierarchy_(std::move(hierarchy)), labels_(std::move(labels)) {
  for (size_t l = 0; l < labels_.size(); ++l) {
    for (uint64_t b = 0; b < labels_[l].size(); ++b) {
      index_.push_back(Member{static_cast<int>(l), b});
    }
  }
  std::sort(index_.begin(), index_.end(),
            [this](const Member& x, const Member& y) {
              const int c = LabelOf(x).compare(LabelOf(y));
              if (c != 0) return c < 0;
              return x.level != y.level ? x.level < y.level
                                        : x.block < y.block;
            });
}

Result<DimensionTable> DimensionTable::Make(
    Hierarchy hierarchy, std::vector<std::vector<std::string>> labels) {
  if (static_cast<int>(labels.size()) != hierarchy.num_levels() + 1) {
    return Status::InvalidArgument(
        "need one label vector per level (0.." +
        std::to_string(hierarchy.num_levels()) + ") in dimension " +
        hierarchy.name());
  }
  for (int l = 0; l <= hierarchy.num_levels(); ++l) {
    const auto& level_labels = labels[static_cast<size_t>(l)];
    if (level_labels.size() != hierarchy.num_blocks(l)) {
      return Status::InvalidArgument(
          "level " + std::to_string(l) + " of dimension " + hierarchy.name() +
          " has " + std::to_string(hierarchy.num_blocks(l)) +
          " members but " + std::to_string(level_labels.size()) + " labels");
    }
  }
  DimensionTable table(std::move(hierarchy), std::move(labels));
  // A member equal to its predecessor in the index repeats a label within
  // its level. Report the first repeat in (level, block) order.
  const Member* repeat = nullptr;
  for (size_t i = 1; i < table.index_.size(); ++i) {
    const Member& prev = table.index_[i - 1];
    const Member& m = table.index_[i];
    if (m.level != prev.level || table.LabelOf(m) != table.LabelOf(prev)) {
      continue;
    }
    if (repeat == nullptr || m.level < repeat->level ||
        (m.level == repeat->level && m.block < repeat->block)) {
      repeat = &m;
    }
  }
  if (repeat != nullptr) {
    return Status::InvalidArgument(
        "duplicate label '" + std::string(table.LabelOf(*repeat)) +
        "' at level " + std::to_string(repeat->level) + " of dimension " +
        table.name());
  }
  return table;
}

namespace {

int TreeDepth(const HierarchyNode& node) {
  int depth = 0;
  for (const auto& child : node.children) {
    depth = std::max(depth, 1 + TreeDepth(child));
  }
  return depth;
}

// Mirrors hierarchy.cc's CollectCounts, but also records labels. A leaf
// lifted through dummy levels contributes its own label at every spliced
// level.
void Collect(const HierarchyNode& node, int height,
             std::vector<std::vector<uint64_t>>* counts,
             std::vector<std::vector<std::string>>* labels) {
  if (node.children.empty()) {
    // Dummy chain nodes occupy levels height..1; the leaf itself sits at
    // level 0. All of them carry the member's own label.
    for (int h = height; h >= 1; --h) {
      (*counts)[static_cast<size_t>(h - 1)].push_back(1);
      (*labels)[static_cast<size_t>(h)].push_back(node.label);
    }
    (*labels)[0].push_back(node.label);
    return;
  }
  (*labels)[static_cast<size_t>(height)].push_back(node.label);
  (*counts)[static_cast<size_t>(height - 1)].push_back(
      static_cast<uint64_t>(node.children.size()));
  for (const auto& child : node.children) {
    Collect(child, height - 1, counts, labels);
  }
}

}  // namespace

Result<DimensionTable> DimensionTable::FromTree(std::string name,
                                                const HierarchyNode& root) {
  const int depth = TreeDepth(root);
  if (depth == 0) {
    SNAKES_ASSIGN_OR_RETURN(Hierarchy h, Hierarchy::Uniform(name, {}));
    return Make(std::move(h), {{root.label}});
  }
  std::vector<std::vector<uint64_t>> counts(static_cast<size_t>(depth));
  // labels[l] for levels 0..depth; Collect writes level-l labels into
  // labels[l] except leaves, which it appends to labels[0].
  std::vector<std::vector<std::string>> labels(static_cast<size_t>(depth) + 1);
  Collect(root, depth, &counts, &labels);
  SNAKES_ASSIGN_OR_RETURN(Hierarchy h,
                          Hierarchy::Explicit(name, std::move(counts)));
  return Make(std::move(h), std::move(labels));
}

const std::string& DimensionTable::label(int level, uint64_t block) const {
  SNAKES_CHECK(level >= 0 && level <= hierarchy_.num_levels());
  SNAKES_CHECK(block < hierarchy_.num_blocks(level));
  return labels_[static_cast<size_t>(level)][block];
}

Result<uint64_t> DimensionTable::BlockOf(int level,
                                         std::string_view label) const {
  if (level < 0 || level > hierarchy_.num_levels()) {
    return Status::OutOfRange("level " + std::to_string(level) +
                              " out of range in dimension " + name());
  }
  // First member at or after (label, level).
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), label,
      [this, level](const Member& m, std::string_view key) {
        const int c = LabelOf(m).compare(key);
        return c != 0 ? c < 0 : m.level < level;
      });
  if (it != index_.end() && it->level == level && LabelOf(*it) == label) {
    return it->block;
  }
  return Status::NotFound("no member '" + std::string(label) +
                          "' at level " + std::to_string(level) +
                          " of dimension " + name());
}

Result<std::pair<int, uint64_t>> DimensionTable::Find(
    std::string_view label) const {
  // The index orders a label's members by level, so the first is the
  // lowest.
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), label,
      [this](const Member& m, std::string_view key) {
        return LabelOf(m) < key;
      });
  if (it != index_.end() && LabelOf(*it) == label) {
    return std::make_pair(it->level, it->block);
  }
  return Status::NotFound("no member '" + std::string(label) +
                          "' in dimension " + name());
}

}  // namespace snakes
