#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hierarchy/dimension_table.h"
#include "util/rng.h"

namespace snakes {
namespace {

// The paper's jeans dimension: style(0) -> type(1) -> all(2).
DimensionTable Jeans() {
  auto h =
      Hierarchy::Uniform("jeans", {2, 2}, {"style", "type", "all"}).value();
  return DimensionTable::Make(
             h, {{"men's levi's", "women's levi's", "men's gitano",
                  "women's gitano"},
                 {"levi's", "gitano"},
                 {"any jeans"}})
      .value();
}

TEST(DimensionTableTest, LabelsRoundTrip) {
  const DimensionTable jeans = Jeans();
  EXPECT_EQ(jeans.label(1, 0), "levi's");
  EXPECT_EQ(jeans.label(0, 3), "women's gitano");
  EXPECT_EQ(jeans.label(2, 0), "any jeans");
  EXPECT_EQ(jeans.BlockOf(1, "gitano").value(), 1u);
  EXPECT_EQ(jeans.BlockOf(0, "men's gitano").value(), 2u);
  EXPECT_FALSE(jeans.BlockOf(1, "wrangler").ok());
  EXPECT_FALSE(jeans.BlockOf(5, "levi's").ok());
}

TEST(DimensionTableTest, FindSearchesBottomUp) {
  const DimensionTable jeans = Jeans();
  const auto found = jeans.Find("levi's").value();
  EXPECT_EQ(found.first, 1);
  EXPECT_EQ(found.second, 0u);
  const auto leaf = jeans.Find("women's levi's").value();
  EXPECT_EQ(leaf.first, 0);
  EXPECT_EQ(leaf.second, 1u);
  EXPECT_FALSE(jeans.Find("nope").ok());
}

TEST(DimensionTableTest, MakeValidation) {
  auto h = Hierarchy::Uniform("d", {2}).value();
  // Wrong level count.
  EXPECT_FALSE(DimensionTable::Make(h, {{"a", "b"}}).ok());
  // Wrong member count.
  EXPECT_FALSE(DimensionTable::Make(h, {{"a"}, {"all"}}).ok());
  // Duplicate label within a level.
  EXPECT_FALSE(DimensionTable::Make(h, {{"a", "a"}, {"all"}}).ok());
  EXPECT_TRUE(DimensionTable::Make(h, {{"a", "b"}, {"all"}}).ok());
}

TEST(DimensionTableTest, FromTreeBalanced) {
  HierarchyNode root{"any location",
                     {{"ON", {{"toronto", {}}, {"ottawa", {}}}},
                      {"NY", {{"albany", {}}, {"nyc", {}}}}}};
  const DimensionTable geo = DimensionTable::FromTree("location", root).value();
  EXPECT_EQ(geo.hierarchy().num_levels(), 2);
  EXPECT_EQ(geo.label(1, 0), "ON");
  EXPECT_EQ(geo.label(0, 3), "nyc");
  EXPECT_EQ(geo.label(2, 0), "any location");
  EXPECT_EQ(geo.BlockOf(1, "NY").value(), 1u);
}

TEST(DimensionTableTest, FromTreeUnbalancedInheritsLabels) {
  // Section 4.1: monaco has no state level; its dummy node reuses the
  // member's label, so label lookups behave as if the level existed.
  HierarchyNode root{"world",
                     {{"us", {{"ny", {{"nyc", {}}, {"albany", {}}}}}},
                      {"monaco", {}}}};
  const DimensionTable geo = DimensionTable::FromTree("geo", root).value();
  EXPECT_EQ(geo.hierarchy().num_levels(), 3);
  EXPECT_EQ(geo.hierarchy().num_leaves(), 3u);
  // The lifted leaf carries its own label at every spliced level.
  const auto monaco = geo.Find("monaco").value();
  EXPECT_EQ(monaco.first, 0);  // found at the leaf level first
  EXPECT_EQ(monaco.second, 2u);
  EXPECT_EQ(geo.BlockOf(1, "monaco").value(), 1u);
  EXPECT_EQ(geo.BlockOf(2, "monaco").value(), 1u);
  EXPECT_EQ(geo.BlockOf(2, "us").value(), 0u);
  EXPECT_EQ(geo.BlockOf(0, "nyc").value(), 0u);
}

TEST(DimensionTableTest, FromTreeSingleLeaf) {
  HierarchyNode root{"only", {}};
  const DimensionTable t = DimensionTable::FromTree("unit", root).value();
  EXPECT_EQ(t.hierarchy().num_levels(), 0);
  EXPECT_EQ(t.label(0, 0), "only");
}

// ---------------------------------------------------------------------------
// The sorted label index against linear-scan oracles.

/// Random unbalanced member tree, depth <= 3, labels drawn from a small pool
/// so labels repeat across levels (and sometimes within one, which Make
/// must reject). Leaves above the deepest level are lifted through dummy
/// levels that repeat their label.
HierarchyNode RandomTree(Rng* rng, int depth) {
  HierarchyNode node{"m" + std::to_string(rng->Below(48)), {}};
  if (depth == 0) return node;
  const uint64_t children = depth == 3 ? 2 + rng->Below(3) : rng->Below(4);
  for (uint64_t c = 0; c < children; ++c) {
    node.children.push_back(RandomTree(rng, depth - 1));
  }
  return node;
}

/// Find by linear scan: the lowest level, then the lowest block.
std::optional<std::pair<int, uint64_t>> ScanFind(const DimensionTable& t,
                                                 const std::string& label) {
  for (int l = 0; l <= t.hierarchy().num_levels(); ++l) {
    for (uint64_t b = 0; b < t.hierarchy().num_blocks(l); ++b) {
      if (t.label(l, b) == label) return std::make_pair(l, b);
    }
  }
  return std::nullopt;
}

/// Every lookup on `t` for `label` against the scan oracle, misses included
/// (with their error text).
void ExpectLookupsMatchScan(const DimensionTable& t, const std::string& label) {
  const auto want = ScanFind(t, label);
  const auto got = t.Find(label);
  ASSERT_EQ(got.ok(), want.has_value()) << label;
  if (want.has_value()) {
    EXPECT_EQ(got.value(), *want) << label;
  } else {
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(got.status().message(),
              "no member '" + label + "' in dimension " + t.name());
  }
  for (int l = 0; l <= t.hierarchy().num_levels(); ++l) {
    std::optional<uint64_t> want_block;
    for (uint64_t b = 0; b < t.hierarchy().num_blocks(l); ++b) {
      if (t.label(l, b) == label) want_block = b;
    }
    const auto block = t.BlockOf(l, label);
    ASSERT_EQ(block.ok(), want_block.has_value()) << label << " level " << l;
    if (want_block.has_value()) {
      EXPECT_EQ(block.value(), *want_block) << label << " level " << l;
    } else {
      EXPECT_EQ(block.status().message(),
                "no member '" + label + "' at level " + std::to_string(l) +
                    " of dimension " + t.name());
    }
  }
}

/// Every label of `t`, plus misses that sort before, between and after the
/// real labels.
std::vector<std::string> ProbeLabels(const DimensionTable& t) {
  std::vector<std::string> probes = {"", "a", "m", "m0x", "zz", "m99"};
  for (int l = 0; l <= t.hierarchy().num_levels(); ++l) {
    for (uint64_t b = 0; b < t.hierarchy().num_blocks(l); ++b) {
      probes.push_back(t.label(l, b));
      probes.push_back(t.label(l, b) + "x");
    }
  }
  return probes;
}

/// The first label that repeats within a level, scanning levels bottom-up
/// and blocks in order — the error Make reports.
std::optional<std::pair<int, std::string>> FirstRepeat(
    const std::vector<std::vector<std::string>>& labels) {
  for (size_t l = 0; l < labels.size(); ++l) {
    std::set<std::string> seen;
    for (const std::string& label : labels[l]) {
      if (!seen.insert(label).second) {
        return std::make_pair(static_cast<int>(l), label);
      }
    }
  }
  return std::nullopt;
}

/// A table's labels, level by level.
std::vector<std::vector<std::string>> LabelsOf(const DimensionTable& t) {
  std::vector<std::vector<std::string>> labels;
  for (int l = 0; l <= t.hierarchy().num_levels(); ++l) {
    labels.emplace_back();
    for (uint64_t b = 0; b < t.hierarchy().num_blocks(l); ++b) {
      labels.back().push_back(t.label(l, b));
    }
  }
  return labels;
}

TEST(DimensionTableIndexTest, LookupsMatchALinearScanOnRandomTrees) {
  Rng rng(0x1ABE1);
  int built = 0, rejected = 0, cross_level = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const HierarchyNode root = RandomTree(&rng, 3);
    const auto table = DimensionTable::FromTree("d", root);
    if (!table.ok()) {
      // The only way a tree fails: a label repeated within one level.
      EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(table.status().message().rfind("duplicate label '", 0), 0u)
          << table.status().message();
      ++rejected;
      continue;
    }
    ++built;
    const DimensionTable& t = table.value();
    for (const std::string& label : ProbeLabels(t)) {
      ExpectLookupsMatchScan(t, label);
      const auto found = ScanFind(t, label);
      if (found.has_value() && found->first < t.hierarchy().num_levels() &&
          t.BlockOf(found->first + 1, label).ok()) {
        ++cross_level;  // Find had a higher level to pass over
      }
    }
  }
  EXPECT_GE(built, 100);
  EXPECT_GE(rejected, 10);
  EXPECT_GE(cross_level, 100);
}

TEST(DimensionTableIndexTest, DuplicateLabelErrorNamesTheFirstRepeat) {
  Rng rng(0xD0B1E);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Two-level tables with labels from a tiny pool: most repeat somewhere.
    const uint64_t groups = 1 + rng.Below(3);
    std::vector<uint64_t> fanouts;
    for (uint64_t g = 0; g < groups; ++g) fanouts.push_back(1 + rng.Below(4));
    Hierarchy h = Hierarchy::Explicit("d", {fanouts, {groups}}).value();
    std::vector<std::vector<std::string>> labels(3);
    for (int l = 0; l <= 2; ++l) {
      for (uint64_t b = 0; b < h.num_blocks(l); ++b) {
        labels[static_cast<size_t>(l)].push_back(
            std::string(1, static_cast<char>('a' + rng.Below(5))));
      }
    }
    const auto repeat = FirstRepeat(labels);
    const auto table = DimensionTable::Make(h, labels);
    ASSERT_EQ(table.ok(), !repeat.has_value());
    if (!repeat.has_value()) continue;
    ++checked;
    EXPECT_EQ(table.status().message(),
              "duplicate label '" + repeat->second + "' at level " +
                  std::to_string(repeat->first) + " of dimension d");
  }
  EXPECT_GE(checked, 100);
}

TEST(DimensionTableIndexTest, CopiesAndReassignedTablesKeepTheirOwnIndex) {
  Rng rng(0xC0B1);
  std::vector<DimensionTable> tables;
  while (tables.size() < 2) {
    auto table = DimensionTable::FromTree("d", RandomTree(&rng, 3));
    if (table.ok()) tables.push_back(std::move(table).value());
  }
  const std::vector<std::vector<std::string>> first = LabelsOf(tables[0]);

  // A copy outlives its source.
  std::optional<DimensionTable> source = tables[0];
  const DimensionTable copy = *source;
  source.reset();
  EXPECT_EQ(LabelsOf(copy), first);
  for (const std::string& label : ProbeLabels(copy)) {
    ExpectLookupsMatchScan(copy, label);
  }

  // Move out, then reassign the moved-from table from another one.
  DimensionTable moved = std::move(tables[0]);
  tables[0] = tables[1];
  EXPECT_EQ(LabelsOf(moved), first);
  for (const std::string& label : ProbeLabels(moved)) {
    ExpectLookupsMatchScan(moved, label);
  }
  EXPECT_EQ(LabelsOf(tables[0]), LabelsOf(tables[1]));
  for (const std::string& label : ProbeLabels(tables[0])) {
    ExpectLookupsMatchScan(tables[0], label);
  }
}

}  // namespace
}  // namespace snakes
