#include "core/query_parser.h"

#include <string>
#include <string_view>
#include <vector>

namespace snakes {

namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// Splits into clauses on unquoted whitespace; double quotes may wrap any
// part of a clause and are stripped. Single quotes are ordinary characters —
// member labels like "levi's" contain them. A clause without quotes is a
// view into `text`. A quoted one is unquoted into `*unquoted`, reserved to
// text's size up front so it never reallocates under earlier views.
Result<std::vector<std::string_view>> Tokenize(std::string_view text,
                                               std::string* unquoted) {
  std::vector<std::string_view> tokens;
  if (text.find('"') != std::string_view::npos) unquoted->reserve(text.size());
  size_t i = 0;
  for (;;) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    if (i == text.size()) break;
    const size_t start = i;
    bool in_quote = false;
    bool has_quote = false;
    for (; i < text.size(); ++i) {
      if (text[i] == '"') {
        in_quote = !in_quote;
        has_quote = true;
      } else if (!in_quote && IsSpace(text[i])) {
        break;
      }
    }
    if (in_quote) {
      return Status::InvalidArgument("unterminated quote in query");
    }
    std::string_view clause = text.substr(start, i - start);
    if (has_quote) {
      const size_t from = unquoted->size();
      for (const char c : clause) {
        if (c != '"') unquoted->push_back(c);
      }
      clause = std::string_view(*unquoted).substr(from);
    }
    // A clause that was only quotes ("") names nothing.
    if (!clause.empty()) tokens.push_back(clause);
  }
  return tokens;
}

}  // namespace

Result<GridQuery> ParseGridQuery(const StarSchema& schema,
                                 const std::vector<DimensionTable>& tables,
                                 std::string_view text) {
  if (static_cast<int>(tables.size()) != schema.num_dims()) {
    return Status::InvalidArgument(
        "need one dimension table per schema dimension");
  }
  for (int d = 0; d < schema.num_dims(); ++d) {
    const DimensionTable& table = tables[static_cast<size_t>(d)];
    if (table.name() != schema.dim(d).name() ||
        table.hierarchy().num_leaves() != schema.dim(d).num_leaves()) {
      return Status::InvalidArgument("dimension table '" + table.name() +
                                     "' does not match schema dimension '" +
                                     schema.dim(d).name() + "'");
    }
  }

  GridQuery query;
  query.cls = QueryClass(schema.num_dims());
  query.block.resize(static_cast<size_t>(schema.num_dims()));
  std::vector<bool> selected(static_cast<size_t>(schema.num_dims()), false);
  // Default: the "all" member of every dimension.
  for (int d = 0; d < schema.num_dims(); ++d) {
    query.cls.set_level(d, schema.dim(d).num_levels());
    query.block[static_cast<size_t>(d)] = 0;
  }

  std::string unquoted;
  SNAKES_ASSIGN_OR_RETURN(std::vector<std::string_view> clauses,
                          Tokenize(text, &unquoted));
  for (const std::string_view clause : clauses) {
    const size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= clause.size()) {
      return Status::InvalidArgument("clause '" + std::string(clause) +
                                     "' is not dimension=label");
    }
    std::string_view target = clause.substr(0, eq);
    const std::string_view label = clause.substr(eq + 1);

    std::string_view level_name;
    if (const size_t dot = target.find('.'); dot != std::string_view::npos) {
      level_name = target.substr(dot + 1);
      target = target.substr(0, dot);
    }

    int dim = -1;
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (schema.dim(d).name() == target) {
        dim = d;
        break;
      }
    }
    if (dim < 0) {
      return Status::NotFound("no dimension named '" + std::string(target) +
                              "'");
    }
    if (selected[static_cast<size_t>(dim)]) {
      return Status::InvalidArgument("dimension '" + std::string(target) +
                                     "' selected twice");
    }
    const DimensionTable& table = tables[static_cast<size_t>(dim)];

    int level = -1;
    uint64_t block = 0;
    if (!level_name.empty()) {
      for (int l = 0; l <= table.hierarchy().num_levels(); ++l) {
        if (table.hierarchy().level_name(l) == level_name) {
          level = l;
          break;
        }
      }
      if (level < 0) {
        return Status::NotFound("dimension '" + std::string(target) +
                                "' has no level '" + std::string(level_name) +
                                "'");
      }
      SNAKES_ASSIGN_OR_RETURN(block, table.BlockOf(level, label));
    } else {
      SNAKES_ASSIGN_OR_RETURN(auto found, table.Find(label));
      level = found.first;
      block = found.second;
    }
    query.cls.set_level(dim, level);
    query.block[static_cast<size_t>(dim)] = block;
    selected[static_cast<size_t>(dim)] = true;
  }
  return query;
}

}  // namespace snakes
