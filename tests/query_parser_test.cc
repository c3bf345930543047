#include <gtest/gtest.h>

#include <vector>

#include "core/query_parser.h"
#include "hierarchy/star_schema.h"

namespace snakes {
namespace {

// The Figure-1 warehouse with its member labels.
class ParserTest : public ::testing::Test {
 protected:
  ParserTest() {
    auto location =
        Hierarchy::Uniform("location", {2, 2}, {"city", "state", "all"})
            .value();
    auto jeans =
        Hierarchy::Uniform("jeans", {2, 2}, {"style", "type", "all"}).value();
    schema_ = StarSchema::Make("sales", {location, jeans}).value();
    tables_.push_back(
        DimensionTable::Make(
            location,
            {{"toronto", "ottawa", "albany", "nyc"}, {"ONT", "NY"}, {"any"}})
            .value());
    tables_.push_back(
        DimensionTable::Make(jeans, {{"men's levi's", "women's levi's",
                                      "men's gitano", "women's gitano"},
                                     {"levi's", "gitano"},
                                     {"any jeans"}})
            .value());
  }

  Result<GridQuery> Parse(std::string_view text) {
    return ParseGridQuery(schema_.value(), tables_, text);
  }

  Result<StarSchema> schema_ = Status::Internal("unset");
  std::vector<DimensionTable> tables_;
};

TEST_F(ParserTest, PaperQ1) {
  // Q1: location.state = NY and jeans.type = levi's -> class (1,1).
  const GridQuery q = Parse("location=NY jeans=levi's").value();
  EXPECT_EQ(q.cls, (QueryClass{1, 1}));
  EXPECT_EQ(q.block[0], 1u);  // NY
  EXPECT_EQ(q.block[1], 0u);  // levi's
}

TEST_F(ParserTest, PaperQ2) {
  // Q2: location.state = ONT, no jeans selection -> class (1,2).
  const GridQuery q = Parse("location=ONT").value();
  EXPECT_EQ(q.cls, (QueryClass{1, 2}));
  EXPECT_EQ(q.block[0], 0u);
  EXPECT_EQ(q.block[1], 0u);
}

TEST_F(ParserTest, EmptySelectionIsWholeGrid) {
  const GridQuery q = Parse("").value();
  EXPECT_EQ(q.cls, (QueryClass{2, 2}));
}

TEST_F(ParserTest, ExplicitLevelName) {
  const GridQuery q = Parse("location.city=ottawa").value();
  EXPECT_EQ(q.cls, (QueryClass{0, 2}));
  EXPECT_EQ(q.block[0], 1u);
  EXPECT_FALSE(Parse("location.county=ottawa").ok());
}

TEST_F(ParserTest, DoubleQuotedLabels) {
  const GridQuery q = Parse("jeans=\"women's gitano\"").value();
  EXPECT_EQ(q.cls, (QueryClass{2, 0}));
  EXPECT_EQ(q.block[1], 3u);
}

TEST_F(ParserTest, QuotesMayWrapAnyPartOfAnyClause) {
  // Several quoted clauses in one text, each quoted differently, parse as
  // their unquoted forms; a clause that is only quotes names nothing.
  for (const std::string_view text :
       {"\"jeans\"=\"men's gitano\" location=\"albany\"",
        "jeans=\"men's \"gitano \"\" \"location=alb\"any",
        "\"jeans=men's gitano\"\t\"\"  location=albany \"\""}) {
    const GridQuery q = Parse(text).value();
    EXPECT_EQ(q.cls, (QueryClass{0, 0})) << text;
    EXPECT_EQ(q.block[0], 2u) << text;  // albany
    EXPECT_EQ(q.block[1], 2u) << text;  // men's gitano
  }
  // Error text names the clause as unquoted.
  const Status bad = Parse("\"jeans men's\"").status();
  EXPECT_EQ(bad.message(), "clause 'jeans men's' is not dimension=label");
  EXPECT_EQ(Parse("\"\"").value().cls, (QueryClass{2, 2}));
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(Parse("color=red").ok());
  EXPECT_FALSE(Parse("location=mars").ok());
  EXPECT_FALSE(Parse("location=NY location=ONT").ok());
  EXPECT_FALSE(Parse("location").ok());
  EXPECT_FALSE(Parse("=NY").ok());
  EXPECT_FALSE(Parse("jeans=\"unterminated").ok());
}

TEST_F(ParserTest, TableValidation) {
  // Mismatched table order / count is rejected.
  std::vector<DimensionTable> reversed{tables_[1], tables_[0]};
  EXPECT_FALSE(
      ParseGridQuery(schema_.value(), reversed, "location=NY").ok());
  std::vector<DimensionTable> one{tables_[0]};
  EXPECT_FALSE(ParseGridQuery(schema_.value(), one, "location=NY").ok());
}

}  // namespace
}  // namespace snakes
