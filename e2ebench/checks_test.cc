// Each answer check passes a right answer and fails a wrong one: a dropped
// row, a miscounted group, out-of-order scores, a degraded health flag.

#include <gtest/gtest.h>

#include "checks.h"
#include "corpus.h"

namespace e2ebench {
namespace {

GenDoc Order() {
  GenDoc doc;
  doc.kind = "order_csv";
  doc.fields = {{"order_no", FieldType::kInt, "9001", 9001},
                {"customer_id", FieldType::kInt, "123", 123},
                {"product", FieldType::kString, "GizmoMax", 0},
                {"total", FieldType::kDouble, "12.30", 12.3},
                {"date", FieldType::kDate, "2005-01-02", 1104624000e6}};
  return doc;
}

GetAnswer GetOf(const GenDoc& doc) {
  GetAnswer answer;
  for (const Field& field : doc.fields) {
    Cell cell;
    cell.is_number = field.type != FieldType::kString;
    cell.number = field.number;
    if (!cell.is_number) cell.text = field.text;
    answer[field.name] = cell;
  }
  return answer;
}

std::map<std::string, GroupTotals> Groups() {
  return {{"GizmoMax", {3, 30.5}}, {"WidgetPro", {2, 99.25}}};
}

SqlAnswer AggAnswer() {
  SqlAnswer answer;
  answer.rows = {{"GizmoMax", "3", "30.5"}, {"WidgetPro", "2", "99.25"}};
  return answer;
}

FacetAnswer FacetOf() {
  FacetAnswer answer;
  answer.counts = {{"GizmoMax", 3}, {"WidgetPro", 2}};
  answer.total_matches = 5;
  answer.has_sum = true;
  answer.sum = 129.75;
  return answer;
}

TEST(CorpusTest, SameSeedSameCorpusAndDatesMatchTheAppliance) {
  const Corpus a = GenerateCorpus(7, 1);
  const Corpus b = GenerateCorpus(7, 1);
  const Corpus c = GenerateCorpus(8, 1);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].content, b.items[i].content);
  }
  EXPECT_NE(a.items[1].content, c.items[1].content);
  EXPECT_EQ(a.docs.size(), 540u);
  for (const auto& [token, docs] : a.planted) {
    EXPECT_GE(docs.size(), 1u);
    EXPECT_LE(docs.size(), 24u);
    for (size_t index : docs) {
      bool carried = false;
      for (const Field& field : a.docs[index].fields) {
        carried = carried || field.text.find(token) != std::string::npos;
      }
      EXPECT_TRUE(carried) << token;
    }
  }
  EXPECT_EQ(DateMicros(1970, 1, 1), 0);
  EXPECT_EQ(DateMicros(2005, 1, 2), 1104624000LL * 1000000);
}

TEST(ChecksTest, HealthFlagsFail) {
  EXPECT_EQ(CheckHealth({false, 0}), "");
  EXPECT_NE(CheckHealth({true, 0}), "");
  EXPECT_NE(CheckHealth({false, 2}), "");
  SqlAnswer degraded = AggAnswer();
  degraded.health.degraded = true;
  EXPECT_NE(CheckAggSql(Groups(), degraded, 1e-9), "");
}

TEST(ChecksTest, GetComparesEveryGeneratedField) {
  const GenDoc doc = Order();
  EXPECT_EQ(CheckGet(doc, GetOf(doc), 1e-9), "");
  GetAnswer missing = GetOf(doc);
  missing.erase("product");
  EXPECT_NE(CheckGet(doc, missing, 1e-9), "");
  GetAnswer wrong_text = GetOf(doc);
  wrong_text["product"].text = "CloudBox";
  EXPECT_NE(CheckGet(doc, wrong_text, 1e-9), "");
  GetAnswer wrong_number = GetOf(doc);
  wrong_number["total"].number = 12.31;
  EXPECT_NE(CheckGet(doc, wrong_number, 1e-5), "");
}

TEST(ChecksTest, PointSqlWantsExactlyTheOneRow) {
  const GenDoc doc = Order();
  SqlAnswer right;
  right.rows = {{"9001", "123", "GizmoMax", "12.3"}};
  EXPECT_EQ(CheckPointSql(doc, right, 1e-9), "");
  SqlAnswer dropped;
  EXPECT_NE(CheckPointSql(doc, dropped, 1e-9), "");
  SqlAnswer doubled = right;
  doubled.rows.push_back(right.rows[0]);
  EXPECT_NE(CheckPointSql(doc, doubled, 1e-9), "");
  SqlAnswer wrong = right;
  wrong.rows[0][3] = "12.4";
  EXPECT_NE(CheckPointSql(doc, wrong, 1e-9), "");
}

TEST(ChecksTest, RangeSqlWantsTheModelsKeySet) {
  SqlAnswer right;
  right.rows = {{"9005"}, {"9001"}, {"9003"}};
  EXPECT_EQ(CheckRangeSql({9001, 9003, 9005}, right), "");
  SqlAnswer dropped = right;
  dropped.rows.pop_back();
  EXPECT_NE(CheckRangeSql({9001, 9003, 9005}, dropped), "");
  SqlAnswer swapped = right;
  swapped.rows[0] = {"9004"};
  EXPECT_NE(CheckRangeSql({9001, 9003, 9005}, swapped), "");
}

TEST(ChecksTest, AggSqlWantsExactCountsAndSums) {
  EXPECT_EQ(CheckAggSql(Groups(), AggAnswer(), 1e-9), "");
  SqlAnswer reordered = AggAnswer();
  std::swap(reordered.rows[0], reordered.rows[1]);
  reordered.rows[0][2] = "99.250000000001";  // morsel-order rounding
  EXPECT_EQ(CheckAggSql(Groups(), reordered, 1e-9), "");
  SqlAnswer miscounted = AggAnswer();
  miscounted.rows[0][1] = "4";
  EXPECT_NE(CheckAggSql(Groups(), miscounted, 1e-9), "");
  SqlAnswer missing_group = AggAnswer();
  missing_group.rows.pop_back();
  EXPECT_NE(CheckAggSql(Groups(), missing_group, 1e-9), "");
  SqlAnswer wrong_sum = AggAnswer();
  wrong_sum.rows[1][2] = "99.35";
  EXPECT_NE(CheckAggSql(Groups(), wrong_sum, 1e-5), "");
  SqlAnswer duplicate = AggAnswer();
  duplicate.rows[1] = duplicate.rows[0];
  EXPECT_NE(CheckAggSql(Groups(), duplicate, 1e-9), "");
}

TEST(ChecksTest, FacetCountsAreConserved) {
  EXPECT_EQ(CheckFacet(Groups(), FacetOf(), 1e-9), "");
  FacetAnswer miscounted = FacetOf();
  miscounted.counts["GizmoMax"] = 2;
  EXPECT_NE(CheckFacet(Groups(), miscounted, 1e-9), "");
  FacetAnswer extra_value = FacetOf();
  extra_value.counts["CloudBox"] = 1;
  EXPECT_NE(CheckFacet(Groups(), extra_value, 1e-9), "");
  FacetAnswer wrong_total = FacetOf();
  wrong_total.total_matches = 6;
  EXPECT_NE(CheckFacet(Groups(), wrong_total, 1e-9), "");
  FacetAnswer wrong_sum = FacetOf();
  wrong_sum.sum = 130.0;
  EXPECT_NE(CheckFacet(Groups(), wrong_sum, 1e-9), "");
  FacetAnswer degraded = FacetOf();
  degraded.health.missing_partitions = 1;
  EXPECT_NE(CheckFacet(Groups(), degraded, 1e-9), "");
}

TEST(ChecksTest, KeywordWantsTopKOfThePlantedSetInScoreOrder) {
  SearchAnswer right;
  right.hits = {{11, 3.0}, {12, 2.5}, {13, 2.5}};
  EXPECT_EQ(CheckKeyword({13, 12, 11}, 10, right), "");
  EXPECT_NE(CheckKeyword({13, 12, 11, 14}, 10, right), "");  // a hit dropped
  EXPECT_EQ(CheckKeyword({13, 12, 11, 14}, 3, right), "");
  SearchAnswer unordered = right;
  unordered.hits[2].second = 2.6;
  EXPECT_NE(CheckKeyword({13, 12, 11}, 10, unordered), "");
  SearchAnswer stranger = right;
  stranger.hits[1].first = 99;
  EXPECT_NE(CheckKeyword({13, 12, 11}, 10, stranger), "");
  SearchAnswer repeated = right;
  repeated.hits[2].first = 12;
  EXPECT_NE(CheckKeyword({13, 12, 11}, 10, repeated), "");
  SearchAnswer degraded = right;
  degraded.health.degraded = true;
  EXPECT_NE(CheckKeyword({13, 12, 11}, 10, degraded), "");
}

}  // namespace
}  // namespace e2ebench
