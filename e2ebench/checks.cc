#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

namespace e2ebench {

namespace {

bool Near(double expected, double got, double rel_tol) {
  return std::fabs(expected - got) <=
         rel_tol * std::max(1.0, std::fabs(expected));
}

bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::string Describe(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Compares one generated field with one rendered SQL cell.
std::string CheckCell(const Field& field, const std::string& cell,
                      double rel_tol) {
  if (field.type == FieldType::kString) {
    if (cell != field.text) {
      return field.name + ": expected '" + field.text + "', got '" + cell +
             "'";
    }
    return "";
  }
  double got = 0.0;
  if (!ParseNumber(cell, &got) || !Near(field.number, got, rel_tol)) {
    return field.name + ": expected " + Describe(field.number) + ", got '" +
           cell + "'";
  }
  return "";
}

}  // namespace

std::map<std::string, GroupTotals> ExpectedGroups(const Corpus& corpus,
                                                  const std::string& kind,
                                                  const std::string& group_field,
                                                  const std::string& sum_field) {
  std::map<std::string, GroupTotals> groups;
  for (const GenDoc& doc : corpus.docs) {
    if (doc.kind != kind) continue;
    GroupTotals& totals = groups[doc.Find(group_field)->text];
    ++totals.count;
    totals.sum += doc.Find(sum_field)->number;
  }
  return groups;
}

std::string CheckHealth(const Health& health) {
  if (health.degraded || health.missing_partitions != 0) {
    return "degraded answer (missing_partitions=" +
           std::to_string(health.missing_partitions) + ")";
  }
  return "";
}

std::string CheckGet(const GenDoc& expected, const GetAnswer& got,
                     double rel_tol) {
  for (const Field& field : expected.fields) {
    auto it = got.find(field.name);
    if (it == got.end()) return "get: field " + field.name + " missing";
    const Cell& cell = it->second;
    if (field.type == FieldType::kString) {
      if (cell.is_number || cell.text != field.text) {
        return "get: " + field.name + " expected '" + field.text + "', got '" +
               cell.text + "'";
      }
    } else if (!cell.is_number || !Near(field.number, cell.number, rel_tol)) {
      return "get: " + field.name + " expected " + Describe(field.number) +
             ", got " + (cell.is_number ? Describe(cell.number) : cell.text);
    }
  }
  return "";
}

std::string CheckPointSql(const GenDoc& expected, const SqlAnswer& got,
                          double rel_tol) {
  if (std::string error = CheckHealth(got.health); !error.empty()) {
    return "point_sql: " + error;
  }
  if (got.rows.size() != 1) {
    return "point_sql: expected 1 row, got " + std::to_string(got.rows.size());
  }
  static const char* const kColumns[] = {"order_no", "customer_id", "product",
                                         "total"};
  const std::vector<std::string>& row = got.rows[0];
  if (row.size() != 4) {
    return "point_sql: expected 4 columns, got " + std::to_string(row.size());
  }
  for (size_t i = 0; i < 4; ++i) {
    std::string error = CheckCell(*expected.Find(kColumns[i]), row[i], rel_tol);
    if (!error.empty()) return "point_sql: " + error;
  }
  return "";
}

std::string CheckRangeSql(const std::vector<int64_t>& expected,
                          const SqlAnswer& got) {
  if (std::string error = CheckHealth(got.health); !error.empty()) {
    return "range_sql: " + error;
  }
  std::vector<int64_t> keys;
  for (const std::vector<std::string>& row : got.rows) {
    double key = 0.0;
    if (row.size() != 1 || !ParseNumber(row[0], &key)) {
      return "range_sql: malformed row";
    }
    keys.push_back(static_cast<int64_t>(key));
  }
  std::sort(keys.begin(), keys.end());
  if (keys != expected) {
    return "range_sql: expected " + std::to_string(expected.size()) +
           " keys, got " + std::to_string(keys.size()) +
           (keys.size() == expected.size() ? " (different set)" : "");
  }
  return "";
}

std::string CheckAggSql(const std::map<std::string, GroupTotals>& expected,
                        const SqlAnswer& got, double rel_tol) {
  if (std::string error = CheckHealth(got.health); !error.empty()) {
    return "agg_sql: " + error;
  }
  if (got.rows.size() != expected.size()) {
    return "agg_sql: expected " + std::to_string(expected.size()) +
           " groups, got " + std::to_string(got.rows.size());
  }
  double expected_total = 0.0;
  double got_total = 0.0;
  std::set<std::string> seen;
  for (const std::vector<std::string>& row : got.rows) {
    double count = 0.0;
    double sum = 0.0;
    if (row.size() != 3 || !ParseNumber(row[1], &count) ||
        !ParseNumber(row[2], &sum)) {
      return "agg_sql: malformed row";
    }
    auto it = expected.find(row[0]);
    if (it == expected.end() || !seen.insert(row[0]).second) {
      return "agg_sql: unexpected group '" + row[0] + "'";
    }
    if (count != static_cast<double>(it->second.count)) {
      return "agg_sql: group " + row[0] + " count expected " +
             std::to_string(it->second.count) + ", got " + row[1];
    }
    if (!Near(it->second.sum, sum, rel_tol)) {
      return "agg_sql: group " + row[0] + " sum expected " +
             Describe(it->second.sum) + ", got " + row[2];
    }
    expected_total += it->second.sum;
    got_total += sum;
  }
  if (!Near(expected_total, got_total, rel_tol)) {
    return "agg_sql: group sums add to " + Describe(got_total) +
           ", expected total " + Describe(expected_total);
  }
  return "";
}

std::string CheckFacet(const std::map<std::string, GroupTotals>& expected,
                       const FacetAnswer& got, double rel_tol) {
  if (std::string error = CheckHealth(got.health); !error.empty()) {
    return "facet: " + error;
  }
  uint64_t expected_docs = 0;
  double expected_sum = 0.0;
  for (const auto& [value, totals] : expected) {
    expected_docs += totals.count;
    expected_sum += totals.sum;
    auto it = got.counts.find(value);
    const uint64_t count = it == got.counts.end() ? 0 : it->second;
    if (count != totals.count) {
      return "facet: value " + value + " count expected " +
             std::to_string(totals.count) + ", got " + std::to_string(count);
    }
  }
  uint64_t counted = 0;
  for (const auto& [value, count] : got.counts) counted += count;
  if (counted != expected_docs || got.total_matches != expected_docs) {
    return "facet: counts sum to " + std::to_string(counted) + " of " +
           std::to_string(got.total_matches) + " matches, expected " +
           std::to_string(expected_docs);
  }
  if (got.has_sum && !Near(expected_sum, got.sum, rel_tol)) {
    return "facet: sum expected " + Describe(expected_sum) + ", got " +
           Describe(got.sum);
  }
  return "";
}

std::string CheckKeyword(const std::vector<uint64_t>& planted, size_t k,
                         const SearchAnswer& got) {
  if (std::string error = CheckHealth(got.health); !error.empty()) {
    return "keyword: " + error;
  }
  const size_t want = std::min(planted.size(), k);
  if (got.hits.size() != want) {
    return "keyword: expected " + std::to_string(want) + " hits, got " +
           std::to_string(got.hits.size());
  }
  std::set<uint64_t> seen;
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const uint64_t doc = got.hits[i].first;
    if (std::find(planted.begin(), planted.end(), doc) == planted.end()) {
      return "keyword: doc " + std::to_string(doc) + " does not carry the term";
    }
    if (!seen.insert(doc).second) {
      return "keyword: doc " + std::to_string(doc) + " returned twice";
    }
    if (i > 0 && got.hits[i].second > got.hits[i - 1].second) {
      return "keyword: scores increase at rank " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace e2ebench
