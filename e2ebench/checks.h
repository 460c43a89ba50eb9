#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Answers as the benchmark sees them, from either surface (in-process or
// wire), and the checks that compare them with the benchmark's own record
// of what it generated. Every check returns an empty string on success and
// a one-line description of the first mismatch otherwise.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"

namespace e2ebench {

struct Health {
  bool degraded = false;
  uint64_t missing_partitions = 0;
};

// One leaf of a fetched document. Numbers (ints, doubles, timestamps in
// microseconds) carry `number`; strings carry `text`.
struct Cell {
  bool is_number = false;
  double number = 0.0;
  std::string text;
};
using GetAnswer = std::map<std::string, Cell>;  // leaf name -> value

struct SqlAnswer {
  std::vector<std::vector<std::string>> rows;  // rendered cells
  Health health;
};

struct SearchAnswer {
  std::vector<std::pair<uint64_t, double>> hits;  // (doc id, score)
  Health health;
};

struct FacetAnswer {
  std::map<std::string, uint64_t> counts;  // facet value -> documents
  uint64_t total_matches = 0;
  bool has_sum = false;  // the wire protocol carries no aggregates
  double sum = 0.0;
  Health health;
};

// Per-group expectation for GROUP BY and facet checks.
struct GroupTotals {
  uint64_t count = 0;
  double sum = 0.0;
};

std::map<std::string, GroupTotals> ExpectedGroups(const Corpus& corpus,
                                                  const std::string& kind,
                                                  const std::string& group_field,
                                                  const std::string& sum_field);

std::string CheckHealth(const Health& health);
// `rel_tol` bounds relative error on numbers: exact surfaces use a tiny
// value, the wire (which renders doubles with %g) a looser one.
std::string CheckGet(const GenDoc& expected, const GetAnswer& got,
                     double rel_tol);
std::string CheckPointSql(const GenDoc& expected, const SqlAnswer& got,
                          double rel_tol);
std::string CheckRangeSql(const std::vector<int64_t>& expected,
                          const SqlAnswer& got);
std::string CheckAggSql(const std::map<std::string, GroupTotals>& expected,
                        const SqlAnswer& got, double rel_tol);
std::string CheckFacet(const std::map<std::string, GroupTotals>& expected,
                       const FacetAnswer& got, double rel_tol);
// `planted` holds the ids of every document carrying the query's token.
std::string CheckKeyword(const std::vector<uint64_t>& planted, size_t k,
                         const SearchAnswer& got);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
