#ifndef E2EBENCH_CORPUS_H_
#define E2EBENCH_CORPUS_H_

// The benchmark's own corpus generator and its record of every generated
// field. It mirrors workload::CorpusGenerator's make-up (customers, orders in
// CSV/XML/e-mail, call transcripts, claims, contract e-mails) but shares no
// code with the appliance, so the answers it expects are computed apart from
// the program under test.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

// SplitMix64: small, fully specified, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

enum class FieldType { kInt, kDouble, kString, kDate };

// One generated leaf, /doc/<name>. `number` holds kInt/kDouble values and,
// for kDate, microseconds since the epoch at midnight.
struct Field {
  std::string name;
  FieldType type = FieldType::kString;
  std::string text;
  double number = 0.0;
};

struct GenDoc {
  std::string kind;
  std::vector<Field> fields;
  uint64_t id = 0;  // assigned by the appliance when infused

  const Field* Find(const std::string& name) const;
};

// Raw bytes as infused: a CSV item covers many documents, others one.
struct RawItem {
  std::string kind;
  std::string content;
  size_t first_doc = 0;  // index into Corpus::docs
  size_t num_docs = 0;
};

struct Corpus {
  std::vector<GenDoc> docs;
  std::vector<RawItem> items;
  uint64_t raw_bytes = 0;
  // Planted keyword -> indices of the documents that carry it.
  std::vector<std::pair<std::string, std::vector<size_t>>> planted;
  // order_csv order_no -> document index.
  std::map<int64_t, size_t> order_csv_by_no;
  int64_t first_order_no = 0;
  int64_t last_order_no = 0;
};

// Builds the corpus at `scale` times CorpusGenerator's default size (540
// documents per unit). Deterministic per seed.
Corpus GenerateCorpus(uint64_t seed, size_t scale);

// One small JSON support ticket, the unit of the `ingest` operation class.
// Its kind ("ticket") is queried by no SQL or facet operation, so ingests
// leave every other expected answer unchanged.
GenDoc MakeTicket(Rng* rng, int64_t ticket_no, std::string* raw);

// Microseconds since the epoch of YYYY-MM-DD at midnight UTC.
int64_t DateMicros(int year, int month, int day);

}  // namespace e2ebench

#endif  // E2EBENCH_CORPUS_H_
