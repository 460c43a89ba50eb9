// End-to-end benchmark of the appliance through its public surfaces.
//
//   e2e_bench --workload <local_analytics|scaleout_analytics|wire_serving>
//             --seed <n> --seconds <s> --trace <0|1> [--data-root <dir>]
//
// Generates a corpus from the seed, loads it through core::Impliance, runs a
// fixed mix of seven operation classes for the given time (in process, or
// over loopback TCP through server::ImplianceServer), checks every answer
// against the benchmark's own record of the corpus, reopens the closed data
// directory, and prints one JSON object as the last line of standard output:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits non-zero on any wrong answer.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "core/impliance.h"
#include "corpus.h"
#include "discovery/relationship_discovery.h"
#include "index/join_index.h"
#include "ingest/ingest.h"
#include "model/view.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/sql_parser.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/document_store.h"
#include "surface.h"

namespace e2ebench {
namespace {

namespace core = impliance::core;
namespace obs = impliance::obs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using impliance::Status;

// Static initialisation runs before main: the closest in-process stand-in for
// the process's start, from which setup_s is timed.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[index];
}
double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ------------------------------------------------------------- workloads

enum OpClass { kGet, kPointSql, kRangeSql, kAggSql, kKeyword, kFacet, kIngest };
constexpr int kNumClasses = 7;
const char* const kClassNames[kNumClasses] = {
    "get", "point_sql", "range_sql", "agg_sql", "keyword", "facet", "ingest"};

// Operations of each class in one round. Every client repeats whole rounds,
// so the share of each class is the same in every run.
using Mix = std::array<int, kNumClasses>;

struct WorkloadSpec {
  std::string name;
  size_t scale = 40;       // x CorpusGenerator's default 540 documents
  size_t data_nodes = 0;   // scale-out blades; 0 = single node
  bool discovery = false;  // one synchronous RunDiscovery() in set-up
  bool wire = false;       // clients speak TCP to an ImplianceServer
  Mix mix{};               // the in-process client, or the SQL connection
  Mix lookup_mix{};        // wire: the lookup-only reader connections
  size_t lookup_readers = 0;
  double ingest_per_s = 0;  // wire: the open-loop writer connection
};

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "local_analytics" || name == "scaleout_analytics") {
    spec->scale = 40;
    spec->discovery = true;
    //          get pt  rng agg kw  fct ing
    spec->mix = {16, 16, 2, 3, 16, 3, 4};
    if (name == "scaleout_analytics") spec->data_nodes = 4;
    return true;
  }
  if (name == "wire_serving") {
    spec->scale = 400;
    spec->wire = true;
    spec->mix = {32, 32, 1, 0, 16, 0, 0};
    spec->lookup_mix = {32, 0, 0, 0, 16, 3, 0};
    spec->lookup_readers = 2;
    spec->ingest_per_s = 50;
    return true;
  }
  return false;
}

struct QuerySpec {
  std::string kind;
  std::string group_field;
  std::string sum_field;
};
const QuerySpec kGroupQueries[] = {{"order_csv", "product", "total"},
                                   {"order_xml", "product", "total"},
                                   {"claim", "provider", "amount"}};
constexpr size_t kNumGroupQueries = 3;
constexpr size_t kTopK = 10;
// Whole-view GROUP BY runs once per this many rounds of the wire SQL
// connection: rare next to the lookups.
constexpr int kWireAggEveryRounds = 4;
constexpr int kRecoveryOpens = 3;

std::string AggSql(const QuerySpec& spec) {
  return "SELECT " + spec.group_field + ", COUNT(*), SUM(" + spec.sum_field +
         ") FROM " + spec.kind + " GROUP BY " + spec.group_field;
}
std::string PointSql(int64_t order_no) {
  return "SELECT order_no, customer_id, product, total FROM order_csv "
         "WHERE order_no = " +
         std::to_string(order_no);
}

// ---------------------------------------------------------- shared state

struct AckedIngest {
  uint64_t id;
  GenDoc doc;
  size_t raw_bytes;
};

// Span self time: a span's duration minus the part of its interval covered
// by other spans of the trace that lie inside it (spans are flat, so
// nesting is recovered from the intervals).
std::map<std::string, double> SelfMicros(const std::vector<obs::Span>& spans) {
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].start_micros;
    const uint64_t end = begin + spans[i].duration_micros;
    std::vector<std::pair<uint64_t, uint64_t>> inner;
    for (size_t j = 0; j < spans.size(); ++j) {
      if (j == i) continue;
      const uint64_t b = spans[j].start_micros;
      const uint64_t e = b + spans[j].duration_micros;
      const bool inside = b >= begin && e <= end;
      const bool same = b == begin && e == end;
      if (inside && (!same || j > i)) inner.emplace_back(b, e);
    }
    std::sort(inner.begin(), inner.end());
    uint64_t covered = 0;
    uint64_t cursor = begin;
    for (const auto& [b, e] : inner) {
      const uint64_t from = std::max(b, cursor);
      if (e > from) {
        covered += e - from;
        cursor = e;
      }
    }
    self[spans[i].name] +=
        static_cast<double>(spans[i].duration_micros - std::min(covered, spans[i].duration_micros));
  }
  return self;
}

uint64_t RowsDecoded() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("scan.rows_decoded");
  return counter->Value();
}
uint64_t PostingsScored() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("index.search.postings_scored");
  return counter->Value();
}

// Per-class span self time and counters from traced operations.
struct TraceStats {
  uint64_t ops[kNumClasses] = {};
  std::map<std::string, double> self_micros[kNumClasses];
  uint64_t spans_dropped = 0;
  uint64_t rows_decoded = 0;      // scan.rows_decoded during agg_sql
  uint64_t agg_rows_returned = 0;
  uint64_t postings_scored = 0;   // during keyword
};

class Bench {
 public:
  Bench(WorkloadSpec spec, uint64_t seed) : spec_(std::move(spec)), seed_(seed) {}

  const WorkloadSpec& spec() const { return spec_; }
  Corpus& corpus() { return corpus_; }
  const Corpus& corpus() const { return corpus_; }

  void Prepare() {
    for (size_t q = 0; q < kNumGroupQueries; ++q) {
      const QuerySpec& spec = kGroupQueries[q];
      groups_[q] = ExpectedGroups(corpus_, spec.kind, spec.group_field,
                                  spec.sum_field);
    }
    for (const auto& [token, docs] : corpus_.planted) {
      std::vector<uint64_t> ids;
      for (size_t index : docs) ids.push_back(corpus_.docs[index].id);
      planted_ids_.push_back(std::move(ids));
    }
    for (const auto& [order_no, index] : corpus_.order_csv_by_no) {
      totals_.emplace_back(corpus_.docs[index].Find("total")->number, order_no);
    }
    std::sort(totals_.begin(), totals_.end());
  }

  const std::map<std::string, GroupTotals>& groups(size_t q) const {
    return groups_[q];
  }
  const std::vector<uint64_t>& planted_ids(size_t g) const {
    return planted_ids_[g];
  }
  std::vector<int64_t> ExpectedRange(double lo, double hi) const {
    std::vector<int64_t> keys;
    auto it = std::lower_bound(totals_.begin(), totals_.end(),
                               std::make_pair(lo, INT64_MIN));
    for (; it != totals_.end() && it->first <= hi; ++it) keys.push_back(it->second);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  int64_t NextTicketNo() { return next_ticket_.fetch_add(1); }
  void Ack(uint64_t id, GenDoc doc, size_t raw_bytes) {
    std::lock_guard<std::mutex> lock(acked_mutex_);
    acked_.push_back(AckedIngest{id, std::move(doc), raw_bytes});
  }
  std::vector<AckedIngest> acked() const {
    std::lock_guard<std::mutex> lock(acked_mutex_);
    return acked_;
  }
  uint64_t seed() const { return seed_; }

 private:
  WorkloadSpec spec_;
  uint64_t seed_;
  Corpus corpus_;
  std::map<std::string, GroupTotals> groups_[kNumGroupQueries];
  std::vector<std::vector<uint64_t>> planted_ids_;
  std::vector<std::pair<double, int64_t>> totals_;  // (total, order_no)
  std::atomic<int64_t> next_ticket_{5'000'000};
  mutable std::mutex acked_mutex_;
  std::vector<AckedIngest> acked_;
};

// One closed-loop client: issues operations through one surface, times the
// call alone, and checks each answer.
class Client {
 public:
  Client(Bench* bench, Surface* surface, uint64_t stream)
      : bench_(bench), surface_(surface), rng_(bench->seed() * 1000003 + stream) {}

  // Runs one operation; false (with error()) on a failed call or a wrong
  // answer. With `trace`, the call runs under an attached trace whose spans
  // are folded into `trace_stats`.
  bool Run(OpClass op, TraceStats* trace_stats = nullptr) {
    obs::TracePtr trace;
    uint64_t rows_before = 0;
    uint64_t postings_before = 0;
    if (trace_stats != nullptr) {
      trace = obs::StartTrace(kClassNames[op]);
      rows_before = RowsDecoded();
      postings_before = PostingsScored();
    }
    std::string error;
    double millis = 0;
    size_t rows_returned = 0;
    {
      std::unique_ptr<obs::ScopedTraceAttach> attach;
      if (trace != nullptr) attach = std::make_unique<obs::ScopedTraceAttach>(trace);
      error = Execute(op, &millis, &rows_returned);
    }
    if (trace != nullptr) {
      obs::FinishTrace(trace);
      const std::vector<obs::FinishedTrace> recent = obs::RecentTraces(1);
      if (!recent.empty() && recent[0].trace_id == trace->trace_id()) {
        ++trace_stats->ops[op];
        trace_stats->spans_dropped += recent[0].spans_dropped;
        for (const auto& [name, micros] : SelfMicros(recent[0].spans)) {
          trace_stats->self_micros[op][name] += micros;
        }
      }
      if (op == kAggSql) {
        trace_stats->rows_decoded += RowsDecoded() - rows_before;
        trace_stats->agg_rows_returned += rows_returned;
      }
      if (op == kKeyword) {
        trace_stats->postings_scored +=
            PostingsScored() - postings_before;
      }
    }
    if (!error.empty()) {
      error_ = error;
      return false;
    }
    latencies_[op].push_back(millis);
    ++completed_;
    return true;
  }

  // Runs one shuffled round of `mix`; false on the first failure.
  bool RunRound(const Mix& mix, TraceStats* trace_stats = nullptr) {
    std::vector<OpClass> round;
    for (int c = 0; c < kNumClasses; ++c) {
      for (int i = 0; i < mix[c]; ++i) round.push_back(static_cast<OpClass>(c));
    }
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng_.Uniform(i)]);
    }
    for (OpClass op : round) {
      if (!Run(op, trace_stats)) return false;
    }
    return true;
  }

  const std::vector<double>& latencies(int op) const { return latencies_[op]; }
  std::vector<double>& mutable_latencies(int op) { return latencies_[op]; }
  uint64_t completed() const { return completed_; }
  const std::string& error() const { return error_; }
  void ClearLatencies() {
    for (auto& l : latencies_) l.clear();
    completed_ = 0;
  }

 private:
  template <typename Fn>
  std::string Timed(double* millis, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    Status status = fn();
    *millis = MillisBetween(start, Clock::now());
    return status.ok() ? "" : status.ToString();
  }

  std::string Execute(OpClass op, double* millis, size_t* rows_returned) {
    const Corpus& corpus = bench_->corpus();
    const double tol = surface_->rel_tol();
    switch (op) {
      case kGet: {
        const GenDoc& doc = corpus.docs[rng_.Uniform(corpus.docs.size())];
        GetAnswer answer;
        std::string error = Timed(millis, [&] { return surface_->Get(doc.id, &answer); });
        return error.empty() ? CheckGet(doc, answer, tol) : "get: " + error;
      }
      case kPointSql: {
        const int64_t order_no =
            corpus.first_order_no +
            static_cast<int64_t>(rng_.Uniform(corpus.order_csv_by_no.size()));
        const GenDoc& doc = corpus.docs[corpus.order_csv_by_no.at(order_no)];
        SqlAnswer answer;
        std::string error =
            Timed(millis, [&] { return surface_->Sql(PointSql(order_no), &answer); });
        return error.empty() ? CheckPointSql(doc, answer, tol) : "point_sql: " + error;
      }
      case kRangeSql: {
        // Totals are 10.00..509.90 in steps of 0.10; a 1.00-wide range
        // selects about 0.2% of the orders. A range costs more the higher
        // it lies, so the lower bounds follow a golden-ratio sequence that
        // spreads evenly over the totals after any number of queries.
        char lo[32];
        char hi[32];
        const double spread = std::fmod(0.5 + 0.6180339887498949 * rotation_[op]++, 1.0);
        const uint64_t step = static_cast<uint64_t>(spread * 4990);
        std::snprintf(lo, sizeof(lo), "%.2f", 10.0 + step / 10.0);
        std::snprintf(hi, sizeof(hi), "%.2f", 11.0 + step / 10.0);
        const std::string sql = std::string("SELECT order_no FROM order_csv WHERE total >= ") +
                                lo + " AND total <= " + hi;
        SqlAnswer answer;
        std::string error = Timed(millis, [&] { return surface_->Sql(sql, &answer); });
        if (!error.empty()) return "range_sql: " + error;
        return CheckRangeSql(bench_->ExpectedRange(std::strtod(lo, nullptr),
                                                   std::strtod(hi, nullptr)),
                             answer);
      }
      case kAggSql: {
        const size_t q = rotation_[op]++ % kNumGroupQueries;
        SqlAnswer answer;
        std::string error =
            Timed(millis, [&] { return surface_->Sql(AggSql(kGroupQueries[q]), &answer); });
        *rows_returned = answer.rows.size();
        return error.empty() ? CheckAggSql(bench_->groups(q), answer, tol)
                             : "agg_sql: " + error;
      }
      case kKeyword: {
        const size_t g = rotation_[op]++ % corpus.planted.size();
        SearchAnswer answer;
        std::string error = Timed(millis, [&] {
          return surface_->Search(corpus.planted[g].first, kTopK, &answer);
        });
        return error.empty() ? CheckKeyword(bench_->planted_ids(g), kTopK, answer)
                             : "keyword: " + error;
      }
      case kFacet: {
        const size_t q = rotation_[op]++ % kNumGroupQueries;
        const QuerySpec& spec = kGroupQueries[q];
        FacetAnswer answer;
        std::string error = Timed(millis, [&] {
          return surface_->Facet(FacetSpec{spec.kind, spec.group_field, spec.sum_field},
                                 &answer);
        });
        return error.empty() ? CheckFacet(bench_->groups(q), answer, tol)
                             : "facet: " + error;
      }
      case kIngest: {
        std::string raw;
        GenDoc doc = MakeTicket(&rng_, bench_->NextTicketNo(), &raw);
        uint64_t id = 0;
        std::string error =
            Timed(millis, [&] { return surface_->Ingest(doc.kind, raw, &id); });
        if (!error.empty()) return "ingest: " + error;
        bench_->Ack(id, std::move(doc), raw.size());
        return "";
      }
    }
    return "unknown operation";
  }

  Bench* bench_;
  Surface* surface_;
  Rng rng_;
  // Range, GROUP BY, keyword and facet queries take their parameters in
  // turn rather than at random: their costs differ, and equal shares keep
  // the median steady.
  uint64_t rotation_[kNumClasses] = {};
  std::vector<double> latencies_[kNumClasses];
  uint64_t completed_ = 0;
  std::string error_;
};

// ------------------------------------------------------------- utilities

// Bytes of the regular files under `dir` whose names end in `suffix`.
uint64_t DirBytes(const fs::path& dir, const std::string& suffix = "") {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

core::ImplianceOptions OptionsFor(const WorkloadSpec& spec, const fs::path& dir) {
  core::ImplianceOptions options;
  options.data_dir = dir.string();
  options.sync_wal = false;
  options.scale_out_data_nodes = spec.data_nodes;
  options.scale_out_replication = spec.data_nodes > 0 ? 2 : 1;
  options.scale_out_balancer_interval_ms = 0;  // balancer off
  return options;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string moves;  // traced run: what it should move, and where
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root = ".e2ebench_data";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-root") {
      args->data_root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "e2e_bench: %s\n", message.c_str());
  return 1;
}

class Run {
 public:
  Run(const Args& args, WorkloadSpec spec)
      : args_(args), bench_(std::move(spec), args.seed) {
    dir_ = fs::path(args.data_root) /
           (bench_.spec().name + "-" + std::to_string(args.seed) + "-" +
            std::to_string(getpid()));
  }
  ~Run() {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
    fs::remove_all(dir_.string() + "-copy", ignored);
  }

  int Main();

 private:
  Status Setup();
  Status Window();
  Status WireWindow();
  Status Probe();
  Status CloseAndRecover();
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer() const;
  void ClassLatencies(int op, std::vector<double>* out) const;

  const Args args_;
  Bench bench_;
  fs::path dir_;
  std::unique_ptr<core::Impliance> impliance_;
  std::unique_ptr<InProcessSurface> local_;
  std::unique_ptr<impliance::server::ImplianceServer> server_;
  std::vector<std::unique_ptr<Surface>> surfaces_;  // one per client
  std::vector<std::unique_ptr<Client>> clients_;
  uint64_t attempted_ = 0;
  std::string failure_;

  // Set-up and end-of-run figures.
  double setup_s_ = 0;
  double load_s_ = 0;
  double discovery_s_ = 0;
  uint64_t corpus_docs_ = 0;
  uint64_t raw_bytes_ = 0;
  double window_s_ = 0;
  uint64_t window_ops_ = 0;
  double recovery_s_ = 0;
  uint64_t dir_bytes_ = 0;
  uint64_t segment_bytes_ = 0;
  double disk_ratio_ = 0;
  double peak_rss_mib_ = 0;
  impliance::storage::StoreStats store_before_;  // after set-up
  impliance::storage::StoreStats store_window_;  // after the timed window
  impliance::storage::StoreStats store_after_;   // at close
  size_t join_edges_ = 0;
  // Writer (wire_serving).
  std::vector<double> generator_late_ms_;

  // Traced run only.
  TraceStats trace_stats_;
  double traced_ops_s_ = 0;
  double untraced_ops_s_ = 0;
  std::map<std::string, double> layer_;
};

Status Run::Setup() {
  bench_.corpus() = GenerateCorpus(args_.seed, bench_.spec().scale);
  Corpus& corpus = bench_.corpus();
  corpus_docs_ = corpus.docs.size();
  raw_bytes_ = corpus.raw_bytes;
  std::error_code ignored;
  fs::remove_all(dir_, ignored);
  fs::create_directories(dir_.parent_path());

  IMPLIANCE_ASSIGN_OR_RETURN(impliance_,
                             core::Impliance::Open(OptionsFor(bench_.spec(), dir_)));
  const Clock::time_point load_start = Clock::now();
  for (const RawItem& item : corpus.items) {
    IMPLIANCE_ASSIGN_OR_RETURN(std::vector<impliance::model::DocId> ids,
                               impliance_->InfuseContent(item.kind, item.content));
    if (ids.size() != item.num_docs) {
      return Status::Internal("infuse of " + item.kind + " returned " +
                              std::to_string(ids.size()) + " ids, expected " +
                              std::to_string(item.num_docs));
    }
    for (size_t i = 0; i < ids.size(); ++i) corpus.docs[item.first_doc + i].id = ids[i];
  }
  load_s_ = SecondsSince(load_start);
  if (bench_.spec().discovery) {
    const Clock::time_point start = Clock::now();
    IMPLIANCE_ASSIGN_OR_RETURN(core::DiscoveryReport report, impliance_->RunDiscovery());
    (void)report;
    discovery_s_ = SecondsSince(start);
  }
  bench_.Prepare();
  local_ = std::make_unique<InProcessSurface>(impliance_.get());

  // Clients, then one checked warm-up round each: views are inferred and
  // optimizer statistics collected before timing starts.
  const WorkloadSpec& spec = bench_.spec();
  if (spec.wire) {
    impliance::server::ServerOptions server_options;
    server_options.worker_threads = 4;
    IMPLIANCE_ASSIGN_OR_RETURN(
        server_, impliance::server::ImplianceServer::Start(impliance_.get(), server_options));
    const size_t connections = 1 + spec.lookup_readers + 1;  // + writer
    for (size_t c = 0; c < connections; ++c) {
      impliance::server::ClientOptions client_options;
      client_options.port = server_->port();
      client_options.recv_timeout_ms = 60'000;
      IMPLIANCE_ASSIGN_OR_RETURN(
          std::unique_ptr<impliance::server::ImplianceClient> client,
          impliance::server::ImplianceClient::Connect(client_options));
      surfaces_.push_back(std::make_unique<WireSurface>(std::move(client)));
    }
  } else {
    surfaces_.push_back(std::make_unique<InProcessSurface>(impliance_.get()));
  }
  for (size_t c = 0; c < surfaces_.size(); ++c) {
    clients_.push_back(std::make_unique<Client>(&bench_, surfaces_[c].get(), c + 1));
  }
  Mix warm = spec.mix;
  if (spec.wire) warm[kAggSql] = 1;
  for (size_t c = 0; c < clients_.size(); ++c) {
    const bool writer = spec.wire && c + 1 == clients_.size();
    Mix mix = c == 0 ? warm : spec.lookup_mix;
    if (writer) mix = Mix{0, 0, 0, 0, 0, 0, 1};
    if (!clients_[c]->RunRound(mix)) return Status::Internal(clients_[c]->error());
    attempted_ += clients_[c]->completed();
    clients_[c]->ClearLatencies();
  }
  store_before_ = impliance_->GetStats().store;
  setup_s_ = SecondsSince(kProcessStart);
  return Status::OK();
}

Status Run::Window() {
  Client& client = *clients_[0];
  const Mix& mix = bench_.spec().mix;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args_.seconds));
  double traced_s = 0;
  double untraced_s = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  bool ok = true;
  // The client runs on a thread of its own, as every wire connection does.
  std::thread([&] {
    for (uint64_t round = 0; ok && Clock::now() < end; ++round) {
      // The traced run alternates traced and untraced rounds, so both see
      // the same appliance state; their throughputs give the overhead.
      const bool traced = args_.trace && round % 2 == 1;
      const uint64_t before = client.completed();
      const Clock::time_point round_start = Clock::now();
      ok = client.RunRound(mix, traced ? &trace_stats_ : nullptr);
      attempted_ += client.completed() - before + (ok ? 0 : 1);
      (traced ? traced_s : untraced_s) += SecondsSince(round_start);
      (traced ? traced_ops : untraced_ops) += client.completed() - before;
    }
  }).join();
  if (!ok) return Status::Internal(client.error());
  window_s_ = SecondsSince(start);
  window_ops_ = client.completed();
  if (traced_s > 0) traced_ops_s_ = traced_ops / traced_s;
  if (untraced_s > 0) untraced_ops_s_ = untraced_ops / untraced_s;
  return Status::OK();
}

Status Run::WireWindow() {
  const WorkloadSpec& spec = bench_.spec();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args_.seconds));
  std::atomic<bool> failed{false};
  std::vector<uint64_t> rounds(clients_.size(), 0);
  std::vector<double> finished_s(clients_.size(), 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c + 1 < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      Mix mix = c == 0 ? spec.mix : spec.lookup_mix;
      for (uint64_t round = 0; Clock::now() < end && !failed; ++round) {
        Mix this_round = mix;
        if (c == 0 && round % kWireAggEveryRounds == 0) this_round[kAggSql] = 1;
        if (!clients_[c]->RunRound(this_round)) {
          failed = true;
          return;
        }
      }
      finished_s[c] = SecondsSince(start);
    });
  }
  // The writer: open loop at a fixed rate, each ingest timed from when it
  // was due, so a stall also charges the ingests queued behind it.
  Client& writer = *clients_.back();
  const size_t writer_index = clients_.size() - 1;
  std::vector<double> due_latency_ms;
  threads.emplace_back([&] {
    const double interval_s = 1.0 / spec.ingest_per_s;
    const uint64_t due_count = static_cast<uint64_t>(args_.seconds * spec.ingest_per_s);
    for (uint64_t i = 0; i < due_count && !failed; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i * interval_s));
      std::this_thread::sleep_until(due);
      generator_late_ms_.push_back(MillisBetween(due, Clock::now()));
      if (!writer.Run(kIngest)) {
        failed = true;
        return;
      }
      due_latency_ms.push_back(MillisBetween(due, Clock::now()));
    }
    finished_s[writer_index] = SecondsSince(start);
  });
  for (std::thread& thread : threads) thread.join();
  window_s_ = *std::max_element(finished_s.begin(), finished_s.end());
  window_ops_ = 0;
  for (const auto& client : clients_) {
    window_ops_ += client->completed();
    attempted_ += client->completed();
  }
  if (failed) {
    ++attempted_;
    for (const auto& client : clients_) {
      if (!client->error().empty()) return Status::Internal(client->error());
    }
  }
  // Due-time latency replaces the writer's call-only latency.
  writer.mutable_latencies(kIngest) = std::move(due_latency_ms);
  return Status::OK();
}

// Uncontended per-layer probes after the timed window (traced run only).
Status Run::Probe() {
  const WorkloadSpec& spec = bench_.spec();
  const Corpus& corpus = bench_.corpus();
  Rng rng(args_.seed ^ 0x5eed);

  // ingest: parse alone.
  {
    const Clock::time_point start = Clock::now();
    size_t docs = 0;
    for (const RawItem& item : corpus.items) {
      IMPLIANCE_ASSIGN_OR_RETURN(std::vector<impliance::model::Document> parsed,
                                 impliance::ingest::IngestAny(item.kind, item.content));
      docs += parsed.size();
    }
    layer_["ingest.parse_us_per_doc"] = SecondsSince(start) * 1e6 / docs;
    layer_["core.infuse_us_per_doc"] =
        load_s_ * 1e6 / corpus.docs.size() - layer_["ingest.parse_us_per_doc"];
  }
  // storage: Impliance::Get alone.
  {
    std::vector<double> micros;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t id = corpus.docs[rng.Uniform(corpus.docs.size())].id;
      const Clock::time_point start = Clock::now();
      if (!impliance_->Get(id).ok()) return Status::Internal("probe get failed");
      micros.push_back(MillisBetween(start, Clock::now()) * 1000);
    }
    layer_["storage.get_us"] = Median(micros);
  }
  // query: parse and explain.
  {
    std::vector<double> micros;
    for (int i = 0; i < 2000; ++i) {
      const std::string sql = PointSql(corpus.first_order_no + static_cast<int64_t>(i));
      const Clock::time_point start = Clock::now();
      if (!impliance::query::ParseSql(sql).ok()) return Status::Internal("parse failed");
      micros.push_back(MillisBetween(start, Clock::now()) * 1000);
    }
    layer_["query.parse_us"] = Median(micros);
    std::vector<double> millis;
    for (int i = 0; i < 9; ++i) {
      const std::string sql = AggSql(kGroupQueries[i % kNumGroupQueries]);
      const Clock::time_point start = Clock::now();
      if (!impliance_->ExplainSql(sql).ok()) return Status::Internal("explain failed");
      millis.push_back(MillisBetween(start, Clock::now()));
    }
    layer_["query.explain_ms"] = Median(millis);
  }
  // model: DocumentToRow per row over the order_csv view.
  {
    IMPLIANCE_ASSIGN_OR_RETURN(impliance::model::ViewDef view, impliance_->ViewFor("order_csv"));
    std::vector<impliance::model::Document> docs;
    for (const auto& [order_no, index] : corpus.order_csv_by_no) {
      IMPLIANCE_ASSIGN_OR_RETURN(impliance::model::Document doc,
                                 impliance_->Get(corpus.docs[index].id));
      docs.push_back(std::move(doc));
    }
    size_t cells = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < 5; ++pass) {
      for (const auto& doc : docs) cells += impliance::model::DocumentToRow(view, doc).size();
    }
    layer_["model.doc_to_row_us"] = SecondsSince(start) * 1e6 / (5.0 * docs.size());
    if (cells == 0) return Status::Internal("empty rows");
  }
  // ingest uncontended, in process: the base for core.ingest_wait_ms.
  std::vector<double> local_ingest_ms;
  {
    Client client(&bench_, local_.get(), 9001);
    for (int i = 0; i < 200; ++i) {
      if (!client.Run(kIngest)) return Status::Internal(client.error());
    }
    local_ingest_ms = client.latencies(kIngest);
    attempted_ += 200;
  }
  // Facet and the cluster calls alone.
  {
    Client client(&bench_, local_.get(), 9002);
    for (int i = 0; i < 30; ++i) {
      if (!client.Run(kFacet)) return Status::Internal(client.error());
    }
    attempted_ += 30;
    double facet_ms = Median(client.latencies(kFacet));
    if (auto* cluster = impliance_->scale_out()) {
      std::vector<double> avail_ms;
      std::vector<double> search_ms;
      uint64_t bytes = 0;
      for (int i = 0; i < 20; ++i) {
        impliance::cluster::ShipStats ship;
        const Clock::time_point start = Clock::now();
        auto docs = cluster->AvailableDocs(&ship);
        avail_ms.push_back(MillisBetween(start, Clock::now()));
        if (ship.degraded) return Status::Internal("degraded availability scan");
        bytes += ship.bytes_shipped;
      }
      for (int i = 0; i < 100; ++i) {
        impliance::cluster::ShipStats ship;
        const std::string& token = corpus.planted[rng.Uniform(corpus.planted.size())].first;
        const Clock::time_point start = Clock::now();
        auto hits = cluster->KeywordSearch(token, kTopK * 4 + 16, &ship);
        search_ms.push_back(MillisBetween(start, Clock::now()));
        if (ship.degraded) return Status::Internal("degraded keyword scatter");
        bytes += ship.bytes_shipped;
      }
      layer_["cluster.available_docs_ms"] = Median(avail_ms);
      layer_["cluster.keyword_search_ms"] = Median(search_ms);
      layer_["cluster.bytes_shipped_per_query"] = bytes / 120.0;
      facet_ms -= layer_["cluster.available_docs_ms"];
    }
    layer_["index.facet_ms"] = facet_ms;
  }
  // discovery: materialization alone, into a scratch join index.
  if (spec.discovery) {
    std::vector<impliance::model::Document> docs;
    for (const GenDoc& gen : corpus.docs) {
      IMPLIANCE_ASSIGN_OR_RETURN(impliance::model::Document doc, impliance_->Get(gen.id));
      docs.push_back(std::move(doc));
    }
    std::vector<const impliance::model::Document*> pointers;
    for (const auto& doc : docs) pointers.push_back(&doc);
    const auto joins = impliance::discovery::DiscoverJoins(pointers);
    impliance::index::JoinIndex scratch;
    const Clock::time_point start = Clock::now();
    for (const auto& join : joins) {
      impliance::discovery::MaterializeJoinEdges(pointers, join, &scratch);
    }
    layer_["discovery.materialize_s"] = SecondsSince(start);
  }
  // cluster: mirroring alone, on a standalone cluster with the same options.
  if (spec.data_nodes > 0) {
    impliance::cluster::SimulatedCluster::Options options;
    options.num_data_nodes = spec.data_nodes;
    options.num_grid_nodes = std::max<size_t>(1, spec.data_nodes / 2);
    options.num_cluster_nodes = 1;
    options.replication = 2;
    impliance::cluster::SimulatedCluster cluster(options);
    std::vector<impliance::model::Document> docs;
    for (const RawItem& item : corpus.items) {
      IMPLIANCE_ASSIGN_OR_RETURN(std::vector<impliance::model::Document> parsed,
                                 impliance::ingest::IngestAny(item.kind, item.content));
      for (size_t i = 0; i < parsed.size(); ++i) {
        parsed[i].id = corpus.docs[item.first_doc + i].id;
        parsed[i].version = 1;
        docs.push_back(std::move(parsed[i]));
      }
    }
    const Clock::time_point start = Clock::now();
    for (auto& doc : docs) {
      if (!cluster.Ingest(std::move(doc)).ok()) return Status::Internal("mirror failed");
    }
    layer_["cluster.mirror_us_per_doc"] = SecondsSince(start) * 1e6 / docs.size();
  }
  if (spec.wire) {
    auto* wire = static_cast<WireSurface*>(surfaces_[0].get());
    std::vector<double> ping_us;
    for (int i = 0; i < 1000; ++i) {
      const Clock::time_point start = Clock::now();
      IMPLIANCE_RETURN_IF_ERROR(wire->client()->Ping());
      ping_us.push_back(MillisBetween(start, Clock::now()) * 1000);
    }
    layer_["server.ping_rtt_us"] = Median(ping_us);
    // The same operations, uncontended, over the wire and in process, in
    // turn. Both clients draw the same parameters from the same stream. The
    // wire's facet carries no sum aggregate, so its difference also drops
    // the aggregate's cost. The calls run on a thread of their own, as the
    // server's workers do: on the main thread, whose heap holds the corpus,
    // whole-view SQL ran up to 10% slower.
    Client over_wire(&bench_, surfaces_[0].get(), 9003);
    Client in_process(&bench_, local_.get(), 9003);
    const Mix probe = {200, 200, 21, 9, 200, 21, 100};
    std::string probe_error;
    std::thread([&] {
      for (int c = 0; c < kNumClasses; ++c) {
        for (int i = 0; i < probe[c]; ++i) {
          for (Client* client : {&over_wire, &in_process}) {
            ++attempted_;
            if (!client->Run(static_cast<OpClass>(c))) {
              probe_error = client->error();
              return;
            }
          }
        }
      }
    }).join();
    if (!probe_error.empty()) return Status::Internal(probe_error);
    for (int c = 0; c < kNumClasses; ++c) {
      layer_[std::string("server.wire_overhead_us.") + kClassNames[c]] =
          (Median(over_wire.latencies(c)) - Median(in_process.latencies(c))) * 1000;
    }
    // Server-side spans of recent requests, read through kStats.
    IMPLIANCE_ASSIGN_OR_RETURN(impliance::server::wire::Response stats,
                               wire->client()->Stats());
    std::vector<double> admission_us;
    uint64_t dropped = 0;
    for (const auto& trace : stats.traces) {
      dropped += trace.spans_dropped;
      for (const auto& span : trace.spans) {
        if (span.name == "admission.wait") admission_us.push_back(span.duration_micros);
      }
    }
    layer_["server.admission_wait_us"] = Median(admission_us);
    trace_stats_.spans_dropped += dropped;
    // Tracing overhead and in-process spans: alternate traced and untraced
    // rounds of the SQL connection's mix in process.
    Client alternate(&bench_, local_.get(), 9004);
    double traced_s = 0;
    double untraced_s = 0;
    Mix mix = spec.mix;
    mix[kAggSql] = 1;
    for (int round = 0; round < 40; ++round) {
      const bool traced = round % 2 == 1;
      const Clock::time_point round_start = Clock::now();
      if (!alternate.RunRound(mix, traced ? &trace_stats_ : nullptr)) {
        return Status::Internal(alternate.error());
      }
      (traced ? traced_s : untraced_s) += SecondsSince(round_start);
    }
    attempted_ += alternate.completed();
    uint64_t per_round = 0;
    for (int c = 0; c < kNumClasses; ++c) per_round += mix[c];
    traced_ops_s_ = per_round * 20 / traced_s;
    untraced_ops_s_ = per_round * 20 / untraced_s;
  }
  {
    std::vector<double> observed;
    ClassLatencies(kIngest, &observed);
    layer_["core.ingest_wait_ms"] = Median(observed) - Median(local_ingest_ms);
  }
  return Status::OK();
}

Status Run::CloseAndRecover() {
  const core::ImplianceStats stats = impliance_->GetStats();
  store_after_ = stats.store;
  join_edges_ = stats.join_edges;
  clients_.clear();
  surfaces_.clear();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  local_.reset();
  impliance_.reset();

  uint64_t ingested_bytes = 0;
  const std::vector<AckedIngest> acked = bench_.acked();
  for (const AckedIngest& ack : acked) ingested_bytes += ack.raw_bytes;
  dir_bytes_ = DirBytes(dir_);
  segment_bytes_ = DirBytes(dir_, ".seg");
  disk_ratio_ = static_cast<double>(dir_bytes_) /
                static_cast<double>(raw_bytes_ + ingested_bytes);

  if (args_.trace) {
    // storage alone: open the store on a copy of the closed directory and
    // scan every document.
    const fs::path copy = dir_.string() + "-copy";
    fs::copy(dir_, copy, fs::copy_options::recursive);
    const Clock::time_point start = Clock::now();
    impliance::storage::StoreOptions options;
    options.dir = copy.string();
    IMPLIANCE_ASSIGN_OR_RETURN(std::unique_ptr<impliance::storage::DocumentStore> store,
                               impliance::storage::DocumentStore::Open(options));
    size_t scanned = 0;
    IMPLIANCE_RETURN_IF_ERROR(store->Scan([&](const impliance::model::Document&) {
      ++scanned;
      return true;
    }));
    layer_["storage.recovery_scan_s"] = SecondsSince(start);
    store.reset();
    fs::remove_all(copy);
  }

  // One reopen is a single short sample; the median of three repeats.
  std::vector<double> opens;
  for (int i = 0; i < kRecoveryOpens; ++i) {
    impliance_.reset();
    const Clock::time_point start = Clock::now();
    IMPLIANCE_ASSIGN_OR_RETURN(impliance_,
                               core::Impliance::Open(OptionsFor(bench_.spec(), dir_)));
    opens.push_back(SecondsSince(start));
  }
  recovery_s_ = Median(opens);
  // Every acknowledged ingest is readable after reopen. Discovered schema
  // classes do not survive reopen, so no check here reads a class view.
  InProcessSurface surface(impliance_.get());
  for (const AckedIngest& ack : acked) {
    GetAnswer answer;
    Status status = surface.Get(ack.id, &answer);
    if (!status.ok()) return Status::Internal("after reopen: " + status.ToString());
    std::string error = CheckGet(ack.doc, answer, surface.rel_tol());
    if (!error.empty()) return Status::Internal("after reopen: " + error);
  }
  attempted_ += acked.size();
  impliance_.reset();
  peak_rss_mib_ = PeakRssMib();
  return Status::OK();
}

void Run::ClassLatencies(int op, std::vector<double>* out) const {
  out->clear();
  for (const auto& client : clients_) {
    out->insert(out->end(), client->latencies(op).begin(), client->latencies(op).end());
  }
}

int Run::Main() {
  const WorkloadSpec& spec = bench_.spec();
  Status status = Setup();
  if (status.ok()) status = spec.wire ? WireWindow() : Window();

  // Latencies are gathered before the clients close.
  std::vector<double> latencies[kNumClasses];
  for (int c = 0; c < kNumClasses; ++c) ClassLatencies(c, &latencies[c]);
  if (status.ok()) store_window_ = impliance_->GetStats().store;
  if (status.ok() && args_.trace) status = Probe();
  if (status.ok()) status = CloseAndRecover();
  if (!status.ok()) {
    PrintResult(false, std::max<uint64_t>(attempted_, 1), 0, {});
    return Fail(spec.name + ": " + status.ToString());
  }

  std::vector<Metric> metrics;
  if (!args_.trace) {
    auto p = [&](int c, double q) { return Quantile(latencies[c], q); };
    metrics = {
        {"setup_s", setup_s_, "s", ""},
        {"ops_s", window_ops_ / window_s_, "ops/s", ""},
        {"get_p50_ms", p(kGet, 0.5), "ms", ""},
        {"point_sql_p50_ms", p(kPointSql, 0.5), "ms", ""},
        {"range_sql_p50_ms", p(kRangeSql, 0.5), "ms", ""},
        {"agg_sql_p50_ms", p(kAggSql, 0.5), "ms", ""},
        {"keyword_p50_ms", p(kKeyword, 0.5), "ms", ""},
        {"facet_p50_ms", p(kFacet, 0.5), "ms", ""},
        {"ingest_p50_ms", p(kIngest, 0.5), "ms", ""},
        {"recovery_s", recovery_s_, "s", ""},
        {"disk_bytes_per_input_byte", disk_ratio_, "ratio", ""},
        {"peak_rss_mib", peak_rss_mib_, "MiB", ""},
    };
    std::fprintf(stderr,
                 "%s: %llu docs, %.1f MiB raw, data dir %.1f MiB of which segments "
                 "%.1f MiB; load %.3f s, discovery %.3f s, window %.2f s\n",
                 spec.name.c_str(), static_cast<unsigned long long>(corpus_docs_),
                 raw_bytes_ / 1048576.0, dir_bytes_ / 1048576.0, segment_bytes_ / 1048576.0,
                 load_s_, discovery_s_, window_s_);
    for (int c = 0; c < kNumClasses; ++c) {
      std::fprintf(stderr, "  %-10s n=%zu p10=%.4f p25=%.4f p50=%.4f p75=%.4f p90=%.4f p99=%.4f ms\n",
                   kClassNames[c], latencies[c].size(), p(c, 0.1), p(c, 0.25), p(c, 0.5),
                   p(c, 0.75), p(c, 0.9), p(c, 0.99));
    }
  } else {
    metrics = PerLayer();
    std::printf("per-layer metrics, %s (traced run)\n", spec.name.c_str());
    for (const Metric& metric : metrics) {
      std::printf("  %-36s %14.4f %-6s moves %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str(), metric.moves.c_str());
    }
  }
  PrintResult(true, attempted_, 0, metrics);
  return 0;
}

std::vector<Metric> Run::PerLayer() const {
  auto layer = [&](const std::string& name) {
    auto it = layer_.find(name);
    return it == layer_.end() ? 0.0 : it->second;
  };
  // Mean self time of `span` per traced operation of the given classes.
  auto self_ms = [&](std::initializer_list<int> classes, const char* span) {
    double micros = 0;
    uint64_t ops = 0;
    for (int c : classes) {
      ops += trace_stats_.ops[c];
      auto it = trace_stats_.self_micros[c].find(span);
      if (it != trace_stats_.self_micros[c].end()) micros += it->second;
    }
    return ops == 0 ? 0.0 : micros / ops / 1000.0;
  };
  const std::initializer_list<int> queries = {kPointSql, kRangeSql, kAggSql, kKeyword, kFacet};
  const uint64_t hits = store_window_.cache_hits - store_before_.cache_hits;
  const uint64_t misses = store_window_.cache_misses - store_before_.cache_misses;
  const std::string all = "on every workload";
  const std::string local = "on local_analytics";
  const std::string scaleout = "on scaleout_analytics";
  const std::string analytics = "on both analytics workloads";
  const std::string wire = "on wire_serving";
  std::vector<Metric> metrics = {
      {"ingest.parse_us_per_doc", layer("ingest.parse_us_per_doc"), "us",
       "setup_s, ingest_p50_ms " + local},
      {"core.infuse_us_per_doc", layer("core.infuse_us_per_doc"), "us",
       "setup_s, ingest_p50_ms " + all},
      {"core.ingest_wait_ms", layer("core.ingest_wait_ms"), "ms", "ingest_p50_ms " + wire},
      {"core.index_rebuild_s", recovery_s_ - layer("storage.recovery_scan_s"), "s",
       "recovery_s " + local},
      {"discovery.pass_s", discovery_s_, "s", "setup_s, peak_rss_mib " + analytics},
      {"discovery.materialize_s", layer("discovery.materialize_s"), "s",
       "setup_s, peak_rss_mib " + analytics},
      {"discovery.join_edges", static_cast<double>(join_edges_), "count",
       "setup_s, peak_rss_mib " + analytics},
      {"storage.get_us", layer("storage.get_us"), "us", "get_p50_ms " + wire},
      {"storage.cache_hit_ratio", hits + misses == 0 ? 0.0 : hits / double(hits + misses),
       "ratio", "get_p50_ms " + wire},
      {"storage.cache_hits", static_cast<double>(hits), "count", "get_p50_ms " + wire},
      {"storage.cache_misses", static_cast<double>(misses), "count", "get_p50_ms " + wire},
      {"storage.recovery_scan_s", layer("storage.recovery_scan_s"), "s", "recovery_s " + all},
      {"storage.wal_bytes", static_cast<double>(store_after_.wal_bytes), "bytes",
       "disk_bytes_per_input_byte " + all},
      {"storage.segments", static_cast<double>(store_after_.num_segments), "count",
       "disk_bytes_per_input_byte " + all},
      {"query.parse_us", layer("query.parse_us"), "us", "point_sql_p50_ms " + all},
      {"query.explain_ms", layer("query.explain_ms"), "ms",
       "range_sql_p50_ms, agg_sql_p50_ms " + all},
      {"scan.rows_decoded_per_row",
       trace_stats_.agg_rows_returned == 0
           ? 0.0
           : trace_stats_.rows_decoded / double(trace_stats_.agg_rows_returned),
       "ratio", "agg_sql_p50_ms " + local},
      {"exec.table_scan_self_ms_per_agg", self_ms({kAggSql}, "table.scan"), "ms",
       "agg_sql_p50_ms " + local},
      {"exec.morsels_self_ms_per_agg", self_ms({kAggSql}, "exec.morsels"), "ms",
       "agg_sql_p50_ms " + local},
      {"model.doc_to_row_us", layer("model.doc_to_row_us"), "us", "agg_sql_p50_ms " + local},
      {"index.search_self_us", self_ms({kKeyword}, "index.search") * 1000, "us",
       "keyword_p50_ms " + local},
      {"index.postings_scored_per_query",
       trace_stats_.ops[kKeyword] == 0
           ? 0.0
           : trace_stats_.postings_scored / double(trace_stats_.ops[kKeyword]),
       "count", "keyword_p50_ms " + local},
      {"index.facet_ms", layer("index.facet_ms"), "ms", "facet_p50_ms " + local},
      {"cluster.available_docs_ms", layer("cluster.available_docs_ms"), "ms",
       "every SQL p50 and facet_p50_ms " + scaleout},
      {"cluster.keyword_search_ms", layer("cluster.keyword_search_ms"), "ms",
       "keyword_p50_ms " + scaleout},
      {"cluster.bytes_shipped_per_query", layer("cluster.bytes_shipped_per_query"), "bytes",
       "point_sql_p50_ms " + scaleout},
      {"cluster.scatter_self_ms", self_ms(queries, "cluster.scatter"), "ms",
       "SQL, keyword and facet p50s " + scaleout},
      {"cluster.gather_self_ms", self_ms(queries, "cluster.gather"), "ms",
       "SQL, keyword and facet p50s " + scaleout},
      {"cluster.mirror_us_per_doc", layer("cluster.mirror_us_per_doc"), "us",
       "setup_s, ingest_p50_ms " + scaleout},
      {"server.ping_rtt_us", layer("server.ping_rtt_us"), "us", "every p50 " + wire},
  };
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string name = std::string("server.wire_overhead_us.") + kClassNames[c];
    metrics.push_back({name, layer(name), "us",
                       std::string(kClassNames[c]) + "_p50_ms " + wire});
  }
  metrics.push_back({"server.admission_wait_us", layer("server.admission_wait_us"), "us",
                     "every p50 " + wire});
  metrics.push_back({"wire.generator_late_p50_ms", Median(generator_late_ms_), "ms",
                     "ingest_p50_ms " + wire + " (how late the writer ran)"});
  metrics.push_back({"wire.generator_late_max_ms",
                     generator_late_ms_.empty()
                         ? 0.0
                         : *std::max_element(generator_late_ms_.begin(),
                                             generator_late_ms_.end()),
                     "ms", "ingest_p50_ms " + wire + " (how late the writer ran)"});
  metrics.push_back({"trace.spans_dropped", static_cast<double>(trace_stats_.spans_dropped),
                     "count", "none: spans beyond 32 per trace are lost"});
  metrics.push_back({"trace.traced_ops_s", traced_ops_s_, "ops/s", "none: tracing cost"});
  metrics.push_back({"trace.untraced_ops_s", untraced_ops_s_, "ops/s", "none: tracing cost"});
  metrics.push_back({"trace.overhead_pct",
                     traced_ops_s_ == 0 ? 0.0 : (untraced_ops_s_ / traced_ops_s_ - 1) * 100,
                     "%", "none: tracing cost"});
  return metrics;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    return e2ebench::Fail(
        "usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  e2ebench::WorkloadSpec spec;
  if (!e2ebench::FindWorkload(args.workload, &spec)) {
    return e2ebench::Fail("unknown workload " + args.workload);
  }
  e2ebench::Run run(args, spec);
  return run.Main();
}
