#include "surface.h"

#include <cstdio>

#include "ingest/json_parser.h"

namespace e2ebench {

namespace {

using impliance::Status;
namespace model = impliance::model;

Cell CellOf(const model::Value& value) {
  Cell cell;
  switch (value.type()) {
    case model::ValueType::kInt:
    case model::ValueType::kDouble:
    case model::ValueType::kTimestamp:
      cell.is_number = true;
      cell.number = value.AsDouble();
      break;
    default:
      cell.text = value.AsString();
  }
  return cell;
}

// Full precision, unlike Value::AsString's %g, so in-process sums can be
// checked tightly.
std::string Render(const model::Value& value) {
  if (value.type() == model::ValueType::kDouble) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value.AsDouble());
    return buf;
  }
  if (value.type() == model::ValueType::kTimestamp) {
    return std::to_string(value.timestamp_value());
  }
  return value.AsString();
}

void LeavesOf(const model::Item& root, GetAnswer* out) {
  out->clear();
  for (const model::Item& child : root.children) {
    if (child.is_leaf()) (*out)[child.name] = CellOf(child.value);
  }
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    cells.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return cells;
    start = tab + 1;
  }
}

}  // namespace

// ------------------------------------------------------------ in-process

Status InProcessSurface::Get(uint64_t id, GetAnswer* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(model::Document doc, impliance_->Get(id));
  LeavesOf(doc.root, out);
  return Status::OK();
}

Status InProcessSurface::Sql(const std::string& sql, SqlAnswer* out) {
  impliance::core::QueryHealth health;
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<impliance::exec::Row> rows,
                             impliance_->Sql(sql, &health));
  out->health = Health{health.degraded, health.missing_partitions};
  out->rows.clear();
  for (const impliance::exec::Row& row : rows) {
    std::vector<std::string> cells;
    for (const model::Value& value : row) cells.push_back(Render(value));
    out->rows.push_back(std::move(cells));
  }
  return Status::OK();
}

Status InProcessSurface::Search(const std::string& keywords, size_t k,
                                SearchAnswer* out) {
  impliance::core::QueryHealth health;
  out->hits.clear();
  for (const impliance::core::SearchHit& hit :
       impliance_->Search(keywords, k, &health)) {
    out->hits.emplace_back(hit.doc, hit.score);
  }
  out->health = Health{health.degraded, health.missing_partitions};
  return Status::OK();
}

Status InProcessSurface::Facet(const FacetSpec& spec, FacetAnswer* out) {
  impliance::query::FacetedQuery query;
  query.kind = spec.kind;
  query.facet_paths = {"/doc/" + spec.facet_field};
  query.aggregates = {{"/doc/" + spec.sum_field, "sum"}};
  query.top_k = 10;
  impliance::core::QueryHealth health;
  impliance::query::FacetedResult result = impliance_->Faceted(query, &health);
  out->counts.clear();
  for (const auto& [path, counts] : result.facets) {
    for (const auto& facet : counts) {
      out->counts[facet.value.AsString()] += facet.count;
    }
  }
  out->total_matches = result.total_matches;
  const auto sum = result.aggregate_values.find("sum(/doc/" + spec.sum_field +
                                                ")");
  out->has_sum = sum != result.aggregate_values.end();
  out->sum = out->has_sum ? sum->second : 0.0;
  out->health = Health{health.degraded, health.missing_partitions};
  if (!out->has_sum) return Status::Internal("facet: no sum aggregate");
  return Status::OK();
}

Status InProcessSurface::Ingest(const std::string& kind, const std::string& raw,
                                uint64_t* id) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<model::DocId> ids,
                             impliance_->InfuseContent(kind, raw));
  if (ids.size() != 1) return Status::Internal("ingest: expected one id");
  *id = ids[0];
  return Status::OK();
}

// ------------------------------------------------------------------ wire

Status WireSurface::Get(uint64_t id, GetAnswer* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::string json, client_->Get(id));
  IMPLIANCE_ASSIGN_OR_RETURN(model::Item root,
                             impliance::ingest::ParseJsonToItem(json));
  const model::Item* body = root.FindChild("doc");
  if (body == nullptr) return Status::Internal("get: JSON without a body");
  LeavesOf(*body, out);
  return Status::OK();
}

Status WireSurface::Sql(const std::string& sql, SqlAnswer* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(impliance::server::ImplianceClient::SqlAnswer answer,
                             client_->SqlChecked(sql));
  out->health = Health{answer.degraded, answer.missing_partitions};
  out->rows.clear();
  for (const std::string& line : answer.rows) out->rows.push_back(SplitTabs(line));
  return Status::OK();
}

Status WireSurface::Search(const std::string& keywords, size_t k,
                           SearchAnswer* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(
      impliance::server::ImplianceClient::SearchAnswer answer,
      client_->SearchChecked(keywords, k));
  out->hits.clear();
  for (const auto& hit : answer.hits) out->hits.emplace_back(hit.doc, hit.score);
  out->health = Health{answer.degraded, answer.missing_partitions};
  return Status::OK();
}

Status WireSurface::Facet(const FacetSpec& spec, FacetAnswer* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(
      impliance::server::wire::Response response,
      client_->Facet("", spec.kind, {"/doc/" + spec.facet_field}, 10));
  out->counts.clear();
  out->total_matches = 0;
  for (const auto& [name, value] : response.counters) {
    if (name == "total_matches") out->total_matches = value;
  }
  size_t start = 0;
  while (start < response.body.size()) {
    size_t end = response.body.find('\n', start);
    if (end == std::string::npos) end = response.body.size();
    const std::vector<std::string> cells =
        SplitTabs(response.body.substr(start, end - start));
    if (cells.size() != 3) return Status::Internal("facet: malformed line");
    out->counts[cells[1]] += std::stoull(cells[2]);
    start = end + 1;
  }
  out->has_sum = false;
  out->health = Health{response.degraded, response.missing_partitions};
  return Status::OK();
}

Status WireSurface::Ingest(const std::string& kind, const std::string& raw,
                           uint64_t* id) {
  IMPLIANCE_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                             client_->Ingest(kind, raw));
  if (ids.size() != 1) return Status::Internal("ingest: expected one id");
  *id = ids[0];
  return Status::OK();
}

}  // namespace e2ebench
