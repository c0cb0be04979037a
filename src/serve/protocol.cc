#include "serve/protocol.h"

#include <cmath>
#include <cstdio>

#include "obs/registry.h"
#include "serve/json.h"

namespace birnn::serve {

StatusOr<Request> ParseRequest(const std::string& line) {
  BIRNN_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  request.id = doc.GetString("id");
  request.op = doc.GetString("op", "detect");
  request.model = doc.GetString("model");
  request.dir = doc.GetString("dir");
  if (request.op != "detect" && request.op != "ping" &&
      request.op != "models" && request.op != "stats" &&
      request.op != "quit" && request.op != "reload" &&
      request.op != "rollback" && request.op != "delta" &&
      request.op != "adapt") {
    return Status::InvalidArgument("unknown op: " + request.op);
  }
  if (request.op == "adapt") {
    const auto parse_labels = [&doc](const char* key,
                                     std::vector<AdaptLabel>* out,
                                     bool* present) -> Status {
      const JsonValue* labels = doc.Find(key);
      if (labels == nullptr) return Status::OK();
      if (present != nullptr) *present = true;
      if (!labels->is_array()) {
        return Status::InvalidArgument(std::string("\"") + key +
                                       "\" must be an array");
      }
      out->reserve(labels->items().size());
      for (const JsonValue& item : labels->items()) {
        if (!item.is_object()) {
          return Status::InvalidArgument("each label must be a JSON object");
        }
        AdaptLabel label;
        const JsonValue* row = item.Find("row");
        if (row == nullptr || !row->is_number() ||
            row->as_number() != std::floor(row->as_number())) {
          return Status::InvalidArgument("label needs an integer \"row\"");
        }
        label.row_id = static_cast<int64_t>(row->as_number());
        const JsonValue* attr = item.Find("attr");
        if (attr == nullptr || !attr->is_number()) {
          return Status::InvalidArgument("label needs a numeric \"attr\"");
        }
        const double idx = attr->as_number();
        if (idx != std::floor(idx) || idx < 0 || idx > 1e6) {
          return Status::InvalidArgument(
              "label \"attr\" index out of range");
        }
        label.attr = static_cast<int>(idx);
        const JsonValue* value = item.Find("label");
        if (value == nullptr || !value->is_number() ||
            (value->as_number() != 0 && value->as_number() != 1)) {
          return Status::InvalidArgument("label needs a 0/1 \"label\"");
        }
        label.label = static_cast<int>(value->as_number());
        out->push_back(label);
      }
      return Status::OK();
    };
    BIRNN_RETURN_IF_ERROR(
        parse_labels("labels", &request.labels, nullptr));
    BIRNN_RETURN_IF_ERROR(parse_labels("gate_labels", &request.gate_labels,
                                       &request.has_gate_labels));
    const JsonValue* bn_only = doc.Find("bn_only");
    if (bn_only != nullptr) {
      if (!bn_only->is_bool()) {
        return Status::InvalidArgument("\"bn_only\" must be a boolean");
      }
      request.adapt_bn_only = bn_only->as_bool() ? 1 : 0;
    }
    return request;
  }
  if (request.op == "delta") {
    const JsonValue* deltas = doc.Find("deltas");
    if (deltas == nullptr || !deltas->is_array()) {
      return Status::InvalidArgument(
          "delta request needs a \"deltas\" array");
    }
    request.deltas.reserve(deltas->items().size());
    for (const JsonValue& item : deltas->items()) {
      if (!item.is_object()) {
        return Status::InvalidArgument("each delta must be a JSON object");
      }
      stream::Delta delta;
      const std::string kind = item.GetString("kind");
      if (kind == "insert") {
        delta.kind = stream::DeltaKind::kInsert;
      } else if (kind == "update") {
        delta.kind = stream::DeltaKind::kUpdate;
      } else if (kind == "delete") {
        delta.kind = stream::DeltaKind::kDelete;
      } else {
        return Status::InvalidArgument(
            "delta \"kind\" must be insert, update or delete");
      }
      const JsonValue* row = item.Find("row");
      if (row == nullptr || !row->is_number() ||
          row->as_number() != std::floor(row->as_number())) {
        return Status::InvalidArgument("delta needs an integer \"row\"");
      }
      delta.row_id = static_cast<int64_t>(row->as_number());
      if (delta.kind == stream::DeltaKind::kInsert) {
        const JsonValue* values = item.Find("values");
        if (values == nullptr || !values->is_array()) {
          return Status::InvalidArgument(
              "insert delta needs a \"values\" array");
        }
        delta.values.reserve(values->items().size());
        for (const JsonValue& v : values->items()) {
          if (!v.is_string()) {
            return Status::InvalidArgument(
                "insert delta values must be strings");
          }
          delta.values.push_back(v.as_string());
        }
      } else if (delta.kind == stream::DeltaKind::kUpdate) {
        const JsonValue* attr = item.Find("attr");
        if (attr == nullptr || !attr->is_number()) {
          // CDC feeds address columns positionally, so delta attrs are
          // numeric only (unlike detect cells, which also take names).
          return Status::InvalidArgument(
              "update delta needs a numeric \"attr\"");
        }
        const double idx = attr->as_number();
        if (idx != std::floor(idx) || idx < 0 || idx > 1e6) {
          return Status::InvalidArgument(
              "update delta \"attr\" index out of range");
        }
        delta.attr = static_cast<int>(idx);
        const JsonValue* value = item.Find("value");
        if (value == nullptr || !value->is_string()) {
          return Status::InvalidArgument(
              "update delta needs a string \"value\"");
        }
        delta.value = value->as_string();
      }
      request.deltas.push_back(std::move(delta));
    }
    return request;
  }
  if (request.op != "detect") return request;

  const JsonValue* cells = doc.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("detect request needs a \"cells\" array");
  }
  request.cells.reserve(cells->items().size());
  for (const JsonValue& item : cells->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("each cell must be a JSON object");
    }
    CellQuery cell;
    const JsonValue* attr = item.Find("attr");
    if (attr == nullptr) attr = item.Find("attr_name");
    if (attr == nullptr) {
      return Status::InvalidArgument("cell is missing \"attr\"");
    }
    if (attr->is_number()) {
      const double idx = attr->as_number();
      if (idx != std::floor(idx) || idx < 0 || idx > 1e6) {
        return Status::InvalidArgument("cell \"attr\" index out of range");
      }
      cell.attr = static_cast<int>(idx);
    } else if (attr->is_string()) {
      cell.attr_name = attr->as_string();
    } else {
      return Status::InvalidArgument(
          "cell \"attr\" must be a name or an index");
    }
    const JsonValue* value = item.Find("value");
    if (value == nullptr || !value->is_string()) {
      return Status::InvalidArgument("cell needs a string \"value\"");
    }
    cell.value = value->as_string();
    request.cells.push_back(std::move(cell));
  }
  return request;
}

std::string StatusCodeToProtocolString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kOverloaded: return "OVERLOADED";
    default: return "UNKNOWN";
  }
}

namespace {

// Opens a response object and writes the echoed id + status. The id is
// rendered as JSON null when the request carried none (or never parsed).
void OpenResponse(const std::string& id, const std::string& status,
                  std::string* out) {
  out->append("{\"id\":");
  if (id.empty()) {
    out->append("null");
  } else {
    AppendJsonString(id, out);
  }
  out->append(",\"status\":");
  AppendJsonString(status, out);
}

// Full registry snapshot: {"counters":{...},"gauges":{...},"histograms":
// {name:{count,sum,p50,p95,p99,max}}}. Doubles use %.9g (compact, enough
// digits for latencies); field names are the raw metric paths.
void AppendRegistrySnapshot(std::string* out) {
  const auto fmt = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  const std::vector<obs::MetricSnapshot> snapshot =
      obs::Registry::Get().Snapshot();
  out->append("{\"counters\":{");
  bool first = true;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kCounter) continue;
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(m.name, out);
    out->push_back(':');
    out->append(std::to_string(m.counter));
  }
  out->append("},\"gauges\":{");
  first = true;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kGauge) continue;
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(m.name, out);
    out->push_back(':');
    out->append(fmt(m.gauge));
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kHistogram) continue;
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(m.name, out);
    out->append(":{\"count\":");
    out->append(std::to_string(m.histogram.count));
    out->append(",\"sum\":");
    out->append(fmt(m.histogram.sum));
    out->append(",\"p50\":");
    out->append(fmt(m.histogram.Quantile(0.5)));
    out->append(",\"p95\":");
    out->append(fmt(m.histogram.Quantile(0.95)));
    out->append(",\"p99\":");
    out->append(fmt(m.histogram.Quantile(0.99)));
    out->append(",\"max\":");
    out->append(fmt(m.histogram.max));
    out->push_back('}');
  }
  out->append("}}");
}

}  // namespace

std::string OkDetectResponse(const std::string& id,
                             const std::vector<CellVerdict>& verdicts) {
  std::string out;
  out.reserve(64 + verdicts.size() * 40);
  OpenResponse(id, "OK", &out);
  out.append(",\"results\":[");
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("{\"p_error\":");
    out.append(JsonFloat(verdicts[i].p_error));
    out.append(",\"error\":");
    out.append(verdicts[i].is_error ? "true" : "false");
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string ErrorResponse(const std::string& id, const Status& status) {
  std::string out;
  OpenResponse(id, StatusCodeToProtocolString(status.code()), &out);
  out.append(",\"message\":");
  AppendJsonString(status.message(), &out);
  out.push_back('}');
  return out;
}

std::string PongResponse(const std::string& id) {
  std::string out;
  OpenResponse(id, "OK", &out);
  out.append(",\"pong\":true}");
  return out;
}

std::string ModelsResponse(const std::string& id,
                           const std::vector<std::string>& names) {
  std::string out;
  OpenResponse(id, "OK", &out);
  out.append(",\"models\":[");
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(names[i], &out);
  }
  out.append("]}");
  return out;
}

std::string StatsResponse(const std::string& id, const std::string& model,
                          const BatcherStats& stats, int64_t generation,
                          const stream::SessionStats* stream_stats,
                          const AdaptLineage* adapt) {
  std::string out;
  OpenResponse(id, "OK", &out);
  out.append(",\"model\":");
  AppendJsonString(model, &out);
  char buf[960];
  std::snprintf(buf, sizeof(buf),
                ",\"generation\":%lld,"
                "\"requests\":%lld,\"cells\":%lld,\"shed_requests\":%lld,"
                "\"shed_cells\":%lld,\"rejected_requests\":%lld,"
                "\"batches\":%lld,\"max_batch_cells\":%lld,"
                "\"batch_seconds\":%.6f,"
                "\"memo_hits\":%lld,\"memo_entries\":%lld,"
                "\"memo_bytes\":%lld,\"memo_bloom_fp\":%lld,"
                "\"memo_evictions\":%lld",
                static_cast<long long>(generation),
                static_cast<long long>(stats.requests),
                static_cast<long long>(stats.cells),
                static_cast<long long>(stats.shed_requests),
                static_cast<long long>(stats.shed_cells),
                static_cast<long long>(stats.rejected_requests),
                static_cast<long long>(stats.batches),
                static_cast<long long>(stats.max_batch_cells),
                stats.batch_seconds,
                static_cast<long long>(stats.memo_hits),
                static_cast<long long>(stats.memo_entries),
                static_cast<long long>(stats.memo_bytes),
                static_cast<long long>(stats.memo_bloom_fp),
                static_cast<long long>(stats.memo_evictions));
  out.append(buf);
  if (stream_stats != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  ",\"deltas\":%lld,\"delta_inserts\":%lld,"
                  "\"delta_updates\":%lld,\"delta_deletes\":%lld,"
                  "\"delta_cells_scored\":%lld,\"delta_memo_hits\":%lld,"
                  "\"stream_rows\":%lld,\"drift_alarms\":%lld,"
                  "\"drift_resets\":%lld,\"reservoir_rows\":%lld,"
                  "\"stream_version\":%llu",
                  static_cast<long long>(stream_stats->deltas),
                  static_cast<long long>(stream_stats->inserts),
                  static_cast<long long>(stream_stats->updates),
                  static_cast<long long>(stream_stats->deletes),
                  static_cast<long long>(stream_stats->cells_scored),
                  static_cast<long long>(stream_stats->memo_hits),
                  static_cast<long long>(stream_stats->rows),
                  static_cast<long long>(stream_stats->drift_alarms),
                  static_cast<long long>(stream_stats->drift_resets),
                  static_cast<long long>(stream_stats->reservoir_rows),
                  static_cast<unsigned long long>(stream_stats->version));
    out.append(buf);
  }
  if (adapt != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  ",\"adapt_attempts\":%lld,\"adapt_promotions\":%lld,"
                  "\"adapt_rejections\":%lld",
                  static_cast<long long>(adapt->attempts),
                  static_cast<long long>(adapt->promotions),
                  static_cast<long long>(adapt->rejections));
    out.append(buf);
  }
  // The batcher-level fields above stay for back-compat; the registry block
  // adds the process-wide view (every layer's counters/gauges/histograms).
  out.append(",\"registry\":");
  AppendRegistrySnapshot(&out);
  out.push_back('}');
  return out;
}

std::string DeltaResponse(const std::string& id, int64_t applied,
                          const std::vector<DeltaCellVerdict>& verdicts,
                          int64_t drift_alarms) {
  std::string out;
  out.reserve(96 + verdicts.size() * 72);
  OpenResponse(id, "OK", &out);
  out.append(",\"applied\":");
  out.append(std::to_string(applied));
  out.append(",\"verdicts\":[");
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) out.push_back(',');
    const DeltaCellVerdict& v = verdicts[i];
    out.append("{\"row\":");
    out.append(std::to_string(v.row_id));
    out.append(",\"attr\":");
    out.append(std::to_string(v.attr));
    out.append(",\"p_error\":");
    out.append(JsonFloat(v.verdict.p_error));
    out.append(",\"error\":");
    out.append(v.verdict.is_error ? "true" : "false");
    out.append(",\"version\":");
    out.append(std::to_string(v.verdict.version));
    out.push_back('}');
  }
  out.append("],\"drift_alarms\":");
  out.append(std::to_string(drift_alarms));
  out.push_back('}');
  return out;
}

std::string ReloadResponse(const std::string& id, const std::string& model,
                           int64_t generation) {
  std::string out;
  OpenResponse(id, "OK", &out);
  out.append(",\"model\":");
  AppendJsonString(model, &out);
  out.append(",\"generation\":");
  out.append(std::to_string(generation));
  out.push_back('}');
  return out;
}

std::string AdaptResponse(const std::string& id, const std::string& model,
                          const adapt::AdaptReport& report,
                          int64_t generation) {
  std::string out;
  OpenResponse(id, "OK", &out);
  out.append(",\"model\":");
  AppendJsonString(model, &out);
  out.append(",\"outcome\":");
  AppendJsonString(adapt::AdaptOutcomeName(report.outcome), &out);
  out.append(",\"promoted\":");
  out.append(report.outcome == adapt::AdaptOutcome::kPromoted ? "true"
                                                              : "false");
  out.append(",\"generation\":");
  out.append(std::to_string(generation));
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"incumbent_f1\":%.9g,\"candidate_f1\":%.9g",
                report.incumbent_f1, report.candidate_f1);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                ",\"train_cells\":%lld,\"validation_cells\":%lld,"
                "\"reservoir_rows\":%lld",
                static_cast<long long>(report.train_cells),
                static_cast<long long>(report.validation_cells),
                static_cast<long long>(report.reservoir_rows));
  out.append(buf);
  out.append(",\"deterministic_eval\":");
  out.append(report.deterministic_eval ? "true" : "false");
  out.append(",\"reason\":");
  AppendJsonString(report.reason, &out);
  out.push_back('}');
  return out;
}

}  // namespace birnn::serve
