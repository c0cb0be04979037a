#ifndef BIRNN_SERVE_PROTOCOL_H_
#define BIRNN_SERVE_PROTOCOL_H_

#include <string>
#include <vector>

#include "serve/batcher.h"
#include "serve/bundle.h"
#include "stream/session.h"
#include "util/status.h"

namespace birnn::serve {

/// The wire format is one JSON object per line in each direction.
///
/// Request:
///   {"id": "r1", "op": "detect", "model": "beers",
///    "cells": [{"attr": "city", "value": "Chicago"},
///              {"attr": 3, "value": "60614"}]}
///   - "op" defaults to "detect"; other ops: "ping", "models", "stats",
///     "quit" (asks the server to close this connection, no response),
///     "reload" (hot-swap the model from the bundle at "dir"), "rollback"
///     (swap back to the previously-served bundle), "delta" (stream CDC
///     records into the model's table session), "adapt" (fine-tune on the
///     session's reservoir and auto-promote through the reload path).
///   - "model" may be omitted when the server hosts exactly one model.
///   - "attr" is an attribute name (string) or index (number).
///   - "id" is echoed verbatim in the response (any string; optional).
///   - "dir" is the bundle directory for "reload"; ignored otherwise.
///
/// Delta request (op "delta"):
///   {"op": "delta", "model": "beers", "deltas": [
///     {"kind": "insert", "row": 41, "values": ["Pale Ale", "Chicago"]},
///     {"kind": "update", "row": 41, "attr": 1, "value": "Evanston"},
///     {"kind": "delete", "row": 40}]}
///   - "kind" is "insert" (full tuple in "values", one string per
///     attribute), "update" (numeric "attr" + string "value") or "delete".
///   - "attr" is numeric for deltas: CDC feeds address columns by index.
///   - Deltas apply in order; the first failing delta aborts the rest and
///     the response reports the error (earlier deltas stay applied).
///   Response: {"id":..., "status":"OK", "applied":3, "verdicts":[
///     {"row":41, "attr":0, "p_error":0.93, "error":true, "version":7},
///     ...], "drift_alarms":0}
///   with one verdict per re-scored cell (the whole tuple for an insert,
///   one cell for an update, none for a delete).
///
/// Adapt request (op "adapt"; requires a live table session — stream some
/// deltas first so the reservoir has tuples to fine-tune on):
///   {"op": "adapt", "model": "beers",
///    "labels": [{"row": 41, "attr": 0, "label": 1}, ...],
///    "gate_labels": [...], "bn_only": false}
///   - "labels" (optional) supervises the fine-tune sample; cells without
///     an entry fall back to their stored verdicts (self-training).
///   - "gate_labels" (optional) supervises only the held-back validation
///     slice — a trusted label source for the promotion gate; defaults to
///     "labels".
///   - "bn_only" (optional) overrides the server's configured mode:
///     true = batch-norm recalibration only, no gradient steps.
///   Response: {"id":..., "status":"OK", "model":"beers",
///     "outcome":"promoted"|"rejected"|"skipped", "promoted":true,
///     "generation":2, "incumbent_f1":..., "candidate_f1":...,
///     "train_cells":..., "validation_cells":..., "reservoir_rows":...,
///     "deterministic_eval":true, "reason":""}
///   A promoted candidate is saved as a bundle and hot-swapped through the
///   reload path (zero dropped in-flight requests); "generation" is the
///   bundle generation now serving. A rejected candidate leaves serving
///   untouched.
///
/// Response:
///   {"id": "r1", "status": "OK",
///    "results": [{"p_error": 0.93204946, "error": true}, ...]}
///   {"id": "r2", "status": "OVERLOADED", "message": "admission queue full"}
///   - "status" is "OK" or a SCREAMING_SNAKE status code; non-OK responses
///     carry a "message" and no "results". p_error is printed with
///     max_digits10 so the float survives the wire bit-exactly.
/// One supervised cell of an "adapt" request.
struct AdaptLabel {
  int64_t row_id = 0;
  int attr = 0;
  int label = 0;  ///< 0 = clean, 1 = error.
};

struct Request {
  std::string id;
  std::string op = "detect";
  std::string model;
  std::string dir;  ///< bundle directory ("reload" only).
  std::vector<CellQuery> cells;
  std::vector<stream::Delta> deltas;  ///< "delta" only.
  std::vector<AdaptLabel> labels;       ///< "adapt" only (fine-tune).
  std::vector<AdaptLabel> gate_labels;  ///< "adapt" only (gate).
  bool has_gate_labels = false;  ///< "gate_labels" key present.
  int adapt_bn_only = -1;  ///< "adapt" only: -1 server default, else 0/1.
};

/// Parses one request line. A parse failure reports InvalidArgument; the
/// server answers it with a status line carrying a null id.
StatusOr<Request> ParseRequest(const std::string& line);

/// Protocol rendering of a status code: "OK", "OVERLOADED",
/// "INVALID_ARGUMENT", "NOT_FOUND", ...
std::string StatusCodeToProtocolString(StatusCode code);

/// Response lines (no trailing newline; the server appends it).
std::string OkDetectResponse(const std::string& id,
                             const std::vector<CellVerdict>& verdicts);
std::string ErrorResponse(const std::string& id, const Status& status);
std::string PongResponse(const std::string& id);
std::string ModelsResponse(const std::string& id,
                           const std::vector<std::string>& names);
/// Adaptation lineage counters for one served model, mirrored into the
/// `stats` response so operators can watch the promotion loop.
struct AdaptLineage {
  int64_t attempts = 0;
  int64_t promotions = 0;
  int64_t rejections = 0;
};

/// `stream_stats` (optional) appends the model's table-session counters
/// (deltas, re-scored cells, memo hits, drift alarms/resets, reservoir and
/// live rows); `adapt` (optional) appends the adaptation lineage.
std::string StatsResponse(const std::string& id, const std::string& model,
                          const BatcherStats& stats, int64_t generation = 0,
                          const stream::SessionStats* stream_stats = nullptr,
                          const AdaptLineage* adapt = nullptr);

/// One re-scored cell of a delta request.
struct DeltaCellVerdict {
  int64_t row_id = 0;
  int attr = 0;
  stream::CellVerdict verdict;
};

/// Acknowledges an applied delta batch: per-cell verdicts for every
/// re-scored cell plus the session's latched drift-alarm total.
std::string DeltaResponse(const std::string& id, int64_t applied,
                          const std::vector<DeltaCellVerdict>& verdicts,
                          int64_t drift_alarms);
/// Acknowledges a successful "reload" or "rollback": echoes the resolved
/// model name and the bundle generation now being served.
std::string ReloadResponse(const std::string& id, const std::string& model,
                           int64_t generation);

/// Acknowledges an "adapt" attempt. `outcome` is the
/// adapt::AdaptOutcomeName string; `generation` is the bundle generation
/// now serving (bumped by a promotion, unchanged otherwise).
struct AdaptResponseFields {
  std::string outcome;
  bool promoted = false;
  int64_t generation = 0;
  double incumbent_f1 = 0.0;
  double candidate_f1 = 0.0;
  int64_t train_cells = 0;
  int64_t validation_cells = 0;
  int64_t reservoir_rows = 0;
  bool deterministic_eval = false;
  std::string reason;
};
std::string AdaptResponse(const std::string& id, const std::string& model,
                          const AdaptResponseFields& fields);

}  // namespace birnn::serve

#endif  // BIRNN_SERVE_PROTOCOL_H_
