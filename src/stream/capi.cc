/// extern "C" shim behind include/birnn_c.h: opaque handles over
/// serve::LoadedDetector and stream::TableSession, Status -> status-code
/// mapping, and a catch-all so no exception (bad_alloc included) ever
/// crosses the C boundary.

#include "birnn_c.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/bundle.h"
#include "stream/capi_internal.h"
#include "stream/session.h"
#include "util/status.h"

using birnn::capi::Fail;
using birnn::capi::FromStatus;
using birnn::capi::Guarded;

extern "C" {

const char* birnn_last_error(void) {
  return birnn::capi::g_last_error.c_str();
}

birnn_status birnn_detector_load(const char* bundle_dir,
                                 birnn_detector** out) {
  return Guarded([&]() -> birnn_status {
    if (out == nullptr) return Fail(BIRNN_INVALID_ARGUMENT, "out is NULL");
    *out = nullptr;
    if (bundle_dir == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "bundle_dir is NULL");
    }
    auto loaded = birnn::serve::LoadDetectorBundle(bundle_dir);
    if (!loaded.ok()) return FromStatus(loaded.status());
    auto* handle = new birnn_detector;
    handle->impl = std::make_shared<const birnn::serve::LoadedDetector>(
        std::move(*loaded));
    *out = handle;
    return BIRNN_OK;
  });
}

void birnn_detector_free(birnn_detector* detector) { delete detector; }

int32_t birnn_detector_n_attrs(const birnn_detector* detector) {
  if (detector == nullptr || detector->impl == nullptr) return -1;
  return detector->impl->n_attrs();
}

int32_t birnn_detector_stream_capable(const birnn_detector* detector) {
  return detector == nullptr || detector->impl == nullptr ? 0 : 1;
}

birnn_status birnn_session_create(const birnn_detector* detector,
                                  birnn_session** out) {
  return Guarded([&]() -> birnn_status {
    if (out == nullptr) return Fail(BIRNN_INVALID_ARGUMENT, "out is NULL");
    *out = nullptr;
    if (detector == nullptr || detector->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "detector is NULL");
    }
    auto session = birnn::stream::TableSession::Create(detector->impl);
    if (!session.ok()) return FromStatus(session.status());
    auto* handle = new birnn_session;
    handle->impl = std::move(*session);
    *out = handle;
    return BIRNN_OK;
  });
}

void birnn_session_free(birnn_session* session) { delete session; }

birnn_status birnn_session_insert(birnn_session* session, int64_t row_id,
                                  const char* const* values,
                                  int32_t n_values) {
  return Guarded([&]() -> birnn_status {
    if (session == nullptr || session->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "session is NULL");
    }
    if (values == nullptr && n_values > 0) {
      return Fail(BIRNN_INVALID_ARGUMENT, "values is NULL");
    }
    std::vector<std::string> tuple;
    tuple.reserve(static_cast<size_t>(n_values > 0 ? n_values : 0));
    for (int32_t i = 0; i < n_values; ++i) {
      if (values[i] == nullptr) {
        return Fail(BIRNN_INVALID_ARGUMENT,
                    "values[" + std::to_string(i) + "] is NULL");
      }
      tuple.emplace_back(values[i]);
    }
    return FromStatus(session->impl->Insert(row_id, std::move(tuple)));
  });
}

birnn_status birnn_session_update(birnn_session* session, int64_t row_id,
                                  int32_t attr, const char* value) {
  return Guarded([&]() -> birnn_status {
    if (session == nullptr || session->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "session is NULL");
    }
    if (value == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "value is NULL");
    }
    return FromStatus(
        session->impl->Update(row_id, attr, std::string(value)));
  });
}

birnn_status birnn_session_delete_row(birnn_session* session,
                                      int64_t row_id) {
  return Guarded([&]() -> birnn_status {
    if (session == nullptr || session->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "session is NULL");
    }
    return FromStatus(session->impl->Delete(row_id));
  });
}

birnn_status birnn_session_verdict(const birnn_session* session,
                                   int64_t row_id, int32_t attr,
                                   birnn_verdict* out) {
  return Guarded([&]() -> birnn_status {
    if (session == nullptr || session->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "session is NULL");
    }
    if (out == nullptr) return Fail(BIRNN_INVALID_ARGUMENT, "out is NULL");
    auto verdict = session->impl->GetVerdict(row_id, attr);
    if (!verdict.ok()) return FromStatus(verdict.status());
    out->is_error = verdict->is_error ? 1 : 0;
    out->p_error = verdict->p_error;
    out->version = verdict->version;
    return BIRNN_OK;
  });
}

int64_t birnn_session_num_rows(const birnn_session* session) {
  if (session == nullptr || session->impl == nullptr) return -1;
  return session->impl->stats().rows;
}

int64_t birnn_session_drift_alarms(const birnn_session* session) {
  if (session == nullptr || session->impl == nullptr) return -1;
  return session->impl->stats().drift_alarms;
}

int64_t birnn_session_reset_drift_alarms(birnn_session* session) {
  if (session == nullptr || session->impl == nullptr) return -1;
  return session->impl->ResetDriftAlarms();
}

int64_t birnn_session_reservoir_rows(const birnn_session* session) {
  if (session == nullptr || session->impl == nullptr) return -1;
  return session->impl->stats().reservoir_rows;
}

}  // extern "C"
