/* Embedding the detector in a plain-C host through include/birnn_c.h —
 * the shape a database UDF or a C service would use. No C++ anywhere in
 * this translation unit; it compiles as C99.
 *
 * The API surface is deliberately tiny: load a bundle directory into an
 * opaque detector handle, open a streaming session on it, push
 * insert/update/delete deltas per tuple, and read (is_error, p_error,
 * version) verdicts back. Every call returns a birnn_status; details of
 * the last failure on this thread come from birnn_last_error(). No
 * exceptions ever cross the boundary.
 *
 * Build & run:  ./build/examples/embed_capi <bundle-dir>
 *
 * Create a bundle first, e.g. by running the serve_detector example
 * (which writes hospital.bundle/). */

#include <stdint.h>
#include <stdio.h>

#include "birnn_c.h"

int main(int argc, char** argv) {
  birnn_detector* detector = NULL;
  birnn_session* session = NULL;
  birnn_verdict verdict;
  const char* values[64];
  int32_t n_attrs;
  int32_t a;

  if (argc != 2) {
    fprintf(stderr, "usage: %s <bundle-dir>\n", argv[0]);
    return 2;
  }

  if (birnn_detector_load(argv[1], &detector) != BIRNN_OK) {
    fprintf(stderr, "load failed: %s\n", birnn_last_error());
    return 1;
  }
  n_attrs = birnn_detector_n_attrs(detector);
  printf("loaded %s: %d attributes, stream-capable: %s\n", argv[1], n_attrs,
         birnn_detector_stream_capable(detector) ? "yes" : "no");

  if (birnn_session_create(detector, &session) != BIRNN_OK) {
    fprintf(stderr, "session create failed: %s\n", birnn_last_error());
    birnn_detector_free(detector);
    return 1;
  }
  /* The session holds its own reference; the handle can go early. */
  birnn_detector_free(detector);

  /* One tuple arrives (a UDF would pull these from the row buffer). */
  if (n_attrs > 64) n_attrs = 64;
  for (a = 0; a < n_attrs; ++a) values[a] = "example value";
  if (birnn_session_insert(session, 1, values, n_attrs) != BIRNN_OK) {
    fprintf(stderr, "insert failed: %s\n", birnn_last_error());
    birnn_session_free(session);
    return 1;
  }
  for (a = 0; a < n_attrs; ++a) {
    if (birnn_session_verdict(session, 1, a, &verdict) == BIRNN_OK) {
      printf("  cell(1,%d): p_error=%.3f error=%d version=%llu\n", a,
             (double)verdict.p_error, (int)verdict.is_error,
             (unsigned long long)verdict.version);
    }
  }

  /* A cell changes; only that cell is re-scored. */
  if (birnn_session_update(session, 1, 0, "changed!") == BIRNN_OK &&
      birnn_session_verdict(session, 1, 0, &verdict) == BIRNN_OK) {
    printf("  after update: p_error=%.3f version=%llu\n",
           (double)verdict.p_error, (unsigned long long)verdict.version);
  }

  /* The tuple goes away. */
  (void)birnn_session_delete_row(session, 1);
  printf("rows live: %lld, drift alarms: %lld\n",
         (long long)birnn_session_num_rows(session),
         (long long)birnn_session_drift_alarms(session));

  birnn_session_free(session);
  return 0;
}
