/* birnn_c.h — embeddable C API for streaming error detection.
 *
 * A minimal, UDF-callable surface over the birnn detector: load a saved
 * bundle once, open per-table streaming sessions against it, feed
 * insert/update/delete deltas and read back per-cell verdicts — from any
 * host that can call C (database UDFs, FFI bindings, plain C programs).
 *
 * Conventions:
 *   - Opaque handles; every object is created by one birnn_* function and
 *     released by its matching *_free (NULL-safe, like free()).
 *   - Every fallible call returns a birnn_status code. No exceptions ever
 *     cross this boundary; internal C++ errors are caught and mapped.
 *   - On failure, birnn_last_error() returns a human-readable message for
 *     the calling thread's most recent failing call.
 *   - A session is thread-safe; a detector is immutable after load and may
 *     back any number of concurrent sessions.
 */

#ifndef BIRNN_C_H_
#define BIRNN_C_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Mirrors birnn::StatusCode (util/status.h). Values are ABI: they are
 * frozen once released and new codes are only appended. */
typedef enum birnn_status {
  BIRNN_OK = 0,
  BIRNN_INVALID_ARGUMENT = 1,
  BIRNN_NOT_FOUND = 2,
  BIRNN_OUT_OF_RANGE = 3,
  BIRNN_FAILED_PRECONDITION = 4,
  BIRNN_INTERNAL = 5,
  BIRNN_UNIMPLEMENTED = 6,
  BIRNN_IO_ERROR = 7,
  BIRNN_OVERLOADED = 8,
  /* Reserved: no call returns it. Every bundle now carries the frozen
   * column statistics streaming needs. Kept so the values stay stable. */
  BIRNN_UNSUPPORTED_BUNDLE = 9
} birnn_status;

/* A trained detector reconstructed from a saved bundle directory. */
typedef struct birnn_detector birnn_detector;

/* A CDC streaming session over one detector (see stream/session.h). */
typedef struct birnn_session birnn_session;

/* The detector's answer for one cell of a materialized tuple. */
typedef struct birnn_verdict {
  int32_t is_error;  /* 1 = the cell is predicted erroneous. */
  float p_error;     /* raw error probability in [0, 1]. */
  uint64_t version;  /* delta sequence number that produced the verdict. */
} birnn_verdict;

/* Message for the calling thread's most recent failing birnn_* call, or ""
 * if none failed yet. The pointer stays valid until the same thread's next
 * failing call; never returns NULL. */
const char* birnn_last_error(void);

/* Loads a detector bundle (the manifest.txt/weights.ckpt directory written
 * by the save tooling) into *out. */
birnn_status birnn_detector_load(const char* bundle_dir,
                                 birnn_detector** out);
void birnn_detector_free(birnn_detector* detector);

/* Number of attributes (columns) of the table the detector was trained
 * on; -1 on a NULL detector. */
int32_t birnn_detector_n_attrs(const birnn_detector* detector);

/* 1 for any non-NULL detector (every bundle can stream); 0 on NULL. Kept
 * for ABI stability. */
int32_t birnn_detector_stream_capable(const birnn_detector* detector);

/* Opens a streaming session against a loaded detector. The detector may
 * be freed while sessions are live; each session keeps it alive. */
birnn_status birnn_session_create(const birnn_detector* detector,
                                  birnn_session** out);
void birnn_session_free(birnn_session* session);

/* Inserts a full tuple: values[0..n_values) are the raw cell strings, one
 * per attribute (n_values must equal birnn_detector_n_attrs). Every cell
 * of the tuple is scored. Fails if row_id already exists. */
birnn_status birnn_session_insert(birnn_session* session, int64_t row_id,
                                  const char* const* values,
                                  int32_t n_values);

/* Updates one cell of an existing tuple; only that cell is re-scored. */
birnn_status birnn_session_update(birnn_session* session, int64_t row_id,
                                  int32_t attr, const char* value);

/* Removes a tuple (and its verdicts). No cell is scored. */
birnn_status birnn_session_delete_row(birnn_session* session,
                                      int64_t row_id);

/* Latest verdict for a materialized cell. */
birnn_status birnn_session_verdict(const birnn_session* session,
                                   int64_t row_id, int32_t attr,
                                   birnn_verdict* out);

/* Live materialized tuple count; -1 on a NULL session. */
int64_t birnn_session_num_rows(const birnn_session* session);

/* Drift alarms latched so far (live ingest statistics diverging from the
 * bundle's frozen train-time baselines); -1 on a NULL session. */
int64_t birnn_session_drift_alarms(const birnn_session* session);

/* Re-arms drift detection: clears every latched alarm and restarts the
 * live statistics windows, so the stream is judged fresh against the
 * serving bundle's baselines (call after swapping in an adapted
 * detector). Returns the number of alarms cleared; -1 on NULL. */
int64_t birnn_session_reset_drift_alarms(birnn_session* session);

/* Tuples currently held in the session's adaptation reservoir (the most
 * recently ingested rows, the fine-tune sample source); -1 on NULL. */
int64_t birnn_session_reservoir_rows(const birnn_session* session);

/* ------------------------------------------------------------------------
 * Drift-triggered adaptation (adapt/controller.h): fine-tune the detector
 * on the session's reservoir and promote the candidate only if it
 * beats-or-matches the incumbent on a held-back validation slice.
 * ---------------------------------------------------------------------- */

typedef struct birnn_adapt_options {
  /* Fewest reservoir tuples worth fine-tuning on; below it the run is
   * skipped. */
  int64_t min_reservoir_rows;
  /* Fraction of reservoir tuples held back as the gate's validation
   * slice (split by tuple, deterministically). */
  double validation_fraction;
  /* Replication factor for training cells of drifted attributes. */
  int32_t drift_boost;
  /* Warm fine-tune schedule (short, reduced LR). */
  int32_t fine_tune_epochs;
  float learning_rate;
  /* 1 = only recalibrate batch-norm statistics, no gradient steps. */
  int32_t bn_only;
  /* Promotion gate: candidate F1 must be >= incumbent F1 - f1_band. */
  double f1_band;
  uint64_t seed;
  /* Fine-tune worker threads (0 = run on the calling thread; default 3,
   * capped at the hardware's threads minus one). The promoted weights are
   * bit-identical for every value. */
  int32_t train_threads;
  /* Optional directory to save a promoted candidate as a full bundle
   * (fp32 weights, frozen statistics); NULL = don't save. */
  const char* candidate_dir;
} birnn_adapt_options;

/* Fills *options with the library defaults (always call this first so new
 * fields appended later keep working). */
void birnn_adapt_options_init(birnn_adapt_options* options);

/* Supervision callback: return 0 (clean) or 1 (error) for a reservoir
 * cell, or a negative value to let the library fall back to the cell's
 * own stored verdict (self-training). */
typedef int32_t (*birnn_adapt_label_fn)(void* ctx, int64_t row_id,
                                        int32_t attr);

/* Values of birnn_adapt_result.outcome. */
typedef enum birnn_adapt_outcome {
  BIRNN_ADAPT_PROMOTED = 0, /* candidate passed the gate. */
  BIRNN_ADAPT_REJECTED = 1, /* gate failed; incumbent untouched. */
  BIRNN_ADAPT_SKIPPED = 2   /* nothing attempted (reservoir too small). */
} birnn_adapt_outcome;

typedef struct birnn_adapt_result {
  int32_t outcome; /* one of birnn_adapt_outcome. */
  double incumbent_f1;
  double candidate_f1;
  int64_t reservoir_rows;
  int64_t train_cells;
  int64_t validation_cells;
  /* 1 when the candidate's validation sweep reproduced bit-exactly (a
   * gate requirement). */
  int32_t deterministic_eval;
} birnn_adapt_result;

/* Runs one adaptation attempt: fine-tunes a copy of `incumbent` on the
 * session's reservoir (labels from the callback, or the stored verdicts
 * when `labels` is NULL / returns negative) and gates it on a held-back
 * validation slice. `gate_labels` (optional) supervises only the gate — a
 * trusted label source that can reject a candidate trained on bad labels.
 * On BIRNN_ADAPT_PROMOTED, *promoted receives a new detector handle (free
 * it like any other; open fresh sessions against it) and the session's
 * drift alarms are reset; otherwise *promoted is NULL. `result` may be
 * NULL if the caller only wants the status. */
birnn_status birnn_adapt_run(const birnn_detector* incumbent,
                             birnn_session* session,
                             const birnn_adapt_options* options,
                             birnn_adapt_label_fn labels, void* labels_ctx,
                             birnn_adapt_label_fn gate_labels,
                             void* gate_labels_ctx,
                             birnn_adapt_result* result,
                             birnn_detector** promoted);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* BIRNN_C_H_ */
