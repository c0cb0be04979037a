#ifndef BIRNN_NN_RECURRENT_H_
#define BIRNN_NN_RECURRENT_H_

#include <string>
#include <vector>

#include "nn/graph.h"
#include "nn/parameter.h"
#include "util/rng.h"
#include "util/status.h"

namespace birnn {
class ThreadPool;
}  // namespace birnn

namespace birnn::nn {

/// Recurrent cell families. The paper (§2) argues for plain tanh RNNs over
/// LSTM/GRU on complexity and training-time grounds; implementing all
/// three makes that claim measurable (bench_paper's cell-type ablation).
enum class CellType {
  kVanilla,  ///< h' = tanh(x Wx + h Wh + b)        — the paper's cell.
  kGru,      ///< gated recurrent unit (Chung et al. 2014).
  kLstm,     ///< long short-term memory (Hochreiter & Schmidhuber 1997).
};

const char* CellTypeName(CellType type);
StatusOr<CellType> ParseCellType(const std::string& name);
/// Gate blocks per cell: the width multiplier of its Wx, Wh and bias.
int GateCount(CellType type);

/// Recurrent state of a batch: hidden vector plus (LSTM only) a cell
/// vector.
struct RecurrentTensors {
  Tensor h;
  Tensor c;  ///< used only by kLstm.
};

/// Reusable pre-activation buffers for `RecurrentCell::StepForward`; keep
/// one per thread and the per-step MatMul outputs stop allocating.
struct StepScratch {
  Tensor z1;  ///< vanilla: fused gates; gru: input gates; lstm: gates.
  Tensor z2;  ///< gru only: recurrent gates.
};

/// The buffers of one recurrent step over `rows` batch rows, each a
/// row-major block (of a state tensor or of one step of a sequence
/// buffer). `z` holds the step's input projection x·Wx, rows x
/// gates*units, and is consumed in place.
struct StepBlocks {
  int rows = 0;
  const float* h_prev = nullptr;
  const float* c_prev = nullptr;  ///< LSTM only.
  float* z = nullptr;
  float* hg = nullptr;     ///< GRU only: receives h_prev·Wh.
  float* h = nullptr;      ///< the new hidden state, rows x units.
  float* c = nullptr;      ///< LSTM only: the new cell state.
  /// Optional (GRU and LSTM): receives the step's activated gates, rows x
  /// gates*units, in the weight layout's block order — what
  /// backpropagation through time reads back.
  float* gates = nullptr;
};

/// One recurrent cell of any family: forward-only step kernels, which
/// inference runs directly and training runs inside StackedBiRecurrent's
/// fused tape node. Weight layout per family:
///   vanilla: wx (in,u), wh (u,u), b (u)
///   gru:     wx (in,3u), wh (u,3u), b (3u)      gates [z | r | h~]
///   lstm:    wx (in,4u), wh (u,4u), b (4u)      gates [i | f | g | o]
/// Input kernels are Glorot-initialized, recurrent kernels orthogonal per
/// gate block, biases zero except the LSTM forget gate (+1, the standard
/// trick).
class RecurrentCell {
 public:
  RecurrentCell(CellType type, std::string name, int input_dim, int units,
                Rng* rng);

  /// Zero-initialized state tensors for a batch.
  RecurrentTensors InitialTensors(int batch) const;

  /// Forward-only step.
  void StepForward(const Tensor& x, const RecurrentTensors& prev,
                   RecurrentTensors* out) const;

  /// Forward-only step with caller-owned pre-activation scratch
  /// (bit-identical to the scratch-free overload).
  void StepForward(const Tensor& x, const RecurrentTensors& prev,
                   RecurrentTensors* out, StepScratch* scratch) const;

  /// One step on raw blocks: the recurrent projection and the gate tail
  /// over an input projection computed elsewhere (StackedBiRecurrent runs
  /// one GEMM over every time step, or gathers the rows of a projection
  /// table). Bit-identical to StepForward on the same input: the kernels
  /// are row-independent and the per-element FP operation sequence is the
  /// same.
  void Step(const StepBlocks& s) const;

  /// The input kernel Wx (in x gates*units): `x · Wx` is the input
  /// projection Step expects in `z`.
  const Tensor& wx() const { return wx_.value; }
  /// The recurrent kernel Wh (units x gates*units).
  const Tensor& wh() const { return wh_.value; }

  std::vector<Parameter*> Params() const;
  CellType type() const { return type_; }
  int units() const { return units_; }
  int input_dim() const { return input_dim_; }
  int gate_count() const;

 private:
  /// The fused GRU / LSTM elementwise gate tails (bias folded in).
  void GruGateTail(const StepBlocks& s) const;
  void LstmGateTail(const StepBlocks& s) const;

  CellType type_;
  int input_dim_;
  int units_;
  mutable Parameter wx_;
  mutable Parameter wh_;
  mutable Parameter b_;
};

/// Backward-chain states over an all-pad prefix. When a sequence ends in
/// pad steps, the backward direction processes those pads FIRST — from the
/// zero initial state, with the identical pad input at every step — so the
/// state after k pad steps is the same for every cell, at every level of
/// the stack. `states[k][l]` is level l's state (one row) after k pad
/// steps; `states[0]` is the zero state. Precomputed once per model by
/// `ComputeBackwardPadPrefix` and used to warm-start length-bucketed
/// batches (`ApplyForwardIds`).
struct PadPrefixTrajectory {
  std::vector<std::vector<RecurrentTensors>> states;  ///< [k][level], 1 row.
  int max_steps() const { return static_cast<int>(states.size()) - 1; }
};

/// Stack of recurrent levels run in one or two directions over a sequence
/// (paper §4.3: "two-stacked bidirectional RNN"), parameterized by cell
/// family. Level l consumes the hidden states of level l-1 at every time
/// step (Fig. 2); the forward and backward chains are independent stacks.
/// Output is the concatenated final top-level hidden state(s)
/// (units * directions wide).
class StackedBiRecurrent {
 public:
  StackedBiRecurrent(CellType type, std::string name, int input_dim,
                     int units, int stacks, bool bidirectional, Rng* rng);

  /// Reusable per-thread state for `ApplyForward` and `ApplyForwardIds`.
  /// After the first batch of a sweep, the whole stack runs without heap
  /// allocation.
  struct ForwardScratch {
    std::vector<RecurrentTensors> state;  ///< per level: the initial state.
    Tensor out_fwd;
    Tensor out_bwd;
    Tensor seq_in;   ///< level-0 inputs, all steps stacked in process order.
    Tensor seq_out;  ///< level outputs (h), same stacking.
    Tensor seq_c;    ///< LSTM level cell states, same stacking.
    Tensor xz;       ///< input projections of the current level, same stacking.
    Tensor hg;       ///< GRU: one step's recurrent projection.
  };

  /// Training: the whole stack — every direction, level and step — as one
  /// tape node whose value is the concatenated final top-level state(s).
  /// Its forward is the inference path's level-major loop (each level's
  /// input projection is one GEMM over all steps), keeping every level's
  /// output sequence; its backward is backpropagation through time. For
  /// the vanilla cell, values and gradients are bit-identical to composing
  /// the stack from one fused tanh step per (step, level, direction) — see
  /// DESIGN.md §6, "Fused recurrence". With a `pool`, the forward and the
  /// backward recurrence run as (direction, row block) lanes on the calling
  /// thread and the pool's workers, then each parameter gradient runs as
  /// one chain; the results do not change. `pool` must not be a pool whose
  /// worker makes this call.
  Graph::Var Apply(Graph* g, const std::vector<Graph::Var>& steps, int batch,
                   ThreadPool* pool = nullptr) const;
  void ApplyForward(const std::vector<Tensor>& steps, Tensor* out) const;

  /// Forward-only application over the span `steps[0, t_count)` with
  /// caller-owned scratch (bit-identical to the scratch-free overload).
  /// `t_count` may be shorter than the training sequence length — the stack
  /// simply runs fewer time steps (the length-bucketed inference contract;
  /// see core::InferenceEngine).
  void ApplyForward(const Tensor* steps, int t_count, Tensor* out,
                    ForwardScratch* scratch) const;

  /// Fills `proj[d]` (vocab x gates*units) with `table · Wx` of direction
  /// d's level-0 cell, as one GEMM: row c is the input projection of the
  /// embedded id c, with the bits that projecting a batch holding that
  /// embedding row gives (the GEMM is row-independent; ops.h contract).
  void ProjectInputTable(const Tensor& table, std::vector<Tensor>* proj) const;

  /// Precomputes the backward direction's state trajectory over an all-pad
  /// prefix of up to `max_steps` steps. `pad_step` holds the pad input
  /// embedding as its one row (the step kernels are row-independent and
  /// batch-size invariant, so the warm start is bit-identical to running
  /// the prefix inline in any batch). Leaves the trajectory empty for
  /// unidirectional stacks.
  void ComputeBackwardPadPrefix(const Tensor& pad_step, int max_steps,
                                PadPrefixTrajectory* traj) const;

  /// Inference over id columns, bit-identical to ApplyForward over their
  /// embeddings padded with id 0 to `t_total` steps. `ids[t][i]` is row i's
  /// id at step t < t_count, and `proj` is ProjectInputTable of the
  /// embedding table: each step's level-0 projection is gathered from it
  /// (ids are range-checked) instead of computed.
  /// - the forward chain runs ids[0, t_count) and then `t_total - t_count`
  ///   steps of id 0 — its pad tail cannot be skipped, because the
  ///   (trained) pad embedding keeps moving per-cell state;
  /// - the backward chain runs only ids[t_count-1 .. 0], warm-started from
  ///   `traj` at prefix length `t_total - t_count` — its pad prefix is
  ///   cell-independent, so those steps are shared instead of re-run.
  void ApplyForwardIds(const std::vector<int>* ids, int t_count, int t_total,
                       const std::vector<Tensor>& proj,
                       const PadPrefixTrajectory& traj, Tensor* out,
                       ForwardScratch* scratch) const;

  std::vector<Parameter*> Params() const;
  int output_dim() const { return units_ * (bidirectional_ ? 2 : 1); }
  CellType type() const { return type_; }

 private:
  /// One (direction, row block) lane's buffers in a fused training node,
  /// and the node's op state (both defined in recurrent.cc).
  struct LaneTape;
  struct TrainState;

  /// Runs one direction over embedded steps: forward steps[0, t_count), or
  /// backward steps[t_count-1 .. 0], from the zero state.
  void RunDirectionForward(const Tensor* steps, int t_count,
                           bool backward_direction,
                           const std::vector<RecurrentCell>& cells,
                           Tensor* out, ForwardScratch* scratch) const;
  /// Runs one direction over id columns with its level-0 projections
  /// gathered from `proj`. Forward direction: ids[0, t_count) followed by
  /// `pad_count` steps of id 0. Backward direction (pad_count must be 0):
  /// ids[t_count-1 .. 0], starting from `warm` per-level states (broadcast
  /// over the batch rows) instead of zeros when non-null.
  void RunDirectionIds(const std::vector<int>* ids, int t_count,
                       bool backward_direction,
                       const std::vector<RecurrentCell>& cells,
                       const Tensor& proj, int pad_count,
                       const std::vector<RecurrentTensors>* warm, Tensor* out,
                       ForwardScratch* scratch) const;
  /// The level loop of a direction, over `total` step batches stacked in
  /// processing order. Level-major with time-step-batched input
  /// projections: level l runs over every step before level l+1 starts, so
  /// each level's x·Wx is ONE GEMM over the whole sequence (level 0's reads
  /// `scratch->seq_in`, unless `projected` says `scratch->xz` already holds
  /// it) and the per-step work is the recurrent projection and the gate
  /// tail. This is bit-identical to the step-major order (levels only
  /// consume the level below at the same step) and to per-step projections
  /// (the GEMM kernels are row-independent). Each step consumes its block
  /// of the projection in place and writes its state once, into its block
  /// of the level's output sequence — the tape's when training, where every
  /// level's outputs (and gates) are kept for backward.
  void RunLevels(int batch, int total, const std::vector<RecurrentCell>& cells,
                 bool projected, const std::vector<RecurrentTensors>* warm,
                 Tensor* out, ForwardScratch* scratch, LaneTape* tape) const;
  /// The phases of a fused training node's passes: a lane's forward and
  /// backward recurrence, then, once every lane has finished, the chain of
  /// one parameter gradient of (direction d, level l) — dWh when
  /// `recurrent`, else dWx and db — and the level-0 input gradient of row
  /// block b.
  void ForwardLane(TrainState* state, LaneTape* lane) const;
  void BackwardLane(TrainState* state, LaneTape* lane,
                    const Tensor& dvalue) const;
  void KernelChain(TrainState* state, int d, int l, bool recurrent) const;
  void InputGradient(TrainState* state, int b) const;

  CellType type_;
  int units_;
  int stacks_;
  bool bidirectional_;
  std::vector<std::vector<RecurrentCell>> cells_;  // [dir][level]
};

}  // namespace birnn::nn

#endif  // BIRNN_NN_RECURRENT_H_
