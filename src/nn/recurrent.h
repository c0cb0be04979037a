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
/// three makes that claim measurable (bench_ablation_cell_type).
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

  /// Forward-only step whose input projection x·Wx (no bias) has already
  /// been computed into `scratch->z1` — the level-major batched path
  /// (StackedBiRecurrent computes one GEMM covering every time step, then
  /// slices per-step rows into z1). Consumes/overwrites z1. Bit-identical
  /// to StepForward: the kernels are row-independent and the per-element
  /// FP operation sequence is unchanged.
  /// When `gates` is non-null (GRU and LSTM), the step's activated gates
  /// are also written there, batch x gates*units, in the weight layout's
  /// block order — what backpropagation through time reads back.
  void StepForwardPre(const RecurrentTensors& prev, RecurrentTensors* out,
                      StepScratch* scratch, float* gates = nullptr) const;

  /// The input kernel Wx (in x gates*units): `x · Wx` is the batched input
  /// projection StepForwardPre expects in z1.
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
  void GruGateTail(const Tensor& xg, const Tensor& hg,
                   const RecurrentTensors& prev, RecurrentTensors* out,
                   float* gates) const;
  void LstmGateTail(const Tensor& pre, const RecurrentTensors& prev,
                    RecurrentTensors* out, float* gates) const;

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
/// steps; `states[0]` is the zero state. Precomputed once per sweep by
/// `ComputeBackwardPadPrefix` and used to warm-start length-bucketed
/// batches (`ApplyForwardBucketed`).
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

  /// Reusable per-thread state for `ApplyForward`: per-level hidden/cell
  /// tensors plus the step buffers. After the first batch of a sweep, the
  /// whole stack runs without heap allocation.
  struct ForwardScratch {
    std::vector<RecurrentTensors> state;
    RecurrentTensors next;
    StepScratch step;
    Tensor out_fwd;
    Tensor out_bwd;
    Tensor seq_in;   ///< level inputs, all steps stacked in process order.
    Tensor seq_out;  ///< level outputs, same stacking.
    Tensor xz;       ///< batched input projections for the current level.
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

  /// Precomputes the backward direction's state trajectory over an all-pad
  /// prefix of up to `max_steps` steps. `pad_step` holds the pad input
  /// embedding as its one row (the step kernels are row-independent and
  /// batch-size invariant, so the warm start is bit-identical to running
  /// the prefix inline in any batch). Leaves the trajectory empty for
  /// unidirectional stacks.
  void ComputeBackwardPadPrefix(const Tensor& pad_step, int max_steps,
                                PadPrefixTrajectory* traj) const;

  /// Length-bucketed application, bit-identical to ApplyForward over the
  /// same sequence padded to `t_total` steps:
  /// - the forward chain runs steps[0, t_count) and then `t_total - t_count`
  ///   extra steps of `pad_step` input — its pad tail cannot be skipped,
  ///   because the (trained) pad embedding keeps moving per-cell state;
  /// - the backward chain runs only steps[t_count-1 .. 0], warm-started
  ///   from `traj` at prefix length `t_total - t_count` — its pad prefix is
  ///   cell-independent, so those steps are shared instead of re-run.
  /// `pad_step` must hold the pad embedding in every row (batch rows).
  void ApplyForwardBucketed(const Tensor* steps, int t_count, int t_total,
                            const Tensor& pad_step,
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

  /// Runs one direction. Forward direction: steps[0, t_count) followed by
  /// `tail_count` steps of `tail_step` input. Backward direction
  /// (tail_count must be 0): steps[t_count-1 .. 0], starting from `warm`
  /// per-level states (broadcast over the batch rows) instead of zeros when
  /// non-null.
  void RunDirectionForward(const Tensor* steps, int t_count,
                           bool backward_direction,
                           const std::vector<RecurrentCell>& cells,
                           const Tensor* tail_step, int tail_count,
                           const std::vector<RecurrentTensors>* warm,
                           Tensor* out, ForwardScratch* scratch) const;
  /// The level loop of a direction over `scratch->seq_in`, which holds
  /// `total` step batches stacked in processing order. Level-major with
  /// time-step-batched input projections: level l runs over every step
  /// before level l+1 starts, so each level's x·Wx is ONE GEMM over the
  /// whole sequence and the per-step work is the recurrent projection and
  /// the gate tail. This is bit-identical to the step-major order (levels
  /// only consume the level below at the same step) and to per-step
  /// projections (the GEMM kernels are row-independent). With a `tape`,
  /// every level's outputs (and gates) are kept for backward.
  void RunLevels(int batch, int total, const std::vector<RecurrentCell>& cells,
                 const std::vector<RecurrentTensors>* warm, Tensor* out,
                 ForwardScratch* scratch, LaneTape* tape) const;
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
