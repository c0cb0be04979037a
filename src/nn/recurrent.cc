#include "nn/recurrent.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/init.h"
#include "nn/ops.h"
#include "util/string_util.h"

namespace birnn::nn {

const char* CellTypeName(CellType type) {
  switch (type) {
    case CellType::kVanilla:
      return "rnn";
    case CellType::kGru:
      return "gru";
    case CellType::kLstm:
      return "lstm";
  }
  return "?";
}

StatusOr<CellType> ParseCellType(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "rnn" || lower == "vanilla" || lower == "simple") {
    return CellType::kVanilla;
  }
  if (lower == "gru") return CellType::kGru;
  if (lower == "lstm") return CellType::kLstm;
  return Status::NotFound("unknown cell type: " + name);
}

int GateCount(CellType type) {
  switch (type) {
    case CellType::kVanilla:
      return 1;
    case CellType::kGru:
      return 3;  // z | r | h~
    case CellType::kLstm:
      return 4;  // i | f | g | o
  }
  return 1;
}

int RecurrentCell::gate_count() const { return GateCount(type_); }

RecurrentCell::RecurrentCell(CellType type, std::string name, int input_dim,
                             int units, Rng* rng)
    : type_(type),
      input_dim_(input_dim),
      units_(units),
      wx_(name + "/wx", Tensor(input_dim, units * GateCount(type))),
      wh_(name + "/wh", Tensor(units, units * GateCount(type))),
      b_(name + "/b", Tensor(std::vector<int>{units * GateCount(type)})) {
  const int gates = GateCount(type);
  // Per-gate initialization: Glorot on each (input_dim, units) block of the
  // input kernel, orthogonal on each (units, units) block of the recurrent
  // kernel — the Keras defaults for all three families.
  for (int g = 0; g < gates; ++g) {
    Tensor block_x(input_dim, units);
    GlorotUniform(&block_x, rng);
    for (int i = 0; i < input_dim; ++i) {
      for (int j = 0; j < units; ++j) {
        wx_.value.at(i, g * units + j) = block_x.at(i, j);
      }
    }
    Tensor block_h(units, units);
    OrthogonalInit(&block_h, rng);
    for (int i = 0; i < units; ++i) {
      for (int j = 0; j < units; ++j) {
        wh_.value.at(i, g * units + j) = block_h.at(i, j);
      }
    }
  }
  if (type == CellType::kLstm) {
    // Unit forget-gate bias (gate block 1 in [i | f | g | o]).
    for (int j = 0; j < units; ++j) {
      b_.value[static_cast<size_t>(units + j)] = 1.0f;
    }
  }
}

RecurrentCell::Bound RecurrentCell::Bind(Graph* g) const {
  return Bound{this, g, g->Param(&wx_), g->Param(&wh_), g->Param(&b_)};
}

RecurrentState RecurrentCell::InitialState(Graph* g, int batch) const {
  RecurrentState state;
  state.h = g->Input(Tensor(batch, units_));
  if (type_ == CellType::kLstm) {
    state.c = g->Input(Tensor(batch, units_));
  }
  return state;
}

RecurrentTensors RecurrentCell::InitialTensors(int batch) const {
  RecurrentTensors state;
  state.h = Tensor(batch, units_);
  if (type_ == CellType::kLstm) state.c = Tensor(batch, units_);
  return state;
}

RecurrentState RecurrentCell::Bound::Step(Graph::Var x,
                                          const RecurrentState& prev) const {
  Graph* graph = g;
  const int u = cell->units();
  const int batch = graph->value(prev.h).rows();
  RecurrentState next;
  switch (cell->type()) {
    case CellType::kVanilla: {
      next.h = graph->RnnTanhStep(x, wx, prev.h, wh, b);
      return next;
    }
    case CellType::kGru: {
      // Reset-after GRU (Keras v2 / cuDNN layout): the reset gate scales
      // the recurrent projection, not the state.
      Graph::Var xg = graph->AddBias(graph->MatMul(x, wx), b);
      Graph::Var hg = graph->MatMul(prev.h, wh);
      Graph::Var z = graph->Sigmoid(graph->Add(graph->SliceCols(xg, 0, u),
                                               graph->SliceCols(hg, 0, u)));
      Graph::Var r = graph->Sigmoid(graph->Add(graph->SliceCols(xg, u, u),
                                               graph->SliceCols(hg, u, u)));
      Graph::Var h_cand = graph->Tanh(graph->Add(
          graph->SliceCols(xg, 2 * u, u),
          graph->Mul(r, graph->SliceCols(hg, 2 * u, u))));
      Graph::Var ones = graph->Input(Tensor::Full({batch, u}, 1.0f));
      next.h = graph->Add(graph->Mul(graph->Sub(ones, z), prev.h),
                          graph->Mul(z, h_cand));
      return next;
    }
    case CellType::kLstm: {
      Graph::Var gates = graph->AddBias(
          graph->Add(graph->MatMul(x, wx), graph->MatMul(prev.h, wh)), b);
      Graph::Var i = graph->Sigmoid(graph->SliceCols(gates, 0, u));
      Graph::Var f = graph->Sigmoid(graph->SliceCols(gates, u, u));
      Graph::Var g_cand = graph->Tanh(graph->SliceCols(gates, 2 * u, u));
      Graph::Var o = graph->Sigmoid(graph->SliceCols(gates, 3 * u, u));
      next.c = graph->Add(graph->Mul(f, prev.c), graph->Mul(i, g_cand));
      next.h = graph->Mul(o, graph->Tanh(next.c));
      return next;
    }
  }
  return next;
}

void RecurrentCell::GruGateTail(const Tensor& xg, const Tensor& hg,
                                const RecurrentTensors& prev,
                                RecurrentTensors* out) const {
  const int u = units_;
  const int batch = prev.h.rows();
  out->h.ResizeForOverwrite(batch, u);
  const float* bias = b_.value.data();
  for (int i = 0; i < batch; ++i) {
    for (int j = 0; j < u; ++j) {
      const float z = 1.0f / (1.0f + std::exp(-(xg.at(i, j) + bias[j] +
                                                hg.at(i, j))));
      const float r =
          1.0f / (1.0f + std::exp(-(xg.at(i, u + j) + bias[u + j] +
                                    hg.at(i, u + j))));
      const float cand = std::tanh(xg.at(i, 2 * u + j) + bias[2 * u + j] +
                                   r * hg.at(i, 2 * u + j));
      out->h.at(i, j) = (1.0f - z) * prev.h.at(i, j) + z * cand;
    }
  }
}

void RecurrentCell::LstmGateTail(const Tensor& gates,
                                 const RecurrentTensors& prev,
                                 RecurrentTensors* out) const {
  const int u = units_;
  const int batch = prev.h.rows();
  out->h.ResizeForOverwrite(batch, u);
  out->c.ResizeForOverwrite(batch, u);
  const float* bias = b_.value.data();
  for (int i = 0; i < batch; ++i) {
    for (int j = 0; j < u; ++j) {
      const auto sigmoid = [](float v) {
        return 1.0f / (1.0f + std::exp(-v));
      };
      const float in_gate = sigmoid(gates.at(i, j) + bias[j]);
      const float forget = sigmoid(gates.at(i, u + j) + bias[u + j]);
      const float cand = std::tanh(gates.at(i, 2 * u + j) + bias[2 * u + j]);
      const float out_gate =
          sigmoid(gates.at(i, 3 * u + j) + bias[3 * u + j]);
      const float c_new = forget * prev.c.at(i, j) + in_gate * cand;
      out->c.at(i, j) = c_new;
      out->h.at(i, j) = out_gate * std::tanh(c_new);
    }
  }
}

void RecurrentCell::StepForward(const Tensor& x, const RecurrentTensors& prev,
                                RecurrentTensors* out) const {
  StepScratch scratch;
  StepForward(x, prev, out, &scratch);
}

void RecurrentCell::StepForward(const Tensor& x, const RecurrentTensors& prev,
                                RecurrentTensors* out,
                                StepScratch* scratch) const {
  // Project the input, then run the recurrent projection + gate tail via
  // the shared pre-projected step so both entry points are one code path
  // (and therefore trivially bit-identical).
  MatMul(x, wx_.value, &scratch->z1);
  StepForwardPre(prev, out, scratch);
}

void RecurrentCell::StepForwardPre(const RecurrentTensors& prev,
                                   RecurrentTensors* out,
                                   StepScratch* scratch) const {
  switch (type_) {
    case CellType::kVanilla: {
      // z1 holds x·Wx; accumulate h·Wh then the fused bias+tanh pass.
      Tensor& z = scratch->z1;
      MatMulAcc(prev.h, wh_.value, &z);
      AddBiasTanh(z, b_.value, &out->h);
      return;
    }
    case CellType::kGru: {
      // Bias is folded into the fused gate loop (no separate AddBias pass).
      Tensor& xg = scratch->z1;
      Tensor& hg = scratch->z2;
      MatMul(prev.h, wh_.value, &hg);
      GruGateTail(xg, hg, prev, out);
      return;
    }
    case CellType::kLstm: {
      Tensor& gates = scratch->z1;
      MatMulAcc(prev.h, wh_.value, &gates);
      LstmGateTail(gates, prev, out);
      return;
    }
  }
}

std::vector<Parameter*> RecurrentCell::Params() const {
  return {&wx_, &wh_, &b_};
}

// ---------------------------------------------------------- StackedBiRecurrent

StackedBiRecurrent::StackedBiRecurrent(CellType type, std::string name,
                                       int input_dim, int units, int stacks,
                                       bool bidirectional, Rng* rng)
    : type_(type), units_(units), stacks_(stacks),
      bidirectional_(bidirectional) {
  BIRNN_CHECK_GE(stacks, 1);
  const int dirs = bidirectional ? 2 : 1;
  cells_.resize(static_cast<size_t>(dirs));
  for (int d = 0; d < dirs; ++d) {
    cells_[static_cast<size_t>(d)].reserve(static_cast<size_t>(stacks));
    for (int l = 0; l < stacks; ++l) {
      const int in_dim = (l == 0) ? input_dim : units;
      cells_[static_cast<size_t>(d)].emplace_back(
          type,
          name + "/dir" + std::to_string(d) + "/level" + std::to_string(l),
          in_dim, units, rng);
    }
  }
}

Graph::Var StackedBiRecurrent::RunDirection(
    Graph* g, const std::vector<Graph::Var>& steps, int batch,
    bool backward_direction,
    const std::vector<const RecurrentCell*>& cells) const {
  std::vector<RecurrentCell::Bound> bound;
  std::vector<RecurrentState> state;
  bound.reserve(cells.size());
  state.reserve(cells.size());
  for (const RecurrentCell* cell : cells) {
    bound.push_back(cell->Bind(g));
    state.push_back(cell->InitialState(g, batch));
  }
  const int t_count = static_cast<int>(steps.size());
  for (int i = 0; i < t_count; ++i) {
    const int t = backward_direction ? (t_count - 1 - i) : i;
    Graph::Var x = steps[static_cast<size_t>(t)];
    for (size_t l = 0; l < cells.size(); ++l) {
      state[l] = bound[l].Step(x, state[l]);
      x = state[l].h;
    }
  }
  return state.back().h;
}

Graph::Var StackedBiRecurrent::Apply(Graph* g,
                                     const std::vector<Graph::Var>& steps,
                                     int batch) const {
  BIRNN_CHECK(!steps.empty());
  std::vector<const RecurrentCell*> fwd;
  for (const auto& c : cells_[0]) fwd.push_back(&c);
  Graph::Var out_fwd = RunDirection(g, steps, batch, false, fwd);
  if (!bidirectional_) return out_fwd;
  std::vector<const RecurrentCell*> bwd;
  for (const auto& c : cells_[1]) bwd.push_back(&c);
  Graph::Var out_bwd = RunDirection(g, steps, batch, true, bwd);
  return g->ConcatCols({out_fwd, out_bwd});
}

namespace {
/// Fills every row of `dst` (batch x units) with row 0 of `src` (1 x units).
void BroadcastRow(const Tensor& src, int batch, Tensor* dst) {
  dst->ResizeForOverwrite(batch, src.cols());
  for (int r = 0; r < batch; ++r) {
    std::copy(src.data(), src.data() + src.cols(),
              dst->data() + static_cast<size_t>(r) * src.cols());
  }
}
}  // namespace

void StackedBiRecurrent::RunDirectionForward(
    const Tensor* steps, int t_count, bool backward_direction,
    const std::vector<const RecurrentCell*>& cells, const Tensor* tail_step,
    int tail_count, const std::vector<RecurrentTensors>* warm, Tensor* out,
    ForwardScratch* scratch) const {
  const int batch = steps[0].rows();
  const int total = t_count + tail_count;
  std::vector<RecurrentTensors>& state = scratch->state;
  if (state.size() < cells.size()) state.resize(cells.size());
  RecurrentTensors& next = scratch->next;

  // Stack every step's input batch in PROCESSING order: stacked row block p
  // is the input the recurrence consumes at its p-th step (forward: step p,
  // then the pad tail; backward: step t_count-1-p). One contiguous matrix
  // lets each level's input projection run as a single GEMM below.
  const int in0 = steps[0].cols();
  Tensor* seq_in = &scratch->seq_in;
  Tensor* seq_out = &scratch->seq_out;
  seq_in->ResizeForOverwrite(total * batch, in0);
  for (int p = 0; p < total; ++p) {
    const Tensor* src;
    if (backward_direction) {
      src = &steps[t_count - 1 - p];
    } else {
      src = p < t_count ? &steps[p] : tail_step;
    }
    BIRNN_CHECK_EQ(src->rows(), batch);
    std::copy(src->data(), src->data() + src->size(),
              seq_in->data() + static_cast<size_t>(p) * batch * in0);
  }

  for (size_t l = 0; l < cells.size(); ++l) {
    const RecurrentCell* cell = cells[l];
    const int u = cell->units();
    // Time-step-batched input projection: all `total` step batches of this
    // level share one weights-load of Wx in a single GEMM. Bit-identical
    // to per-step projections because the GEMM kernels compute each output
    // row from its input row alone.
    MatMul(*seq_in, cell->wx(), &scratch->xz);
    const int zcols = scratch->xz.cols();

    if (warm != nullptr) {
      // Warm start: the all-pad prefix state, identical for every row.
      BroadcastRow((*warm)[l].h, batch, &state[l].h);
      if (cell->type() == CellType::kLstm) {
        BroadcastRow((*warm)[l].c, batch, &state[l].c);
      }
    } else {
      // Resize() zero-fills while reusing capacity — the initial state.
      state[l].h.Resize(batch, u);
      if (cell->type() == CellType::kLstm) state[l].c.Resize(batch, u);
    }

    const bool record = l + 1 < cells.size();
    if (record) seq_out->ResizeForOverwrite(total * batch, u);
    for (int p = 0; p < total; ++p) {
      // This step's slice of the batched projection becomes the step's
      // pre-activation buffer (consumed in place by StepForwardPre).
      scratch->step.z1.ResizeForOverwrite(batch, zcols);
      const float* src =
          scratch->xz.data() + static_cast<size_t>(p) * batch * zcols;
      std::copy(src, src + static_cast<size_t>(batch) * zcols,
                scratch->step.z1.data());
      cell->StepForwardPre(state[l], &next, &scratch->step);
      // StepForwardPre fully overwrites `next`, so swapping buffers instead
      // of copying is bit-identical.
      std::swap(state[l].h, next.h);
      if (cell->type() == CellType::kLstm) std::swap(state[l].c, next.c);
      if (record) {
        std::copy(state[l].h.data(),
                  state[l].h.data() + static_cast<size_t>(batch) * u,
                  seq_out->data() + static_cast<size_t>(p) * batch * u);
      }
    }
    if (record) std::swap(seq_in, seq_out);
  }
  *out = state.back().h;
}

void StackedBiRecurrent::ApplyForward(const std::vector<Tensor>& steps,
                                      Tensor* out) const {
  ForwardScratch scratch;
  ApplyForward(steps.data(), static_cast<int>(steps.size()), out, &scratch);
}

void StackedBiRecurrent::ApplyForward(const Tensor* steps, int t_count,
                                      Tensor* out,
                                      ForwardScratch* scratch) const {
  BIRNN_CHECK_GE(t_count, 1);
  std::vector<const RecurrentCell*> fwd;
  for (const auto& c : cells_[0]) fwd.push_back(&c);
  if (!bidirectional_) {
    RunDirectionForward(steps, t_count, false, fwd, nullptr, 0, nullptr, out,
                        scratch);
    return;
  }
  RunDirectionForward(steps, t_count, false, fwd, nullptr, 0, nullptr,
                      &scratch->out_fwd, scratch);
  std::vector<const RecurrentCell*> bwd;
  for (const auto& c : cells_[1]) bwd.push_back(&c);
  RunDirectionForward(steps, t_count, true, bwd, nullptr, 0, nullptr,
                      &scratch->out_bwd, scratch);
  ConcatCols({&scratch->out_fwd, &scratch->out_bwd}, out);
}

void StackedBiRecurrent::ComputeBackwardPadPrefix(
    const Tensor& pad_step, int max_steps, PadPrefixTrajectory* traj) const {
  traj->states.clear();
  if (!bidirectional_) return;
  BIRNN_CHECK_EQ(pad_step.rows(), 1);
  const auto& cells = cells_[1];

  std::vector<RecurrentTensors> state(cells.size());
  for (size_t l = 0; l < cells.size(); ++l) {
    state[l] = cells[l].InitialTensors(1);
  }
  traj->states.push_back(state);  // k = 0: the zero initial state.
  RecurrentTensors next;
  StepScratch step;
  for (int k = 1; k <= max_steps; ++k) {
    const Tensor* x = &pad_step;
    for (size_t l = 0; l < cells.size(); ++l) {
      cells[l].StepForward(*x, state[l], &next, &step);
      std::swap(state[l].h, next.h);
      if (cells[l].type() == CellType::kLstm) std::swap(state[l].c, next.c);
      x = &state[l].h;
    }
    traj->states.push_back(state);
  }
}

void StackedBiRecurrent::ApplyForwardBucketed(
    const Tensor* steps, int t_count, int t_total, const Tensor& pad_step,
    const PadPrefixTrajectory& traj, Tensor* out,
    ForwardScratch* scratch) const {
  BIRNN_CHECK_GE(t_count, 1);
  BIRNN_CHECK_GE(t_total, t_count);
  const int pad_count = t_total - t_count;
  std::vector<const RecurrentCell*> fwd;
  for (const auto& c : cells_[0]) fwd.push_back(&c);
  if (!bidirectional_) {
    RunDirectionForward(steps, t_count, false, fwd, &pad_step, pad_count,
                        nullptr, out, scratch);
    return;
  }
  RunDirectionForward(steps, t_count, false, fwd, &pad_step, pad_count,
                      nullptr, &scratch->out_fwd, scratch);
  BIRNN_CHECK_LE(pad_count, traj.max_steps());
  std::vector<const RecurrentCell*> bwd;
  for (const auto& c : cells_[1]) bwd.push_back(&c);
  RunDirectionForward(steps, t_count, true, bwd, nullptr, 0,
                      &traj.states[static_cast<size_t>(pad_count)],
                      &scratch->out_bwd, scratch);
  ConcatCols({&scratch->out_fwd, &scratch->out_bwd}, out);
}

std::vector<Parameter*> StackedBiRecurrent::Params() const {
  std::vector<Parameter*> out;
  for (const auto& dir : cells_) {
    for (const auto& cell : dir) {
      for (Parameter* p : cell.Params()) out.push_back(p);
    }
  }
  return out;
}

}  // namespace birnn::nn
