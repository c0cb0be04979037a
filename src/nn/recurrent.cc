#include "nn/recurrent.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "nn/init.h"
#include "nn/ops.h"
#include "util/string_util.h"
#include "util/threadpool.h"

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

RecurrentTensors RecurrentCell::InitialTensors(int batch) const {
  RecurrentTensors state;
  state.h = Tensor(batch, units_);
  if (type_ == CellType::kLstm) state.c = Tensor(batch, units_);
  return state;
}

void RecurrentCell::GruGateTail(const StepBlocks& s) const {
  const int u = units_;
  const size_t gu = static_cast<size_t>(3) * u;
  const float* bias = b_.value.data();
  for (int i = 0; i < s.rows; ++i) {
    const float* xg = s.z + i * gu;
    const float* hg = s.hg + i * gu;
    const float* h_prev = s.h_prev + static_cast<size_t>(i) * u;
    float* h = s.h + static_cast<size_t>(i) * u;
    for (int j = 0; j < u; ++j) {
      const float z =
          1.0f / (1.0f + std::exp(-(xg[j] + bias[j] + hg[j])));
      const float r =
          1.0f / (1.0f + std::exp(-(xg[u + j] + bias[u + j] + hg[u + j])));
      const float cand =
          std::tanh(xg[2 * u + j] + bias[2 * u + j] + r * hg[2 * u + j]);
      h[j] = (1.0f - z) * h_prev[j] + z * cand;
      if (s.gates != nullptr) {
        float* row = s.gates + i * gu;
        row[j] = z;
        row[u + j] = r;
        row[2 * u + j] = cand;
      }
    }
  }
}

void RecurrentCell::LstmGateTail(const StepBlocks& s) const {
  const int u = units_;
  const size_t gu = static_cast<size_t>(4) * u;
  const float* bias = b_.value.data();
  const auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
  for (int i = 0; i < s.rows; ++i) {
    const float* pre = s.z + i * gu;
    const float* c_prev = s.c_prev + static_cast<size_t>(i) * u;
    float* h = s.h + static_cast<size_t>(i) * u;
    float* c = s.c + static_cast<size_t>(i) * u;
    for (int j = 0; j < u; ++j) {
      const float in_gate = sigmoid(pre[j] + bias[j]);
      const float forget = sigmoid(pre[u + j] + bias[u + j]);
      const float cand = std::tanh(pre[2 * u + j] + bias[2 * u + j]);
      const float out_gate = sigmoid(pre[3 * u + j] + bias[3 * u + j]);
      const float c_new = forget * c_prev[j] + in_gate * cand;
      c[j] = c_new;
      h[j] = out_gate * std::tanh(c_new);
      if (s.gates != nullptr) {
        float* row = s.gates + i * gu;
        row[j] = in_gate;
        row[u + j] = forget;
        row[2 * u + j] = cand;
        row[3 * u + j] = out_gate;
      }
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
  // Project the input, then run the shared raw step, so every entry point
  // is one code path (and therefore trivially bit-identical).
  MatMul(x, wx_.value, &scratch->z1);
  const int batch = x.rows();
  StepBlocks s;
  s.rows = batch;
  s.h_prev = prev.h.data();
  s.z = scratch->z1.data();
  out->h.ResizeForOverwrite(batch, units_);
  s.h = out->h.data();
  if (type_ == CellType::kGru) {
    scratch->z2.ResizeForOverwrite(batch, scratch->z1.cols());
    s.hg = scratch->z2.data();
  }
  if (type_ == CellType::kLstm) {
    out->c.ResizeForOverwrite(batch, units_);
    s.c_prev = prev.c.data();
    s.c = out->c.data();
  }
  Step(s);
}

void RecurrentCell::Step(const StepBlocks& s) const {
  const int zcols = units_ * gate_count();
  switch (type_) {
    case CellType::kVanilla:
      // z holds x·Wx; accumulate h·Wh then the fused bias+tanh pass.
      GemmAcc(s.h_prev, wh_.value.data(), s.z, s.rows, units_, zcols);
      AddBiasTanh(s.z, b_.value.data(), s.h, s.rows, units_);
      return;
    case CellType::kGru:
      // Bias is folded into the fused gate loop (no separate AddBias pass).
      std::fill(s.hg, s.hg + static_cast<size_t>(s.rows) * zcols, 0.0f);
      GemmAcc(s.h_prev, wh_.value.data(), s.hg, s.rows, units_, zcols);
      GruGateTail(s);
      return;
    case CellType::kLstm:
      GemmAcc(s.h_prev, wh_.value.data(), s.z, s.rows, units_, zcols);
      LstmGateTail(s);
      return;
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

// One lane of a fused training node: one direction over one block of
// batch rows. Every stacked tensor holds the lane's rows of all steps in
// processing order (block p is the p-th step the recurrence consumes), and
// every tensor keeps its capacity across minibatches.
struct StackedBiRecurrent::LaneTape {
  struct Level {
    Tensor h;      ///< outputs.
    Tensor c;      ///< LSTM cell states.
    Tensor gates;  ///< GRU/LSTM activated gates.
    Tensor hg;     ///< GRU recurrent projections h·Wh.
    Tensor dpre;   ///< d(input pre-activation x·Wx).
    Tensor dhg;    ///< GRU d(recurrent pre-activation h·Wh).
    Tensor dh;     ///< running d(state h) of one step.
    Tensor dc;     ///< running d(LSTM cell) of one step.
  };
  int dir = 0;
  int row_begin = 0;
  int rows = 0;
  ForwardScratch fwd;  ///< fwd.seq_in holds the level-0 inputs.
  std::vector<Level> levels;
  Tensor out;  ///< final top-level state.
  Tensor dx;   ///< direction-0 lanes: the rows' level-0 input gradient.
};

struct StackedBiRecurrent::TrainState : Graph::FusedState {
  /// One (direction, level) cell's transposed kernels and the gradient
  /// buffers of its parameter leaves.
  struct LevelParams {
    Tensor wx_t;  ///< Wx transposed, once per node.
    Tensor wh_t;  ///< Wh transposed, once per node.
    Tensor* dwx = nullptr;
    Tensor* dwh = nullptr;
    Tensor* db = nullptr;
  };
  Graph* g = nullptr;
  std::vector<Graph::Var> steps;
  std::vector<Graph::Var> params;  ///< Params() order: dir, level, wx/wh/b.
  int batch = 0;
  int blocks = 1;                  ///< row blocks per direction.
  std::vector<LaneTape> lanes;     ///< [dir * blocks + block].
  std::vector<LevelParams> levels;  ///< [dir * stacks + level].
};

namespace {
/// Fills every row of `dst` (batch x units) with row 0 of `src` (1 x units).
void BroadcastRow(const Tensor& src, int batch, Tensor* dst) {
  dst->ResizeForOverwrite(batch, src.cols());
  for (int r = 0; r < batch; ++r) {
    std::copy(src.data(), src.data() + src.cols(),
              dst->data() + static_cast<size_t>(r) * src.cols());
  }
}

void Transpose(const Tensor& w, Tensor* wt) {
  const int rows = w.rows();
  const int cols = w.cols();
  wt->ResizeForOverwrite(cols, rows);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) wt->at(j, i) = w.at(i, j);
  }
}

/// Copies block `p` (`n` floats) of `src` into block `p` of `dst`.
void CopyBlock(const float* src, size_t n, int p, float* dst) {
  std::copy(src, src + n, dst + static_cast<size_t>(p) * n);
}

}  // namespace

void StackedBiRecurrent::RunLevels(int batch, int total,
                                   const std::vector<RecurrentCell>& cells,
                                   bool projected,
                                   const std::vector<RecurrentTensors>* warm,
                                   Tensor* out, ForwardScratch* scratch,
                                   LaneTape* tape) const {
  std::vector<RecurrentTensors>& state = scratch->state;
  if (state.size() < cells.size()) state.resize(cells.size());
  const Tensor* level_in = &scratch->seq_in;
  for (size_t l = 0; l < cells.size(); ++l) {
    const RecurrentCell& cell = cells[l];
    const int u = cell.units();
    // Time-step-batched input projection: all `total` step batches of this
    // level share one weights-load of Wx in a single GEMM.
    if (l > 0 || !projected) MatMul(*level_in, cell.wx(), &scratch->xz);
    const int zcols = scratch->xz.cols();
    const size_t zblock = static_cast<size_t>(batch) * zcols;
    const size_t hblock = static_cast<size_t>(batch) * u;
    const bool lstm = cell.type() == CellType::kLstm;
    const bool gru = cell.type() == CellType::kGru;

    if (warm != nullptr) {
      // Warm start: the all-pad prefix state, identical for every row.
      BroadcastRow((*warm)[l].h, batch, &state[l].h);
      if (lstm) BroadcastRow((*warm)[l].c, batch, &state[l].c);
    } else {
      // Resize() zero-fills while reusing capacity — the initial state.
      state[l].h.Resize(batch, u);
      if (lstm) state[l].c.Resize(batch, u);
    }

    // Each step writes its state once, into its block of the level's output
    // sequence, and reads the previous state from the block before. The
    // next level reads the outputs only in its GEMM above, so in inference
    // one buffer serves every level; training keeps each level's on the tape.
    LaneTape::Level* rec = tape != nullptr ? &tape->levels[l] : nullptr;
    Tensor* seq = rec != nullptr ? &rec->h : &scratch->seq_out;
    Tensor* cseq = rec != nullptr ? &rec->c : &scratch->seq_c;
    seq->ResizeForOverwrite(total * batch, u);
    if (lstm) cseq->ResizeForOverwrite(total * batch, u);
    float* gates = nullptr;
    if (rec != nullptr && cell.type() != CellType::kVanilla) {
      rec->gates.ResizeForOverwrite(total * batch, zcols);
      gates = rec->gates.data();
    }
    // GRU: the recurrent projection of each step, kept on the tape.
    float* hg = nullptr;
    if (gru && rec != nullptr) {
      rec->hg.ResizeForOverwrite(total * batch, zcols);
      hg = rec->hg.data();
    } else if (gru) {
      scratch->hg.ResizeForOverwrite(batch, zcols);
    }

    StepBlocks s;
    s.rows = batch;
    for (int p = 0; p < total; ++p) {
      s.h_prev = p == 0 ? state[l].h.data() : s.h;
      s.h = seq->data() + p * hblock;
      if (lstm) {
        s.c_prev = p == 0 ? state[l].c.data() : s.c;
        s.c = cseq->data() + p * hblock;
      }
      s.z = scratch->xz.data() + p * zblock;
      if (gru) s.hg = hg != nullptr ? hg + p * zblock : scratch->hg.data();
      if (gates != nullptr) s.gates = gates + p * zblock;
      cell.Step(s);
    }
    level_in = seq;
  }
  const float* last = level_in->data() +
                      static_cast<size_t>(total - 1) * batch * units_;
  out->ResizeForOverwrite(batch, units_);
  std::copy(last, last + static_cast<size_t>(batch) * units_, out->data());
}

void StackedBiRecurrent::RunDirectionForward(
    const Tensor* steps, int t_count, bool backward_direction,
    const std::vector<RecurrentCell>& cells, Tensor* out,
    ForwardScratch* scratch) const {
  const int batch = steps[0].rows();
  // Stack every step's input batch in PROCESSING order: stacked row block p
  // is the input the recurrence consumes at its p-th step (forward: step p;
  // backward: step t_count-1-p).
  scratch->seq_in.ResizeForOverwrite(t_count * batch, steps[0].cols());
  for (int p = 0; p < t_count; ++p) {
    const Tensor& src = steps[backward_direction ? t_count - 1 - p : p];
    BIRNN_CHECK_EQ(src.rows(), batch);
    CopyBlock(src.data(), src.size(), p, scratch->seq_in.data());
  }
  RunLevels(batch, t_count, cells, /*projected=*/false, nullptr, out, scratch,
            nullptr);
}

void StackedBiRecurrent::RunDirectionIds(
    const std::vector<int>* ids, int t_count, bool backward_direction,
    const std::vector<RecurrentCell>& cells, const Tensor& proj,
    int pad_count, const std::vector<RecurrentTensors>* warm, Tensor* out,
    ForwardScratch* scratch) const {
  const int batch = static_cast<int>(ids[0].size());
  const int total = t_count + pad_count;
  const int zcols = proj.cols();
  const size_t zblock = static_cast<size_t>(batch) * zcols;
  // Level 0's projections, stacked in processing order like seq_in: the
  // table rows of step p's ids (forward: step p, then the pad tail of id 0;
  // backward: step t_count-1-p).
  scratch->xz.ResizeForOverwrite(total * batch, zcols);
  float* xz = scratch->xz.data();
  for (int p = 0; p < t_count; ++p) {
    const std::vector<int>& col = ids[backward_direction ? t_count - 1 - p : p];
    BIRNN_CHECK_EQ(static_cast<int>(col.size()), batch);
    GatherRows(proj, col, xz + p * zblock);
  }
  const float* pad = proj.data();  // row 0: the pad id's projection.
  for (size_t r = static_cast<size_t>(t_count) * batch;
       r < static_cast<size_t>(total) * batch; ++r) {
    std::copy(pad, pad + zcols, xz + r * zcols);
  }
  RunLevels(batch, total, cells, /*projected=*/true, warm, out, scratch,
            nullptr);
}

void StackedBiRecurrent::ForwardLane(TrainState* state, LaneTape* lane) const {
  const int t_count = static_cast<int>(state->steps.size());
  const int in = state->g->value(state->steps[0]).cols();
  const size_t block = static_cast<size_t>(lane->rows) * in;
  lane->fwd.seq_in.ResizeForOverwrite(t_count * lane->rows, in);
  for (int p = 0; p < t_count; ++p) {
    const int t = lane->dir == 1 ? t_count - 1 - p : p;
    const Tensor& x = state->g->value(state->steps[static_cast<size_t>(t)]);
    BIRNN_CHECK_EQ(x.rows(), state->batch);
    BIRNN_CHECK_EQ(x.cols(), in);
    CopyBlock(x.data() + static_cast<size_t>(lane->row_begin) * in, block, p,
              lane->fwd.seq_in.data());
  }
  RunLevels(lane->rows, t_count, cells_[static_cast<size_t>(lane->dir)],
            /*projected=*/false, nullptr, &lane->out, &lane->fwd, lane);
}

// Backpropagation through time for one lane, in the per-element
// accumulation order of a tape of one fused tanh step node per (step,
// level, direction) walked in reverse, so that vanilla gradients are
// bit-identical to that composition (DESIGN.md §6, "Fused recurrence"):
// steps in descending order and, within a step, levels in descending order;
// a level's step gradient receives the recurrent term from the step after
// it before the input term from the level above. Every kernel here works
// row by row, so a lane's rows get the bits they would get in a whole-batch
// pass. The parameter gradients are left to KernelChain.
void StackedBiRecurrent::BackwardLane(TrainState* state, LaneTape* lane,
                                      const Tensor& dvalue) const {
  const int d = lane->dir;
  const TrainState::LevelParams* params =
      &state->levels[static_cast<size_t>(d * stacks_)];
  std::vector<LaneTape::Level>& levels = lane->levels;
  const int t_count = static_cast<int>(state->steps.size());
  const int batch = lane->rows;
  const int u = units_;
  const int gu = u * GateCount(type_);
  const size_t hblock = static_cast<size_t>(batch) * u;
  const size_t zblock = static_cast<size_t>(batch) * gu;

  for (LaneTape::Level& lv : levels) {
    lv.dh.Resize(batch, u);
    if (type_ == CellType::kLstm) lv.dc.Resize(batch, u);
    lv.dpre.ResizeForOverwrite(t_count * batch, gu);
    if (type_ == CellType::kGru) lv.dhg.ResizeForOverwrite(t_count * batch, gu);
  }
  // The top level's last state: this direction's columns of the node
  // gradient, added to zero as a concat node's backward adds them.
  {
    float* top = levels.back().dh.data();
    const int cols = dvalue.cols();
    for (int i = 0; i < batch; ++i) {
      const float* src = dvalue.data() +
                         static_cast<size_t>(lane->row_begin + i) * cols +
                         d * u;
      for (int j = 0; j < u; ++j) top[static_cast<size_t>(i) * u + j] += src[j];
    }
  }

  for (int p = t_count - 1; p >= 0; --p) {
    for (size_t l = levels.size(); l-- > 0;) {
      LaneTape::Level& lv = levels[l];
      float* __restrict dh = lv.dh.data();
      float* __restrict dz = lv.dpre.data() + p * zblock;
      // The recurrent kernel's gradient input, d(h·Wh): d(x·Wx) except in
      // the GRU's reset-scaled candidate block.
      const float* drec = dz;
      switch (type_) {
        case CellType::kVanilla: {
          const float* __restrict y = lv.h.data() + p * hblock;
          for (size_t k = 0; k < hblock; ++k) {
            dz[k] = dh[k] * (1.0f - y[k] * y[k]);
          }
          break;
        }
        case CellType::kGru: {
          const float* __restrict act = lv.gates.data() + p * zblock;
          const float* __restrict hg = lv.hg.data() + p * zblock;
          const float* __restrict hprev =
              p > 0 ? lv.h.data() + (p - 1) * hblock : nullptr;
          float* __restrict dhg = lv.dhg.data() + p * zblock;
          for (int i = 0; i < batch; ++i) {
            const size_t off = static_cast<size_t>(i) * u;
            const size_t goff = static_cast<size_t>(i) * gu;
            for (int j = 0; j < u; ++j) {
              const float z = act[goff + j];
              const float r = act[goff + u + j];
              const float n = act[goff + 2 * u + j];
              const float hp = hprev != nullptr ? hprev[off + j] : 0.0f;
              const float dhv = dh[off + j];
              const float dn = dhv * z * (1.0f - n * n);
              const float dzg = dhv * (n - hp) * z * (1.0f - z);
              const float drg = dn * hg[goff + 2 * u + j] * r * (1.0f - r);
              dz[goff + j] = dzg;
              dz[goff + u + j] = drg;
              dz[goff + 2 * u + j] = dn;
              dhg[goff + j] = dzg;
              dhg[goff + u + j] = drg;
              dhg[goff + 2 * u + j] = dn * r;
              // The direct path h' = (1 - z) h + ..., for step p - 1.
              dh[off + j] = dhv * (1.0f - z);
            }
          }
          drec = dhg;
          break;
        }
        case CellType::kLstm: {
          const float* __restrict act = lv.gates.data() + p * zblock;
          const float* __restrict c = lv.c.data() + p * hblock;
          const float* __restrict cprev =
              p > 0 ? lv.c.data() + (p - 1) * hblock : nullptr;
          float* __restrict dc = lv.dc.data();
          for (int i = 0; i < batch; ++i) {
            const size_t off = static_cast<size_t>(i) * u;
            const size_t goff = static_cast<size_t>(i) * gu;
            for (int j = 0; j < u; ++j) {
              const float ig = act[goff + j];
              const float fg = act[goff + u + j];
              const float gg = act[goff + 2 * u + j];
              const float og = act[goff + 3 * u + j];
              const float tc = std::tanh(c[off + j]);
              const float cp = cprev != nullptr ? cprev[off + j] : 0.0f;
              const float dhv = dh[off + j];
              const float dct = dc[off + j] + dhv * og * (1.0f - tc * tc);
              dz[goff + j] = dct * gg * ig * (1.0f - ig);
              dz[goff + u + j] = dct * cp * fg * (1.0f - fg);
              dz[goff + 2 * u + j] = dct * ig * (1.0f - gg * gg);
              dz[goff + 3 * u + j] = dhv * tc * og * (1.0f - og);
              dc[off + j] = dct * fg;
            }
          }
          break;
        }
      }
      // Input term into the level below at this step; that gradient already
      // holds its recurrent term from step p + 1.
      if (l > 0) {
        GemmAcc(dz, params[l].wx_t.data(), levels[l - 1].dh.data(), batch, gu,
                u);
      }
      // Recurrent term: this level's gradient at step p - 1.
      if (p > 0) {
        if (type_ != CellType::kGru) lv.dh.Zero();
        GemmAcc(drec, params[l].wh_t.data(), dh, batch, gu, u);
      }
    }
  }
}

// One parameter chain of (direction d, level l): dWx and db, or dWh. Steps
// run in descending order and, within a step, the row blocks in order, one
// kernel call per block. Every block but the last has a multiple of 4 rows,
// so the kernel's reduction groups the rows into the same 4-blocks (and the
// same tail) as one call over the whole batch's rows would: the bits of one
// B-row segment per step. db sums d(x·Wx) in (step desc, row asc) order,
// the order the per-step tape added it in.
void StackedBiRecurrent::KernelChain(TrainState* state, int d, int l,
                                     bool recurrent) const {
  const int t_count = static_cast<int>(state->steps.size());
  const int u = units_;
  const int gu = u * GateCount(type_);
  const TrainState::LevelParams& lp =
      state->levels[static_cast<size_t>(d * stacks_ + l)];
  // Step 0's previous state is zero: its Wh term adds nothing.
  for (int p = t_count - 1; p >= (recurrent ? 1 : 0); --p) {
    for (int b = 0; b < state->blocks; ++b) {
      const LaneTape& lane =
          state->lanes[static_cast<size_t>(d * state->blocks + b)];
      const LaneTape::Level& lv = lane.levels[static_cast<size_t>(l)];
      const int rows = lane.rows;
      const float* dz = lv.dpre.data() + static_cast<size_t>(p) * rows * gu;
      if (recurrent) {
        const float* drec =
            type_ == CellType::kGru
                ? lv.dhg.data() + static_cast<size_t>(p) * rows * gu
                : dz;
        GemmTransposeAAcc(lv.h.data() + static_cast<size_t>(p - 1) * rows * u,
                          drec, lp.dwh->data(), rows, u, gu);
        continue;
      }
      const Tensor& x =
          l == 0 ? lane.fwd.seq_in
                 : lane.levels[static_cast<size_t>(l - 1)].h;
      const int in = x.cols();
      GemmTransposeAAcc(x.data() + static_cast<size_t>(p) * rows * in, dz,
                        lp.dwx->data(), rows, in, gu);
      float* __restrict db = lp.db->data();
      for (int i = 0; i < rows; ++i) {
        const float* __restrict row = dz + static_cast<size_t>(i) * gu;
        for (int j = 0; j < gu; ++j) db[j] += row[j];
      }
    }
  }
}

// The level-0 input gradient of row block b, in time order: the backward
// direction's term from zero plus the forward direction's (the per-step
// composition's order), each row-independent; each step's rows are then
// added into that step's embedding node.
void StackedBiRecurrent::InputGradient(TrainState* state, int b) const {
  LaneTape& lane = state->lanes[static_cast<size_t>(b)];
  const int t_count = static_cast<int>(state->steps.size());
  const int rows = lane.rows;
  const int in = lane.fwd.seq_in.cols();
  const int gu = units_ * GateCount(type_);
  lane.dx.Resize(t_count * rows, in);
  if (bidirectional_) {
    const LaneTape& bwd =
        state->lanes[static_cast<size_t>(state->blocks + b)];
    const float* wt = state->levels[static_cast<size_t>(stacks_)].wx_t.data();
    for (int p = 0; p < t_count; ++p) {
      GemmAcc(bwd.levels[0].dpre.data() + static_cast<size_t>(p) * rows * gu,
              wt,
              lane.dx.data() +
                  static_cast<size_t>(t_count - 1 - p) * rows * in,
              rows, gu, in);
    }
  }
  GemmAcc(lane.levels[0].dpre.data(), state->levels[0].wx_t.data(),
          lane.dx.data(), t_count * rows, gu, in);
  const size_t block = static_cast<size_t>(rows) * in;
  for (int t = 0; t < t_count; ++t) {
    Tensor* grad = state->g->mutable_grad(state->steps[static_cast<size_t>(t)]);
    BIRNN_CHECK_EQ(grad->size(), static_cast<size_t>(state->batch) * in);
    const float* src = lane.dx.data() + static_cast<size_t>(t) * block;
    float* dst = grad->data() + static_cast<size_t>(lane.row_begin) * in;
    for (size_t k = 0; k < block; ++k) dst[k] += src[k];
  }
}

Graph::Var StackedBiRecurrent::Apply(Graph* g,
                                     const std::vector<Graph::Var>& steps,
                                     int batch, ThreadPool* pool) const {
  BIRNN_CHECK(!steps.empty());
  BIRNN_CHECK_EQ(g->value(steps[0]).rows(), batch);
  // Each cell's parameters enter the tape as leaves; the node's backward
  // adds into their gradients.
  std::vector<Graph::Var> params;
  for (Parameter* p : Params()) params.push_back(g->Param(p));
  const int dirs = bidirectional_ ? 2 : 1;
  // Row blocks per direction: one per lane the pool offers a direction (the
  // calling thread is a lane too), each a multiple of 4 rows except the
  // last (see KernelChain).
  const int lanes = pool != nullptr ? pool->num_threads() + 1 : 1;
  const int lanes_per_dir = std::max(1, lanes / dirs);
  const int block_rows = ((batch + lanes_per_dir - 1) / lanes_per_dir + 3) /
                         4 * 4;
  const int blocks = (batch + block_rows - 1) / block_rows;

  auto forward = [&](TrainState* state, Tensor* value) {
    state->g = g;
    state->steps = steps;
    state->params = params;
    state->batch = batch;
    state->blocks = blocks;
    state->lanes.resize(static_cast<size_t>(dirs * blocks));
    for (int k = 0; k < dirs * blocks; ++k) {
      LaneTape& lane = state->lanes[static_cast<size_t>(k)];
      lane.dir = k / blocks;
      lane.row_begin = (k % blocks) * block_rows;
      lane.rows = std::min(block_rows, batch - lane.row_begin);
      lane.levels.resize(static_cast<size_t>(stacks_));
    }
    ParallelFor(pool, dirs * blocks, [this, state](int64_t k) {
      ForwardLane(state, &state->lanes[static_cast<size_t>(k)]);
    });
    // concat(top_fwd, top_bwd), one lane's rows at a time.
    value->ResizeForOverwrite(batch, output_dim());
    for (const LaneTape& lane : state->lanes) {
      for (int i = 0; i < lane.rows; ++i) {
        const float* src = lane.out.data() + static_cast<size_t>(i) * units_;
        std::copy(src, src + units_,
                  value->data() +
                      static_cast<size_t>(lane.row_begin + i) * value->cols() +
                      lane.dir * units_);
      }
    }
  };
  auto backward = [this, dirs, pool](TrainState* state, const Tensor& dvalue) {
    state->levels.resize(static_cast<size_t>(dirs * stacks_));
    const Graph::Var* leaf = state->params.data();
    for (int k = 0; k < dirs * stacks_; ++k) {
      TrainState::LevelParams& lp = state->levels[static_cast<size_t>(k)];
      const RecurrentCell& cell =
          cells_[static_cast<size_t>(k / stacks_)][static_cast<size_t>(
              k % stacks_)];
      Transpose(cell.wx(), &lp.wx_t);
      Transpose(cell.wh(), &lp.wh_t);
      lp.dwx = state->g->mutable_grad(*leaf++);
      lp.dwh = state->g->mutable_grad(*leaf++);
      lp.db = state->g->mutable_grad(*leaf++);
    }
    ParallelFor(pool, static_cast<int64_t>(state->lanes.size()),
                [this, state, &dvalue](int64_t k) {
                  BackwardLane(state, &state->lanes[static_cast<size_t>(k)],
                               dvalue);
                });
    // The lanes have joined: every chain reads all of its direction's
    // blocks. The highest level's chains go first and each row block's
    // input gradient last, so the longer tasks start first.
    const int chains = 2 * dirs * stacks_;
    ParallelFor(pool, chains + state->blocks,
                [this, state, dirs, chains](int64_t k) {
                  if (k >= chains) {
                    InputGradient(state, static_cast<int>(k - chains));
                    return;
                  }
                  const int l = stacks_ - 1 - static_cast<int>(k / (2 * dirs));
                  const int d = static_cast<int>(k / 2 % dirs);
                  KernelChain(state, d, l, /*recurrent=*/k % 2 == 0);
                });
  };
  return g->Fused<TrainState>(forward, backward);
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
  if (!bidirectional_) {
    RunDirectionForward(steps, t_count, false, cells_[0], out, scratch);
    return;
  }
  RunDirectionForward(steps, t_count, false, cells_[0], &scratch->out_fwd,
                      scratch);
  RunDirectionForward(steps, t_count, true, cells_[1], &scratch->out_bwd,
                      scratch);
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

void StackedBiRecurrent::ApplyForwardIds(const std::vector<int>* ids,
                                         int t_count, int t_total,
                                         const std::vector<Tensor>& proj,
                                         const PadPrefixTrajectory& traj,
                                         Tensor* out,
                                         ForwardScratch* scratch) const {
  BIRNN_CHECK_GE(t_count, 1);
  BIRNN_CHECK_GE(t_total, t_count);
  BIRNN_CHECK_EQ(proj.size(), cells_.size());
  const int pad_count = t_total - t_count;
  if (!bidirectional_) {
    RunDirectionIds(ids, t_count, false, cells_[0], proj[0], pad_count,
                    nullptr, out, scratch);
    return;
  }
  RunDirectionIds(ids, t_count, false, cells_[0], proj[0], pad_count, nullptr,
                  &scratch->out_fwd, scratch);
  BIRNN_CHECK_LE(pad_count, traj.max_steps());
  RunDirectionIds(ids, t_count, true, cells_[1], proj[1], 0,
                  &traj.states[static_cast<size_t>(pad_count)],
                  &scratch->out_bwd, scratch);
  ConcatCols({&scratch->out_fwd, &scratch->out_bwd}, out);
}

void StackedBiRecurrent::ProjectInputTable(const Tensor& table,
                                           std::vector<Tensor>* proj) const {
  proj->resize(cells_.size());
  for (size_t d = 0; d < cells_.size(); ++d) {
    MatMul(table, cells_[d][0].wx(), &(*proj)[d]);
  }
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
