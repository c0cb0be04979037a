#include "nn/recurrent.h"

#include <algorithm>
#include <cmath>
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

void RecurrentCell::GruGateTail(const Tensor& xg, const Tensor& hg,
                                const RecurrentTensors& prev,
                                RecurrentTensors* out, float* gates) const {
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
      if (gates != nullptr) {
        float* row = gates + static_cast<size_t>(i) * 3 * u;
        row[j] = z;
        row[u + j] = r;
        row[2 * u + j] = cand;
      }
    }
  }
}

void RecurrentCell::LstmGateTail(const Tensor& pre,
                                 const RecurrentTensors& prev,
                                 RecurrentTensors* out, float* gates) const {
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
      const float in_gate = sigmoid(pre.at(i, j) + bias[j]);
      const float forget = sigmoid(pre.at(i, u + j) + bias[u + j]);
      const float cand = std::tanh(pre.at(i, 2 * u + j) + bias[2 * u + j]);
      const float out_gate = sigmoid(pre.at(i, 3 * u + j) + bias[3 * u + j]);
      const float c_new = forget * prev.c.at(i, j) + in_gate * cand;
      out->c.at(i, j) = c_new;
      out->h.at(i, j) = out_gate * std::tanh(c_new);
      if (gates != nullptr) {
        float* row = gates + static_cast<size_t>(i) * 4 * u;
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
  // Project the input, then run the recurrent projection + gate tail via
  // the shared pre-projected step so both entry points are one code path
  // (and therefore trivially bit-identical).
  MatMul(x, wx_.value, &scratch->z1);
  StepForwardPre(prev, out, scratch);
}

void RecurrentCell::StepForwardPre(const RecurrentTensors& prev,
                                   RecurrentTensors* out,
                                   StepScratch* scratch, float* gates) const {
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
      GruGateTail(xg, hg, prev, out, gates);
      return;
    }
    case CellType::kLstm: {
      Tensor& pre = scratch->z1;
      MatMulAcc(prev.h, wh_.value, &pre);
      LstmGateTail(pre, prev, out, gates);
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

// One direction of a fused training node. Every stacked tensor holds all
// steps in processing order (block p is the p-th step the recurrence
// consumes), and every tensor keeps its capacity across minibatches.
struct StackedBiRecurrent::DirectionTape {
  struct Level {
    Tensor h;      ///< outputs.
    Tensor c;      ///< LSTM cell states.
    Tensor gates;  ///< GRU/LSTM activated gates.
    Tensor hg;     ///< GRU recurrent projections h·Wh.
    Tensor dpre;   ///< d(input pre-activation x·Wx).
    Tensor dhg;    ///< GRU d(recurrent pre-activation h·Wh).
    Tensor dh;     ///< running d(state h) of one step.
    Tensor dc;     ///< running d(LSTM cell) of one step.
    Tensor wx_t;   ///< Wx transposed, once per node.
    Tensor wh_t;   ///< Wh transposed, once per node.
    /// Gradient buffers of the node's parameter leaves for this level.
    Tensor* dwx = nullptr;
    Tensor* dwh = nullptr;
    Tensor* db = nullptr;
  };
  ForwardScratch fwd;  ///< fwd.seq_in holds the level-0 inputs.
  std::vector<Level> levels;
  Tensor out;  ///< final top-level state.
};

struct StackedBiRecurrent::TrainState : Graph::FusedState {
  Graph* g = nullptr;
  std::vector<Graph::Var> steps;
  std::vector<Graph::Var> params;  ///< Params() order: dir, level, wx/wh/b.
  DirectionTape dir[2];
  Tensor dx;  ///< level-0 input gradient, all steps stacked in time order.
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

bool HasWorkers(const ThreadPool* pool) {
  return pool != nullptr && pool->num_threads() > 0;
}
}  // namespace

void StackedBiRecurrent::RunLevels(int batch, int total,
                                   const std::vector<RecurrentCell>& cells,
                                   const std::vector<RecurrentTensors>* warm,
                                   Tensor* out, ForwardScratch* scratch,
                                   DirectionTape* tape) const {
  std::vector<RecurrentTensors>& state = scratch->state;
  if (state.size() < cells.size()) state.resize(cells.size());
  RecurrentTensors& next = scratch->next;
  const Tensor* level_in = &scratch->seq_in;
  for (size_t l = 0; l < cells.size(); ++l) {
    const RecurrentCell& cell = cells[l];
    const int u = cell.units();
    // Time-step-batched input projection: all `total` step batches of this
    // level share one weights-load of Wx in a single GEMM.
    MatMul(*level_in, cell.wx(), &scratch->xz);
    const int zcols = scratch->xz.cols();
    const size_t zblock = static_cast<size_t>(batch) * zcols;
    const size_t hblock = static_cast<size_t>(batch) * u;

    if (warm != nullptr) {
      // Warm start: the all-pad prefix state, identical for every row.
      BroadcastRow((*warm)[l].h, batch, &state[l].h);
      if (cell.type() == CellType::kLstm) {
        BroadcastRow((*warm)[l].c, batch, &state[l].c);
      }
    } else {
      // Resize() zero-fills while reusing capacity — the initial state.
      state[l].h.Resize(batch, u);
      if (cell.type() == CellType::kLstm) state[l].c.Resize(batch, u);
    }

    // The level's outputs feed the next level's projection and, when
    // training, backward. The next level reads them only in its GEMM above,
    // so one buffer serves every level of an inference pass.
    DirectionTape::Level* rec =
        tape != nullptr ? &tape->levels[l] : nullptr;
    Tensor* seq = nullptr;
    float* gates = nullptr;
    if (rec != nullptr) {
      seq = &rec->h;
      if (cell.type() != CellType::kVanilla) {
        rec->gates.ResizeForOverwrite(total * batch, zcols);
        gates = rec->gates.data();
      }
      if (cell.type() == CellType::kGru) {
        rec->hg.ResizeForOverwrite(total * batch, zcols);
      }
      if (cell.type() == CellType::kLstm) {
        rec->c.ResizeForOverwrite(total * batch, u);
      }
    } else if (l + 1 < cells.size()) {
      seq = &scratch->seq_out;
    }
    if (seq != nullptr) seq->ResizeForOverwrite(total * batch, u);

    for (int p = 0; p < total; ++p) {
      // This step's slice of the batched projection becomes the step's
      // pre-activation buffer (consumed in place by StepForwardPre).
      scratch->step.z1.ResizeForOverwrite(batch, zcols);
      const float* src = scratch->xz.data() + static_cast<size_t>(p) * zblock;
      std::copy(src, src + zblock, scratch->step.z1.data());
      cell.StepForwardPre(state[l], &next, &scratch->step,
                          gates == nullptr ? nullptr
                                           : gates + static_cast<size_t>(p) *
                                                         zblock);
      // StepForwardPre fully overwrites `next`, so swapping buffers instead
      // of copying is bit-identical.
      std::swap(state[l].h, next.h);
      if (cell.type() == CellType::kLstm) std::swap(state[l].c, next.c);
      if (seq != nullptr) CopyBlock(state[l].h.data(), hblock, p, seq->data());
      if (rec != nullptr && cell.type() == CellType::kLstm) {
        CopyBlock(state[l].c.data(), hblock, p, rec->c.data());
      }
      if (rec != nullptr && cell.type() == CellType::kGru) {
        CopyBlock(scratch->step.z2.data(), zblock, p, rec->hg.data());
      }
    }
    if (seq != nullptr) level_in = seq;
  }
  *out = state.back().h;
}

void StackedBiRecurrent::RunDirectionForward(
    const Tensor* steps, int t_count, bool backward_direction,
    const std::vector<RecurrentCell>& cells, const Tensor* tail_step,
    int tail_count, const std::vector<RecurrentTensors>* warm, Tensor* out,
    ForwardScratch* scratch) const {
  const int batch = steps[0].rows();
  const int total = t_count + tail_count;
  // Stack every step's input batch in PROCESSING order: stacked row block p
  // is the input the recurrence consumes at its p-th step (forward: step p,
  // then the pad tail; backward: step t_count-1-p).
  const int in0 = steps[0].cols();
  scratch->seq_in.ResizeForOverwrite(total * batch, in0);
  for (int p = 0; p < total; ++p) {
    const Tensor* src;
    if (backward_direction) {
      src = &steps[t_count - 1 - p];
    } else {
      src = p < t_count ? &steps[p] : tail_step;
    }
    BIRNN_CHECK_EQ(src->rows(), batch);
    CopyBlock(src->data(), src->size(), p, scratch->seq_in.data());
  }
  RunLevels(batch, total, cells, warm, out, scratch, nullptr);
}

void StackedBiRecurrent::ForwardLane(TrainState* state, int d) const {
  DirectionTape& tape = state->dir[d];
  const int t_count = static_cast<int>(state->steps.size());
  const Tensor& first = state->g->value(state->steps[0]);
  const int batch = first.rows();
  tape.fwd.seq_in.ResizeForOverwrite(t_count * batch, first.cols());
  for (int p = 0; p < t_count; ++p) {
    const int t = d == 1 ? t_count - 1 - p : p;
    const Tensor& x = state->g->value(state->steps[static_cast<size_t>(t)]);
    BIRNN_CHECK_EQ(x.rows(), batch);
    BIRNN_CHECK_EQ(x.cols(), first.cols());
    CopyBlock(x.data(), x.size(), p, tape.fwd.seq_in.data());
  }
  RunLevels(batch, t_count, cells_[static_cast<size_t>(d)], nullptr, &tape.out,
            &tape.fwd, &tape);
}

// Backpropagation through time for direction `d`, in the per-element
// accumulation order of a tape of one fused tanh step node per (step,
// level, direction) walked in reverse, so that vanilla gradients are
// bit-identical to that composition (DESIGN.md §6, "Fused recurrence"):
// steps in descending order and, within a step, levels in descending order;
// a level's step gradient receives the recurrent term from the step after
// it before the input term from the level above; the parameter kernels
// accumulate one B-row step segment at a time, in descending step order.
void StackedBiRecurrent::BackwardLane(TrainState* state, int d,
                                      const Tensor& dvalue) const {
  DirectionTape& tape = state->dir[d];
  const std::vector<RecurrentCell>& cells = cells_[static_cast<size_t>(d)];
  std::vector<DirectionTape::Level>& levels = tape.levels;
  const int t_count = static_cast<int>(state->steps.size());
  const int batch = tape.out.rows();
  const int u = units_;
  const int gu = u * GateCount(type_);
  const size_t hblock = static_cast<size_t>(batch) * u;
  const size_t zblock = static_cast<size_t>(batch) * gu;

  for (size_t l = 0; l < levels.size(); ++l) {
    DirectionTape::Level& lv = levels[l];
    Transpose(cells[l].wx(), &lv.wx_t);
    Transpose(cells[l].wh(), &lv.wh_t);
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
      const float* src = dvalue.data() + static_cast<size_t>(i) * cols + d * u;
      for (int j = 0; j < u; ++j) top[static_cast<size_t>(i) * u + j] += src[j];
    }
  }

  for (int p = t_count - 1; p >= 0; --p) {
    for (size_t l = levels.size(); l-- > 0;) {
      DirectionTape::Level& lv = levels[l];
      float* __restrict dh = lv.dh.data();
      float* __restrict dz = lv.dpre.data() + p * zblock;
      float* __restrict db = lv.db->data();
      // The recurrent kernel's gradient input, d(h·Wh): d(x·Wx) except in
      // the GRU's reset-scaled candidate block.
      const float* drec = dz;
      switch (type_) {
        case CellType::kVanilla: {
          const float* __restrict y = lv.h.data() + p * hblock;
          for (int i = 0; i < batch; ++i) {
            const size_t off = static_cast<size_t>(i) * u;
            for (int j = 0; j < u; ++j) {
              const float yv = y[off + j];
              const float g = dh[off + j] * (1.0f - yv * yv);
              dz[off + j] = g;
              db[j] += g;
            }
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
              db[j] += dzg;
              db[u + j] += drg;
              db[2 * u + j] += dn;
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
              const float di = dct * gg * ig * (1.0f - ig);
              const float df = dct * cp * fg * (1.0f - fg);
              const float dg = dct * ig * (1.0f - gg * gg);
              const float dog = dhv * tc * og * (1.0f - og);
              dz[goff + j] = di;
              dz[goff + u + j] = df;
              dz[goff + 2 * u + j] = dg;
              dz[goff + 3 * u + j] = dog;
              db[j] += di;
              db[u + j] += df;
              db[2 * u + j] += dg;
              db[3 * u + j] += dog;
              dc[off + j] = dct * fg;
            }
          }
          break;
        }
      }
      // Input term into the level below at this step; that gradient already
      // holds its recurrent term from step p + 1.
      if (l > 0) {
        GemmAcc(dz, lv.wx_t.data(), levels[l - 1].dh.data(), batch, gu, u);
      }
      // Recurrent term: this level's gradient at step p - 1.
      if (p > 0) {
        if (type_ != CellType::kGru) lv.dh.Zero();
        GemmAcc(drec, lv.wh_t.data(), dh, batch, gu, u);
      }
    }
  }

  // Parameter kernels, one B-row step segment per call in descending step
  // order. One GEMM over all t_count * batch rows would regroup the
  // reduction's 4-blocks whenever batch % 4 != 0 and move bits.
  for (size_t l = 0; l < levels.size(); ++l) {
    DirectionTape::Level& lv = levels[l];
    const Tensor& x = l == 0 ? tape.fwd.seq_in : levels[l - 1].h;
    const int in = x.cols();
    const float* drec =
        type_ == CellType::kGru ? lv.dhg.data() : lv.dpre.data();
    for (int p = t_count - 1; p >= 0; --p) {
      GemmTransposeAAcc(x.data() + static_cast<size_t>(p) * batch * in,
                        lv.dpre.data() + p * zblock, lv.dwx->data(), batch, in,
                        gu);
      // Step 0's previous state is zero: its Wh term adds nothing.
      if (p > 0) {
        GemmTransposeAAcc(lv.h.data() + (p - 1) * hblock, drec + p * zblock,
                          lv.dwh->data(), batch, u, gu);
      }
    }
  }

  // The backward direction's level-0 input gradient, from zero and in time
  // order (the forward direction's is added after the join).
  if (d == 1) {
    const int in = tape.fwd.seq_in.cols();
    state->dx.Resize(t_count * batch, in);
    for (int p = 0; p < t_count; ++p) {
      GemmAcc(levels[0].dpre.data() + p * zblock, levels[0].wx_t.data(),
              state->dx.data() +
                  static_cast<size_t>(t_count - 1 - p) * batch * in,
              batch, gu, in);
    }
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
  const bool parallel = bidirectional_ && HasWorkers(pool);

  auto forward = [&](TrainState* state, Tensor* value) {
    state->g = g;
    state->steps = steps;
    state->params = params;
    for (int d = 0; d < dirs; ++d) {
      state->dir[d].levels.resize(static_cast<size_t>(stacks_));
    }
    if (parallel) {
      pool->Submit([this, state] { ForwardLane(state, 1); });
      ForwardLane(state, 0);
      pool->Wait();
    } else {
      for (int d = 0; d < dirs; ++d) ForwardLane(state, d);
    }
    if (bidirectional_) {
      ConcatCols({&state->dir[0].out, &state->dir[1].out}, value);
    } else {
      *value = state->dir[0].out;
    }
  };
  auto backward = [this, dirs, parallel, pool](TrainState* state,
                                               const Tensor& dvalue) {
    Graph* graph = state->g;
    const Graph::Var* leaf = state->params.data();
    for (int d = 0; d < dirs; ++d) {
      for (DirectionTape::Level& level : state->dir[d].levels) {
        level.dwx = graph->mutable_grad(*leaf++);
        level.dwh = graph->mutable_grad(*leaf++);
        level.db = graph->mutable_grad(*leaf++);
      }
    }
    if (parallel) {
      pool->Submit([this, state, &dvalue] { BackwardLane(state, 1, dvalue); });
      BackwardLane(state, 0, dvalue);
      pool->Wait();
    } else {
      for (int d = dirs - 1; d >= 0; --d) BackwardLane(state, d, dvalue);
    }
    // Level-0 input gradients: the forward direction's term is added to the
    // backward direction's, the order of the per-step composition.
    const DirectionTape& fwd = state->dir[0];
    const int t_count = static_cast<int>(state->steps.size());
    const int batch = fwd.out.rows();
    const int in = fwd.fwd.seq_in.cols();
    if (!bidirectional_) state->dx.Resize(t_count * batch, in);
    const DirectionTape::Level& level0 = fwd.levels[0];
    GemmAcc(level0.dpre.data(), level0.wx_t.data(), state->dx.data(),
            t_count * batch, level0.dpre.cols(), in);
    const size_t block = static_cast<size_t>(batch) * in;
    for (int t = 0; t < t_count; ++t) {
      Tensor* grad = graph->mutable_grad(state->steps[static_cast<size_t>(t)]);
      BIRNN_CHECK_EQ(grad->size(), block);
      const float* src = state->dx.data() + static_cast<size_t>(t) * block;
      float* dst = grad->data();
      for (size_t k = 0; k < block; ++k) dst[k] += src[k];
    }
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
    RunDirectionForward(steps, t_count, false, cells_[0], nullptr, 0, nullptr,
                        out, scratch);
    return;
  }
  RunDirectionForward(steps, t_count, false, cells_[0], nullptr, 0, nullptr,
                      &scratch->out_fwd, scratch);
  RunDirectionForward(steps, t_count, true, cells_[1], nullptr, 0, nullptr,
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
  if (!bidirectional_) {
    RunDirectionForward(steps, t_count, false, cells_[0], &pad_step,
                        pad_count, nullptr, out, scratch);
    return;
  }
  RunDirectionForward(steps, t_count, false, cells_[0], &pad_step, pad_count,
                      nullptr, &scratch->out_fwd, scratch);
  BIRNN_CHECK_LE(pad_count, traj.max_steps());
  RunDirectionForward(steps, t_count, true, cells_[1], nullptr, 0,
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
