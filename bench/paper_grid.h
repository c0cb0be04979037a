#ifndef BIRNN_BENCH_PAPER_GRID_H_
#define BIRNN_BENCH_PAPER_GRID_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/scheduler.h"

namespace birnn::bench {

/// Labeled cells of the Rotom baselines (§5.3; paper: 200).
inline constexpr int kRotomCells = 200;
/// Test cells sampled for the per-epoch accuracy sweep of Figs. 6 and 7.
inline constexpr int kEvalCells = 1500;
/// Trainset-selection algorithms of the sampler ablation (Algs. 1-3).
inline constexpr const char* kSamplers[] = {"randomset", "rahaset",
                                            "diverset"};
/// Value truncation lengths of the §4.1 ablation (128 is the paper's).
inline constexpr int kTruncationLengths[] = {16, 32, 64, 128, 256};

enum class GridSystem { kDetector, kRaha, kRotom, kRotomSsl };

/// One experiment of the grid: a system repeated `options.repetitions`
/// times (seeds `options.base_seed + rep`) on one dataset. Raha reads
/// `options.detector.n_label_tuples`; Rotom labels kRotomCells cells.
struct GridExperiment {
  std::string dataset;
  GridSystem system = GridSystem::kDetector;
  eval::RunnerOptions options;
};

/// (dataset, job config) of an experiment: two experiments with the same
/// key compute the same bits, so the grid holds each key once.
std::string ExperimentKey(const GridExperiment& experiment);

/// One row of a table, one series of a figure or one arm of an ablation:
/// its dataset, its label and the experiment that answers it.
struct GridCell {
  std::string dataset;
  std::string label;  ///< system, sampler, max_len, variant or cell name.
  size_t experiment = 0;  ///< index into PaperGrid::experiments.
};

/// The paper's §5 evaluation declared once: dataset × system × sampler ×
/// cell type × truncation × architecture variant, each repeated
/// config.reps times. Cells that ask for the same (dataset, job config)
/// share one experiment — Table 3's ETSB-RNN also answers Table 5, the
/// error analysis and the paper-settings arm of every ablation, and Fig. 7
/// reads Fig. 6's tracked ETSB-RNN runs.
struct PaperGrid {
  std::vector<GridExperiment> experiments;  ///< distinct keys, submit order.

  std::vector<GridCell> table3;  ///< label = system; Table 4 aggregates it.
  std::vector<GridCell> table5;  ///< TSB-RNN then ETSB-RNN per dataset.
  std::vector<GridCell> fig6;  ///< tracked TSB-RNN then ETSB-RNN.
  std::vector<GridCell> fig7;  ///< tracked ETSB-RNN.
  std::vector<GridCell> samplers;  ///< randomset, rahaset, diverset.
  std::vector<GridCell> truncation;  ///< label = max_len.
  std::vector<GridCell> architecture;  ///< label = Fig. 5 variant.
  std::vector<GridCell> cell_type;  ///< rnn, gru, lstm.
  std::vector<GridCell> error_analysis;  ///< ETSB-RNN per dataset.

  /// Every section by name, in print order.
  std::vector<std::pair<const char*, const std::vector<GridCell>*>>
  Sections() const;
};

/// Declares the grid for `config`. The truncation ablation runs on movies
/// and rayyan, the architecture and cell-type ablations on hospital and
/// beers, unless `config.datasets` names the datasets. `skip_baselines`
/// drops Raha, Rotom and Rotom+SSL from Tables 3 and 4.
PaperGrid BuildPaperGrid(const BenchConfig& config, bool skip_baselines);

/// Submits every experiment of `grid` to `scheduler` in order, so that
/// experiment i is the scheduler's ExperimentId i. `pairs` maps each
/// dataset name to its pair and must outlive the scheduler's RunAll().
void SubmitPaperGrid(const PaperGrid& grid,
                     const std::map<std::string, datagen::DatasetPair>& pairs,
                     eval::Scheduler* scheduler);

}  // namespace birnn::bench

#endif  // BIRNN_BENCH_PAPER_GRID_H_
