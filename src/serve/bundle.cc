#include "serve/bundle.h"

#include <sys/stat.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "nn/recurrent.h"
#include "nn/serialize.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace birnn::serve {

namespace {

constexpr char kManifestHeader[] = "birnn-detector-bundle";
/// Version 2 = model architecture + encoding state only.
constexpr int kBundleVersion = 2;
/// Version 3 = manifest additionally carries frozen train-time column
/// statistics: a `char_fingerprint` line (dictionary integrity check) and
/// one `attr_stats` line per attribute (empty/error-rate drift baselines).
/// Streaming delta sessions require a v3 bundle; v2 still loads for batch
/// detection.
constexpr int kBundleVersionStream = 3;
constexpr char kBnMeanName[] = "__bn/running_mean";
constexpr char kBnVarName[] = "__bn/running_var";

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.txt";
}
std::string WeightsPath(const std::string& dir) {
  return dir + "/weights.ckpt";
}

/// Key/value view of the manifest: single-valued lines keyed by their first
/// token, plus the repeated `attr` lines collected separately.
struct Manifest {
  int version = 0;
  std::map<std::string, std::string> values;
  struct Attr {
    int index = 0;
    int32_t max_value_len = 0;
    std::string name;
  };
  std::vector<Attr> attrs;
  struct AttrStats {
    int index = 0;
    float empty_rate = 0.0f;
    float error_rate = 0.0f;
  };
  std::vector<AttrStats> attr_stats;

  StatusOr<std::string> Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) {
      return Status::InvalidArgument("manifest missing key: " + key);
    }
    return it->second;
  }
  StatusOr<int64_t> GetInt(const std::string& key) const {
    BIRNN_ASSIGN_OR_RETURN(std::string text, Get(key));
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("manifest key " + key +
                                     " is not an integer: " + text);
    }
    return static_cast<int64_t>(v);
  }
};

StatusOr<Manifest> ReadManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open manifest: " + path);
  Manifest m;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (first) {
      int version = -1;
      ls >> version;
      if (key != kManifestHeader ||
          (version != kBundleVersion && version != kBundleVersionStream)) {
        return Status::InvalidArgument(
            "not a v" + std::to_string(kBundleVersion) + "-v" +
            std::to_string(kBundleVersionStream) +
            " detector bundle manifest: " + path);
      }
      m.version = version;
      first = false;
      continue;
    }
    if (key == "attr") {
      Manifest::Attr attr;
      ls >> attr.index >> attr.max_value_len;
      if (!ls) return Status::InvalidArgument("malformed attr line: " + line);
      std::getline(ls, attr.name);
      attr.name = TrimLeft(attr.name);
      m.attrs.push_back(std::move(attr));
      continue;
    }
    if (key == "attr_stats") {
      Manifest::AttrStats stats;
      ls >> stats.index >> stats.empty_rate >> stats.error_rate;
      if (!ls) {
        return Status::InvalidArgument("malformed attr_stats line: " + line);
      }
      m.attr_stats.push_back(stats);
      continue;
    }
    std::string rest;
    std::getline(ls, rest);
    m.values[key] = std::string(TrimLeft(rest));
  }
  if (first) return Status::InvalidArgument("empty manifest: " + path);
  return m;
}

}  // namespace

int LoadedDetector::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < attr_names_.size(); ++i) {
    if (attr_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void LoadedDetector::InitQueryDataset(data::EncodedDataset* ds) const {
  *ds = data::EncodedDataset();
  ds->max_len = config_.max_len;
  ds->vocab = config_.vocab;
  ds->n_attrs = config_.n_attrs;
}

Status LoadedDetector::AppendQueryCell(int attr, const std::string& raw,
                                       data::EncodedDataset* ds,
                                       EncodedCellInfo* info) const {
  if (attr < 0 || attr >= config_.n_attrs) {
    return Status::InvalidArgument("attribute index out of range: " +
                                   std::to_string(attr));
  }
  // The training-time prepare pipeline, replayed on one value: trim
  // leading whitespace, truncate to the training max value length, then
  // length_norm against the training frame's per-attribute maximum (the
  // same float division as data::PrepareData).
  std::string value = prepare_.trim_leading_whitespace ? TrimLeft(raw) : raw;
  if (static_cast<int>(value.size()) > prepare_.max_value_len) {
    value.resize(static_cast<size_t>(prepare_.max_value_len));
  }
  const int32_t mx = attr_max_value_len_[static_cast<size_t>(attr)];
  const float length_norm =
      mx == 0 ? 0.0f
              : static_cast<float>(value.size()) / static_cast<float>(mx);
  if (info != nullptr) {
    info->prepared_len = static_cast<int>(value.size());
    info->empty = value.empty() ||
                  (prepare_.treat_nan_as_empty &&
                   (value == "NaN" || value == "nan"));
  }
  // A novel value can exceed the training frame's global max_len (the
  // padded sequence width the network was built for); only its first
  // max_len characters can be represented.
  if (static_cast<int>(value.size()) > ds->max_len) {
    value.resize(static_cast<size_t>(ds->max_len));
  }
  int64_t oov = 0;
  const std::vector<int> ids = chars_.Encode(value, &oov);
  if (info != nullptr) info->oov_chars = oov;
  const size_t base = ds->seqs.size();
  ds->seqs.resize(base + static_cast<size_t>(ds->max_len), 0);
  for (size_t t = 0; t < ids.size(); ++t) ds->seqs[base + t] = ids[t];
  ds->attrs.push_back(attr);
  ds->length_norm.push_back(length_norm);
  ds->labels.push_back(0);
  ds->row_ids.push_back(static_cast<int64_t>(ds->attrs.size()) - 1);
  return Status::OK();
}

StatusOr<data::EncodedDataset> LoadedDetector::EncodeQueries(
    const std::vector<CellQuery>& cells) const {
  data::EncodedDataset ds;
  InitQueryDataset(&ds);
  ds.seqs.reserve(cells.size() * static_cast<size_t>(ds.max_len));
  ds.attrs.reserve(cells.size());
  ds.length_norm.reserve(cells.size());
  ds.labels.reserve(cells.size());
  ds.row_ids.reserve(cells.size());
  for (const CellQuery& q : cells) {
    int attr = q.attr;
    if (attr < 0 && !q.attr_name.empty()) attr = AttrIndex(q.attr_name);
    if (attr < 0 || attr >= config_.n_attrs) {
      return Status::InvalidArgument(
          q.attr_name.empty()
              ? "attribute index out of range: " + std::to_string(q.attr)
              : "unknown attribute: " + q.attr_name);
    }
    BIRNN_RETURN_IF_ERROR(AppendQueryCell(attr, q.value, &ds));
  }
  return ds;
}

Status SaveDetectorBundle(const core::TrainedDetector& trained,
                          const std::string& dir) {
  if (trained.model == nullptr) {
    return Status::InvalidArgument("TrainedDetector has no model");
  }
  const core::ModelConfig& config = trained.config;
  if (static_cast<int>(trained.attr_names.size()) != config.n_attrs ||
      static_cast<int>(trained.attr_max_value_len.size()) != config.n_attrs) {
    return Status::InvalidArgument(
        "attribute metadata does not match config.n_attrs");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create bundle dir " + dir + ": " +
                           std::strerror(errno));
  }

  if (trained.has_frozen_stats &&
      (static_cast<int>(trained.attr_empty_rate.size()) != config.n_attrs ||
       static_cast<int>(trained.attr_error_rate.size()) != config.n_attrs)) {
    return Status::InvalidArgument(
        "frozen column statistics do not match config.n_attrs");
  }

  std::ofstream out(ManifestPath(dir));
  if (!out) return Status::IoError("cannot write " + ManifestPath(dir));
  const int version =
      trained.has_frozen_stats ? kBundleVersionStream : kBundleVersion;
  out << kManifestHeader << ' ' << version << '\n';
  out << "cell_type " << nn::CellTypeName(config.cell_type) << '\n';
  out << "vocab " << config.vocab << '\n';
  out << "max_len " << config.max_len << '\n';
  out << "n_attrs " << config.n_attrs << '\n';
  out << "char_emb_dim " << config.char_emb_dim << '\n';
  out << "units " << config.units << '\n';
  out << "stacks " << config.stacks << '\n';
  out << "bidirectional " << (config.bidirectional ? 1 : 0) << '\n';
  out << "enriched " << (config.enriched ? 1 : 0) << '\n';
  out << "use_attr_branch " << (config.use_attr_branch ? 1 : 0) << '\n';
  out << "use_length_branch " << (config.use_length_branch ? 1 : 0) << '\n';
  out << "attr_emb_dim " << config.attr_emb_dim << '\n';
  out << "attr_units " << config.attr_units << '\n';
  out << "length_dense_dim " << config.length_dense_dim << '\n';
  out << "hidden_dense_dim " << config.hidden_dense_dim << '\n';
  out << "seed " << config.seed << '\n';
  out << "prepare_max_value_len " << trained.prepare.max_value_len << '\n';
  out << "prepare_trim_leading_whitespace "
      << (trained.prepare.trim_leading_whitespace ? 1 : 0) << '\n';
  out << "prepare_treat_nan_as_empty "
      << (trained.prepare.treat_nan_as_empty ? 1 : 0) << '\n';
  // Optional memo pre-size hint + provenance (ReadManifest ignores unknown
  // keys, so old loaders skip these; omitted when the detector predates
  // them, keeping the historical byte layout for such bundles).
  if (trained.train_unique_cells > 0) {
    out << "train_unique_cells " << trained.train_unique_cells << '\n';
  }
  if (trained.content_fingerprint != 0) {
    out << "content_fingerprint " << trained.content_fingerprint << '\n';
  }
  out << "chars " << trained.chars.num_chars();
  for (const int idx : trained.chars.index_table()) out << ' ' << idx;
  out << '\n';
  for (int a = 0; a < config.n_attrs; ++a) {
    out << "attr " << a << ' '
        << trained.attr_max_value_len[static_cast<size_t>(a)] << ' '
        << trained.attr_names[static_cast<size_t>(a)] << '\n';
  }
  if (trained.has_frozen_stats) {
    // v3 frozen column statistics: the dictionary fingerprint ties the
    // `chars` line to the exact train-time index table (a corrupted or
    // hand-edited manifest fails fast instead of silently desyncing the
    // streaming encoder), and the per-attribute rates are the drift
    // baselines. %.9g round-trips any float exactly.
    out << "char_fingerprint " << trained.chars.Fingerprint() << '\n';
    char buf[96];
    for (int a = 0; a < config.n_attrs; ++a) {
      std::snprintf(buf, sizeof(buf), "attr_stats %d %.9g %.9g", a,
                    static_cast<double>(
                        trained.attr_empty_rate[static_cast<size_t>(a)]),
                    static_cast<double>(
                        trained.attr_error_rate[static_cast<size_t>(a)]));
      out << buf << '\n';
    }
  }
  if (!out) return Status::IoError("write failed: " + ManifestPath(dir));
  out.close();

  // Weights + batch-norm running statistics (which are state, not trainable
  // parameters, and therefore ride along as pseudo entries).
  std::vector<nn::Parameter*> params = trained.model->Params();
  core::ModelSnapshot snapshot = trained.model->Snapshot();
  nn::Parameter bn_mean(kBnMeanName, std::move(snapshot.bn_mean));
  nn::Parameter bn_var(kBnVarName, std::move(snapshot.bn_var));
  params.push_back(&bn_mean);
  params.push_back(&bn_var);
  // Quantize once at save time; every loader then installs the blobs
  // instead of re-deriving them.
  std::vector<nn::TypedEntry> extras;
  trained.model->ExportQuantized(&extras);
  return nn::SaveParameters(params, WeightsPath(dir), extras);
}

StatusOr<LoadedDetector> LoadDetectorBundle(const std::string& dir) {
  BIRNN_ASSIGN_OR_RETURN(Manifest m, ReadManifest(ManifestPath(dir)));

  core::ModelConfig config;
  BIRNN_ASSIGN_OR_RETURN(std::string cell_type, m.Get("cell_type"));
  BIRNN_ASSIGN_OR_RETURN(config.cell_type, nn::ParseCellType(cell_type));
  BIRNN_ASSIGN_OR_RETURN(int64_t vocab, m.GetInt("vocab"));
  BIRNN_ASSIGN_OR_RETURN(int64_t max_len, m.GetInt("max_len"));
  BIRNN_ASSIGN_OR_RETURN(int64_t n_attrs, m.GetInt("n_attrs"));
  BIRNN_ASSIGN_OR_RETURN(int64_t char_emb_dim, m.GetInt("char_emb_dim"));
  BIRNN_ASSIGN_OR_RETURN(int64_t units, m.GetInt("units"));
  BIRNN_ASSIGN_OR_RETURN(int64_t stacks, m.GetInt("stacks"));
  BIRNN_ASSIGN_OR_RETURN(int64_t bidirectional, m.GetInt("bidirectional"));
  BIRNN_ASSIGN_OR_RETURN(int64_t enriched, m.GetInt("enriched"));
  BIRNN_ASSIGN_OR_RETURN(int64_t use_attr, m.GetInt("use_attr_branch"));
  BIRNN_ASSIGN_OR_RETURN(int64_t use_length, m.GetInt("use_length_branch"));
  BIRNN_ASSIGN_OR_RETURN(int64_t attr_emb_dim, m.GetInt("attr_emb_dim"));
  BIRNN_ASSIGN_OR_RETURN(int64_t attr_units, m.GetInt("attr_units"));
  BIRNN_ASSIGN_OR_RETURN(int64_t length_dense, m.GetInt("length_dense_dim"));
  BIRNN_ASSIGN_OR_RETURN(int64_t hidden_dense, m.GetInt("hidden_dense_dim"));
  BIRNN_ASSIGN_OR_RETURN(int64_t seed, m.GetInt("seed"));
  config.vocab = static_cast<int>(vocab);
  config.max_len = static_cast<int>(max_len);
  config.n_attrs = static_cast<int>(n_attrs);
  config.char_emb_dim = static_cast<int>(char_emb_dim);
  config.units = static_cast<int>(units);
  config.stacks = static_cast<int>(stacks);
  config.bidirectional = bidirectional != 0;
  config.enriched = enriched != 0;
  config.use_attr_branch = use_attr != 0;
  config.use_length_branch = use_length != 0;
  config.attr_emb_dim = static_cast<int>(attr_emb_dim);
  config.attr_units = static_cast<int>(attr_units);
  config.length_dense_dim = static_cast<int>(length_dense);
  config.hidden_dense_dim = static_cast<int>(hidden_dense);
  config.seed = static_cast<uint64_t>(seed);
  BIRNN_RETURN_IF_ERROR(config.Validate());

  LoadedDetector det;
  det.config_ = config;

  BIRNN_ASSIGN_OR_RETURN(std::string chars_line, m.Get("chars"));
  {
    std::istringstream cs(chars_line);
    int num_chars = -1;
    cs >> num_chars;
    std::array<int, 256> table{};
    for (int c = 0; c < 256; ++c) cs >> table[static_cast<size_t>(c)];
    if (!cs) return Status::InvalidArgument("malformed chars line");
    BIRNN_ASSIGN_OR_RETURN(det.chars_,
                           data::CharIndex::FromIndexTable(table, num_chars));
    if (det.chars_.vocab_size() != config.vocab) {
      return Status::InvalidArgument("dictionary size does not match vocab");
    }
  }

  det.attr_names_.assign(static_cast<size_t>(config.n_attrs), "");
  det.attr_max_value_len_.assign(static_cast<size_t>(config.n_attrs), -1);
  for (const Manifest::Attr& attr : m.attrs) {
    if (attr.index < 0 || attr.index >= config.n_attrs ||
        attr.max_value_len < 0) {
      return Status::InvalidArgument("attr line out of range");
    }
    det.attr_names_[static_cast<size_t>(attr.index)] = attr.name;
    det.attr_max_value_len_[static_cast<size_t>(attr.index)] =
        attr.max_value_len;
  }
  for (const int32_t mx : det.attr_max_value_len_) {
    if (mx < 0) return Status::InvalidArgument("manifest missing attr line");
  }

  BIRNN_ASSIGN_OR_RETURN(int64_t max_value_len,
                         m.GetInt("prepare_max_value_len"));
  BIRNN_ASSIGN_OR_RETURN(int64_t trim,
                         m.GetInt("prepare_trim_leading_whitespace"));
  BIRNN_ASSIGN_OR_RETURN(int64_t nan_empty,
                         m.GetInt("prepare_treat_nan_as_empty"));
  det.prepare_.max_value_len = static_cast<int>(max_value_len);
  det.prepare_.trim_leading_whitespace = trim != 0;
  det.prepare_.treat_nan_as_empty = nan_empty != 0;

  // Optional keys (absent in pre-PR-8 bundles; both default to 0).
  if (m.values.count("train_unique_cells") > 0) {
    BIRNN_ASSIGN_OR_RETURN(int64_t unique_cells,
                           m.GetInt("train_unique_cells"));
    det.expected_unique_cells_ = std::max<int64_t>(0, unique_cells);
  }
  if (m.values.count("content_fingerprint") > 0) {
    const std::string& text = m.values.at("content_fingerprint");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument(
          "manifest key content_fingerprint is not an integer: " + text);
    }
    det.content_fingerprint_ = static_cast<uint64_t>(v);
  }

  // v3: frozen column statistics. The dictionary fingerprint is verified
  // against the reconstructed CharIndex — a v3 bundle whose chars line no
  // longer matches its fingerprint is rejected rather than risking a
  // streaming encoder that disagrees with the train-time one.
  if (m.version >= kBundleVersionStream) {
    BIRNN_ASSIGN_OR_RETURN(std::string fp_text, m.Get("char_fingerprint"));
    errno = 0;
    char* end = nullptr;
    const unsigned long long fp = std::strtoull(fp_text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument(
          "manifest key char_fingerprint is not an integer: " + fp_text);
    }
    if (static_cast<uint64_t>(fp) != det.chars_.Fingerprint()) {
      return Status::InvalidArgument(
          "char_fingerprint does not match the manifest dictionary");
    }
    det.attr_empty_rate_.assign(static_cast<size_t>(config.n_attrs), -1.0f);
    det.attr_error_rate_.assign(static_cast<size_t>(config.n_attrs), -1.0f);
    for (const Manifest::AttrStats& stats : m.attr_stats) {
      if (stats.index < 0 || stats.index >= config.n_attrs) {
        return Status::InvalidArgument("attr_stats line out of range");
      }
      det.attr_empty_rate_[static_cast<size_t>(stats.index)] =
          stats.empty_rate;
      det.attr_error_rate_[static_cast<size_t>(stats.index)] =
          stats.error_rate;
    }
    for (const float r : det.attr_empty_rate_) {
      if (r < 0.0f) {
        return Status::InvalidArgument("manifest missing attr_stats line");
      }
    }
    det.has_frozen_stats_ = true;
  }

  det.model_ = std::make_unique<core::ErrorDetectionModel>(config);
  std::vector<nn::Parameter*> params = det.model_->Params();
  nn::Parameter bn_mean(kBnMeanName,
                        nn::Tensor(std::vector<int>{config.hidden_dense_dim}));
  nn::Parameter bn_var(kBnVarName,
                       nn::Tensor(std::vector<int>{config.hidden_dense_dim}));
  params.push_back(&bn_mean);
  params.push_back(&bn_var);
  std::vector<nn::TypedEntry> extras;
  BIRNN_RETURN_IF_ERROR(
      nn::LoadParameters(WeightsPath(dir), params, &extras));
  det.model_->SetBatchNormStats(std::move(bn_mean.value),
                                std::move(bn_var.value));
  if (!extras.empty()) {
    BIRNN_RETURN_IF_ERROR(det.model_->ImportQuantized(std::move(extras)));
  }
  return det;
}

StatusOr<LoadedDetector> MakeLoadedDetector(core::TrainedDetector trained) {
  if (trained.model == nullptr) {
    return Status::InvalidArgument("TrainedDetector has no model");
  }
  if (static_cast<int>(trained.attr_names.size()) != trained.config.n_attrs ||
      static_cast<int>(trained.attr_max_value_len.size()) !=
          trained.config.n_attrs) {
    return Status::InvalidArgument(
        "attribute metadata does not match config.n_attrs");
  }
  LoadedDetector det;
  det.config_ = trained.config;
  det.model_ = std::move(trained.model);
  det.chars_ = trained.chars;
  det.attr_names_ = std::move(trained.attr_names);
  det.attr_max_value_len_ = std::move(trained.attr_max_value_len);
  det.prepare_ = trained.prepare;
  det.expected_unique_cells_ = std::max<int64_t>(0, trained.train_unique_cells);
  det.content_fingerprint_ = trained.content_fingerprint;
  if (trained.has_frozen_stats) {
    if (static_cast<int>(trained.attr_empty_rate.size()) !=
            trained.config.n_attrs ||
        static_cast<int>(trained.attr_error_rate.size()) !=
            trained.config.n_attrs) {
      return Status::InvalidArgument(
          "frozen column statistics do not match config.n_attrs");
    }
    det.attr_empty_rate_ = std::move(trained.attr_empty_rate);
    det.attr_error_rate_ = std::move(trained.attr_error_rate);
    det.has_frozen_stats_ = true;
  }
  return det;
}

void AppendDataset(const data::EncodedDataset& src, data::EncodedDataset* dst) {
  BIRNN_CHECK_EQ(src.max_len, dst->max_len);
  BIRNN_CHECK_EQ(src.n_attrs, dst->n_attrs);
  dst->seqs.insert(dst->seqs.end(), src.seqs.begin(), src.seqs.end());
  dst->attrs.insert(dst->attrs.end(), src.attrs.begin(), src.attrs.end());
  dst->length_norm.insert(dst->length_norm.end(), src.length_norm.begin(),
                          src.length_norm.end());
  dst->labels.insert(dst->labels.end(), src.labels.begin(), src.labels.end());
  dst->row_ids.insert(dst->row_ids.end(), src.row_ids.begin(),
                      src.row_ids.end());
}

}  // namespace birnn::serve
