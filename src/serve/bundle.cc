#include "serve/bundle.h"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <system_error>
#include <type_traits>

#include "nn/recurrent.h"
#include "nn/serialize.h"
#include "util/file.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace birnn::serve {

namespace {

/// The manifest's first line: version 5 is the only one written or read.
constexpr char kManifestHeader[] = "birnn-detector-bundle 5";
constexpr char kBnMeanName[] = "__bn/running_mean";
constexpr char kBnVarName[] = "__bn/running_var";

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.txt";
}
std::string WeightsPath(const std::string& dir) {
  return dir + "/weights.ckpt";
}

/// The field table: every scalar manifest key, named once, in file order.
/// SaveDetectorBundle drives it with a writer and LoadDetectorBundle with a
/// reader, so the two cannot disagree on a key. The last two keys are not
/// TrainedDetector fields but digests the writer derives and the reader
/// verifies: the `chars` dictionary's fingerprint and the trailer of the
/// weights.ckpt this manifest commits.
template <typename Visitor, typename Trained>
void VisitScalars(Visitor&& v, Trained& t, uint64_t& char_fingerprint,
                  uint64_t& weights_checksum) {
  v("cell_type", t.config.cell_type);
  v("vocab", t.config.vocab);
  v("max_len", t.config.max_len);
  v("n_attrs", t.config.n_attrs);
  v("char_emb_dim", t.config.char_emb_dim);
  v("units", t.config.units);
  v("stacks", t.config.stacks);
  v("bidirectional", t.config.bidirectional);
  v("enriched", t.config.enriched);
  v("use_attr_branch", t.config.use_attr_branch);
  v("use_length_branch", t.config.use_length_branch);
  v("attr_emb_dim", t.config.attr_emb_dim);
  v("attr_units", t.config.attr_units);
  v("length_dense_dim", t.config.length_dense_dim);
  v("hidden_dense_dim", t.config.hidden_dense_dim);
  v("seed", t.config.seed);
  v("prepare_max_value_len", t.prepare.max_value_len);
  v("prepare_trim_leading_whitespace", t.prepare.trim_leading_whitespace);
  v("prepare_treat_nan_as_empty", t.prepare.treat_nan_as_empty);
  v("train_unique_cells", t.train_unique_cells);
  v("content_fingerprint", t.content_fingerprint);
  v("char_fingerprint", char_fingerprint);
  v("weights_checksum", weights_checksum);
}

template <typename T>
std::string FormatValue(T v) {
  if constexpr (std::is_same_v<T, nn::CellType>) {
    return nn::CellTypeName(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];  // the shortest exact round trip, whatever the locale.
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    return std::to_string(v);
  }
}

/// The reader's only number parsing: the whole token must be the value,
/// and it must fit the destination type (std::from_chars reports
/// out-of-range instead of narrowing).
template <typename T>
bool ParseValue(std::string_view token, T* out) {
  if constexpr (std::is_same_v<T, nn::CellType>) {
    auto type = nn::ParseCellType(std::string(token));
    if (type.ok()) *out = *type;
    return type.ok();
  } else if constexpr (std::is_same_v<T, bool>) {
    *out = token == "1";
    return token == "0" || token == "1";
  } else {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    return ec == std::errc() && ptr == end;
  }
}

/// Manifest lines grouped by key (their first token), each kept as the
/// text after the key. Scalar keys must occur once; `attr` and
/// `attr_stats` occur once per attribute.
using ManifestLines = std::map<std::string, std::vector<std::string>>;

/// Reads `path`, verifies its header and its closing `checksum` line (the
/// FNV-1a of every byte before that line), and groups its lines by key.
StatusOr<ManifestLines> ReadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const size_t seal = text.rfind("\nchecksum ");
  const size_t digits = seal + sizeof("\nchecksum ") - 1;
  uint64_t stored = 0;
  if (seal == std::string::npos || text.back() != '\n' ||
      !ParseValue(std::string_view(text).substr(digits,
                                                text.size() - digits - 1),
                  &stored)) {
    return Status::IoError("manifest has no checksum line (truncated?): " +
                           path);
  }
  if (stored != util::Fnv1a(text.data(), seal + 1)) {
    return Status::IoError(
        "manifest checksum mismatch (truncated or corrupted file): " + path);
  }
  const std::vector<std::string> lines =
      Split(std::string_view(text).substr(0, seal), '\n');
  if (lines[0] != kManifestHeader) {
    return Status::InvalidArgument("not a v5 detector bundle manifest: " +
                                   path);
  }
  ManifestLines m;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t space = lines[i].find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("malformed manifest line: " + lines[i]);
    }
    m[lines[i].substr(0, space)].push_back(lines[i].substr(space + 1));
  }
  return m;
}

/// Consumes the `chars`, `attr` and `attr_stats` lines into `t`'s
/// dictionary and per-attribute vectors (t->config holds n_attrs).
Status ParseVectorLines(ManifestLines* m, core::TrainedDetector* t) {
  const std::vector<std::string>& chars = (*m)["chars"];
  const std::vector<std::string> tok =
      chars.size() == 1 ? Split(chars[0], ' ') : std::vector<std::string>();
  int num_chars = 0;
  std::array<int, 256> table{};
  bool ok = tok.size() == 257 && ParseValue(tok[0], &num_chars);
  for (size_t c = 0; ok && c < table.size(); ++c) {
    ok = ParseValue(tok[c + 1], &table[c]);
  }
  if (!ok) return Status::InvalidArgument("missing or malformed chars line");
  BIRNN_ASSIGN_OR_RETURN(t->chars,
                         data::CharIndex::FromIndexTable(table, num_chars));

  // Exactly one attr and one attr_stats line per attribute, in index order.
  const std::vector<std::string>& attrs = (*m)["attr"];
  const std::vector<std::string>& stats = (*m)["attr_stats"];
  const size_t n = static_cast<size_t>(std::max(0, t->config.n_attrs));
  if (attrs.size() != n || stats.size() != n) {
    return Status::InvalidArgument(
        "manifest needs one attr and one attr_stats line per attribute");
  }
  t->attr_names.assign(n, "");
  t->attr_max_value_len.assign(n, 0);
  t->attr_empty_rate.assign(n, 0.0f);
  t->attr_error_rate.assign(n, 0.0f);
  for (size_t a = 0; a < n; ++a) {
    // attr <index> <max_value_len> <name: the rest of the line>
    const std::vector<std::string> attr = Split(attrs[a], ' ');
    size_t index = n;
    if (attr.size() < 3 || !ParseValue(attr[0], &index) || index != a ||
        !ParseValue(attr[1], &t->attr_max_value_len[a]) ||
        t->attr_max_value_len[a] < 0) {
      return Status::InvalidArgument("malformed attr line: " + attrs[a]);
    }
    t->attr_names[a] = attrs[a].substr(attr[0].size() + attr[1].size() + 2);
    const std::vector<std::string> stat = Split(stats[a], ' ');
    float& empty = t->attr_empty_rate[a];
    float& error = t->attr_error_rate[a];
    if (stat.size() != 3 || !ParseValue(stat[0], &index) || index != a ||
        !ParseValue(stat[1], &empty) || !ParseValue(stat[2], &error) ||
        !(empty >= 0.0f && empty <= 1.0f) ||
        !(error >= 0.0f && error <= 1.0f)) {
      return Status::InvalidArgument("malformed attr_stats line: " + stats[a]);
    }
  }
  m->erase("chars");
  m->erase("attr");
  m->erase("attr_stats");
  return Status::OK();
}

/// The one validation of a detector's persisted state, shared by the save,
/// the load and the in-memory path.
Status ValidateTrained(const core::TrainedDetector& t) {
  if (t.model == nullptr) {
    return Status::InvalidArgument("TrainedDetector has no model");
  }
  if (!t.has_frozen_stats) {
    return Status::InvalidArgument(
        "TrainedDetector carries no frozen column statistics");
  }
  const size_t n = static_cast<size_t>(t.config.n_attrs);
  if (t.attr_names.size() != n || t.attr_max_value_len.size() != n ||
      t.attr_empty_rate.size() != n || t.attr_error_rate.size() != n) {
    return Status::InvalidArgument(
        "attribute metadata does not match config.n_attrs");
  }
  return Status::OK();
}

}  // namespace

int LoadedDetector::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < trained_.attr_names.size(); ++i) {
    if (trained_.attr_names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void LoadedDetector::InitQueryDataset(data::EncodedDataset* ds) const {
  ds->seqs.clear();
  ds->attrs.clear();
  ds->length_norm.clear();
  ds->labels.clear();
  ds->row_ids.clear();
  ds->max_len = trained_.config.max_len;
  ds->vocab = trained_.config.vocab;
  ds->n_attrs = trained_.config.n_attrs;
}

Status LoadedDetector::AppendQueryCell(int attr, std::string_view raw,
                                       data::EncodedDataset* ds,
                                       EncodedCellInfo* info) const {
  if (attr < 0 || attr >= n_attrs()) {
    return Status::InvalidArgument("attribute index out of range: " +
                                   std::to_string(attr));
  }
  const data::PrepareOptions& prepare = trained_.prepare;
  // The training-time prepare pipeline, replayed on one value: trim
  // leading whitespace, truncate to the training max value length, then
  // length_norm against the training frame's per-attribute maximum (the
  // same float division as data::PrepareData).
  std::string_view value =
      prepare.trim_leading_whitespace ? TrimLeftView(raw) : raw;
  value = value.substr(
      0, static_cast<size_t>(std::max(0, prepare.max_value_len)));
  const int32_t mx = trained_.attr_max_value_len[static_cast<size_t>(attr)];
  const float length_norm =
      mx == 0 ? 0.0f
              : static_cast<float>(value.size()) / static_cast<float>(mx);
  if (info != nullptr) {
    info->prepared_len = static_cast<int>(value.size());
    info->empty = data::IsEmptyValue(value, prepare);
  }
  // A novel value can exceed the training frame's global max_len (the
  // padded sequence width the network was built for); only its first
  // max_len characters can be represented.
  value = value.substr(0, static_cast<size_t>(ds->max_len));
  const size_t base = ds->seqs.size();
  ds->seqs.resize(base + static_cast<size_t>(ds->max_len), 0);
  int64_t oov = 0;
  trained_.chars.EncodeInto(value, ds->seqs.data() + base, &oov);
  if (info != nullptr) info->oov_chars = oov;
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
    if (attr < 0 || attr >= n_attrs()) {
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
  BIRNN_RETURN_IF_ERROR(ValidateTrained(trained));
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create bundle dir " + dir + ": " +
                           std::strerror(errno));
  }

  // Weights + batch-norm running statistics (which are state, not trainable
  // parameters, and therefore ride along as pseudo entries).
  std::vector<nn::Parameter*> params = trained.model->Params();
  core::ModelSnapshot snapshot = trained.model->Snapshot();
  nn::Parameter bn_mean(kBnMeanName, std::move(snapshot.bn_mean));
  nn::Parameter bn_var(kBnVarName, std::move(snapshot.bn_var));
  params.push_back(&bn_mean);
  params.push_back(&bn_var);
  // Weights first, the manifest last: the manifest is the commit record.
  // It carries the checkpoint's trailer, so a crash between the two
  // renames leaves new weights beside the old manifest, which fails to
  // load with a typed error instead of loading as a mix.
  uint64_t char_fingerprint = trained.chars.Fingerprint();
  uint64_t weights_checksum = 0;
  BIRNN_RETURN_IF_ERROR(nn::SaveParameters(params, WeightsPath(dir),
                                           &weights_checksum));

  std::string manifest = std::string(kManifestHeader) + "\nchars " +
                         std::to_string(trained.chars.num_chars());
  for (const int idx : trained.chars.index_table()) {
    manifest += ' ' + std::to_string(idx);
  }
  manifest += '\n';
  for (size_t a = 0; a < trained.attr_names.size(); ++a) {
    manifest += "attr " + std::to_string(a) + ' ' +
                std::to_string(trained.attr_max_value_len[a]) + ' ' +
                trained.attr_names[a] + '\n';
    manifest += "attr_stats " + std::to_string(a) + ' ' +
                FormatValue(trained.attr_empty_rate[a]) + ' ' +
                FormatValue(trained.attr_error_rate[a]) + '\n';
  }
  VisitScalars(
      [&manifest](const char* key, const auto& value) {
        manifest += std::string(key) + ' ' + FormatValue(value) + '\n';
      },
      trained, char_fingerprint, weights_checksum);
  manifest += "checksum " +
              std::to_string(util::Fnv1a(manifest.data(), manifest.size())) +
              '\n';
  return util::WriteFileAtomic(ManifestPath(dir), manifest);
}

StatusOr<LoadedDetector> LoadDetectorBundle(const std::string& dir) {
  BIRNN_ASSIGN_OR_RETURN(ManifestLines m, ReadManifest(ManifestPath(dir)));
  core::TrainedDetector t;
  uint64_t char_fingerprint = 0;
  uint64_t committed_checksum = 0;
  Status status;  // the first bad key sticks.
  VisitScalars(
      [&m, &status](const char* key, auto& field) {
        if (!status.ok()) return;
        const auto it = m.find(key);
        if (it == m.end() || it->second.size() != 1 ||
            !ParseValue(it->second[0], &field)) {
          status = Status::InvalidArgument(
              std::string("manifest key ") + key +
              " is missing, repeated or malformed");
        } else {
          m.erase(it);
        }
      },
      t, char_fingerprint, committed_checksum);
  BIRNN_RETURN_IF_ERROR(status);
  BIRNN_RETURN_IF_ERROR(ParseVectorLines(&m, &t));
  if (!m.empty()) {
    return Status::InvalidArgument("unknown manifest key: " + m.begin()->first);
  }
  BIRNN_RETURN_IF_ERROR(t.config.Validate());
  if (t.chars.vocab_size() != t.config.vocab) {
    return Status::InvalidArgument("dictionary size does not match vocab");
  }
  if (char_fingerprint != t.chars.Fingerprint()) {
    return Status::InvalidArgument(
        "char_fingerprint does not match the manifest dictionary");
  }

  // The weights file bounds the model a manifest may ask for, so a crafted
  // config cannot make the constructor allocate memory no checkpoint backs.
  struct stat st;
  if (::stat(WeightsPath(dir).c_str(), &st) != 0) {
    return Status::IoError("cannot stat " + WeightsPath(dir));
  }
  if (sizeof(float) * core::ErrorDetectionModel::ParameterCount(t.config) >
      static_cast<double>(st.st_size)) {
    return Status::InvalidArgument("manifest config needs more parameter "
                                   "bytes than weights.ckpt holds: " + dir);
  }

  t.model = std::make_unique<core::ErrorDetectionModel>(t.config);
  std::vector<nn::Parameter*> params = t.model->Params();
  const std::vector<int> bn_shape{t.config.hidden_dense_dim};
  nn::Parameter bn_mean(kBnMeanName, nn::Tensor(bn_shape));
  nn::Parameter bn_var(kBnVarName, nn::Tensor(bn_shape));
  params.push_back(&bn_mean);
  params.push_back(&bn_var);
  uint64_t weights_checksum = 0;
  BIRNN_RETURN_IF_ERROR(
      nn::LoadParameters(WeightsPath(dir), params, &weights_checksum));
  if (weights_checksum != committed_checksum) {
    return Status::IoError(
        "weights.ckpt is not the checkpoint the manifest commits (torn "
        "bundle): " + dir);
  }
  t.model->SetBatchNormStats(std::move(bn_mean.value), std::move(bn_var.value));
  t.has_frozen_stats = true;
  return MakeLoadedDetector(std::move(t));
}

StatusOr<LoadedDetector> MakeLoadedDetector(core::TrainedDetector trained) {
  BIRNN_RETURN_IF_ERROR(ValidateTrained(trained));
  trained.train_unique_cells = std::max<int64_t>(0, trained.train_unique_cells);
  LoadedDetector det;
  det.trained_ = std::move(trained);
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
