#include "data/encoding.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/hash.h"
#include "util/logging.h"

namespace birnn::data {

int EncodedDataset::effective_len(int64_t i) const {
  const int32_t* seq = seqs.data() + static_cast<size_t>(i) * max_len;
  int len = max_len;
  while (len > 0 && seq[len - 1] == 0) --len;
  return len;
}

uint64_t EncodedDataset::CellContentHash(int64_t i) const {
  // FNV-1a, mixing the attribute id, the length_norm bit pattern and the
  // character ids up to the effective length.
  uint64_t h = util::kFnv1aOffset;
  const auto mix = [&h](uint64_t v) { h = util::Fnv1aMixU64(h, v); };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(attrs[static_cast<size_t>(i)])));
  uint32_t len_bits = 0;
  static_assert(sizeof(len_bits) == sizeof(float));
  std::memcpy(&len_bits, &length_norm[static_cast<size_t>(i)], sizeof(len_bits));
  mix(len_bits);
  const int len = effective_len(i);
  mix(static_cast<uint64_t>(static_cast<uint32_t>(len)));
  const int32_t* seq = seqs.data() + static_cast<size_t>(i) * max_len;
  for (int t = 0; t < len; ++t) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(seq[t])));
  }
  return h;
}

bool EncodedDataset::CellContentEquals(int64_t a, int64_t b) const {
  if (attrs[static_cast<size_t>(a)] != attrs[static_cast<size_t>(b)]) {
    return false;
  }
  uint32_t la = 0;
  uint32_t lb = 0;
  std::memcpy(&la, &length_norm[static_cast<size_t>(a)], sizeof(la));
  std::memcpy(&lb, &length_norm[static_cast<size_t>(b)], sizeof(lb));
  if (la != lb) return false;
  return std::memcmp(seqs.data() + static_cast<size_t>(a) * max_len,
                     seqs.data() + static_cast<size_t>(b) * max_len,
                     sizeof(int32_t) * static_cast<size_t>(max_len)) == 0;
}

EncodedDataset EncodeCells(const CellFrame& frame, const CharIndex& chars,
                           int64_t* oov_chars) {
  EncodedDataset ds;
  ds.max_len = std::max(1, frame.MaxValueLength());
  ds.vocab = chars.vocab_size();
  ds.n_attrs = frame.num_attrs();

  const int64_t n = frame.num_cells();
  ds.seqs.assign(static_cast<size_t>(n) * ds.max_len, 0);
  ds.attrs.reserve(static_cast<size_t>(n));
  ds.length_norm.reserve(static_cast<size_t>(n));
  ds.labels.reserve(static_cast<size_t>(n));
  ds.row_ids.reserve(static_cast<size_t>(n));

  // Character ids go straight into each cell's padded row; characters
  // outside `chars` take the unknown index and are counted.
  int64_t oov = 0;
  int32_t* row = ds.seqs.data();
  for (const auto& cell : frame.cells()) {
    BIRNN_CHECK_LE(cell.value.size(), static_cast<size_t>(ds.max_len));
    chars.EncodeInto(cell.value, row, &oov);
    row += ds.max_len;
    ds.attrs.push_back(cell.attr);
    ds.length_norm.push_back(cell.length_norm);
    ds.labels.push_back(cell.label);
    ds.row_ids.push_back(cell.row_id);
  }
  if (oov_chars != nullptr) *oov_chars += oov;
  return ds;
}

namespace {
EncodedDataset EmptyLike(const EncodedDataset& all) {
  EncodedDataset out;
  out.max_len = all.max_len;
  out.vocab = all.vocab;
  out.n_attrs = all.n_attrs;
  return out;
}

void AppendCell(const EncodedDataset& all, int64_t i, EncodedDataset* out) {
  const size_t base = static_cast<size_t>(i) * all.max_len;
  out->seqs.insert(out->seqs.end(), all.seqs.begin() + base,
                   all.seqs.begin() + base + all.max_len);
  out->attrs.push_back(all.attrs[static_cast<size_t>(i)]);
  out->length_norm.push_back(all.length_norm[static_cast<size_t>(i)]);
  out->labels.push_back(all.labels[static_cast<size_t>(i)]);
  out->row_ids.push_back(all.row_ids[static_cast<size_t>(i)]);
}
}  // namespace

void SplitByRowIds(const EncodedDataset& all,
                   const std::vector<int64_t>& train_ids, EncodedDataset* train,
                   EncodedDataset* test) {
  std::unordered_set<int64_t> in_train(train_ids.begin(), train_ids.end());
  *train = EmptyLike(all);
  if (test != nullptr) *test = EmptyLike(all);
  for (int64_t i = 0; i < all.num_cells(); ++i) {
    if (in_train.count(all.row_ids[static_cast<size_t>(i)]) > 0) {
      AppendCell(all, i, train);
    } else if (test != nullptr) {
      AppendCell(all, i, test);
    }
  }
}

EncodedDataset TakeCells(const EncodedDataset& all,
                         const std::vector<int64_t>& indices) {
  EncodedDataset out = EmptyLike(all);
  for (int64_t i : indices) {
    BIRNN_CHECK_GE(i, 0);
    BIRNN_CHECK_LT(i, all.num_cells());
    AppendCell(all, i, &out);
  }
  return out;
}

}  // namespace birnn::data
