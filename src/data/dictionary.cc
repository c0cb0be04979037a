#include "data/dictionary.h"

#include "util/hash.h"

namespace birnn::data {

CharIndex CharIndex::Build(const CellFrame& frame) {
  CharIndex idx;
  for (const auto& cell : frame.cells()) {
    for (char c : cell.value) {
      const auto u = static_cast<unsigned char>(c);
      if (idx.index_of_[u] == 0) {
        idx.index_of_[u] = ++idx.num_chars_;
      }
    }
  }
  return idx;
}

CharIndex CharIndex::BuildFromStrings(const std::vector<std::string>& values) {
  CharIndex idx;
  for (const auto& v : values) {
    for (char c : v) {
      const auto u = static_cast<unsigned char>(c);
      if (idx.index_of_[u] == 0) {
        idx.index_of_[u] = ++idx.num_chars_;
      }
    }
  }
  return idx;
}

StatusOr<CharIndex> CharIndex::FromIndexTable(const std::array<int, 256>& table,
                                              int num_chars) {
  if (num_chars < 0 || num_chars > 256) {
    return Status::InvalidArgument("char dictionary count out of range");
  }
  std::array<int, 256> seen{};
  for (int c = 0; c < 256; ++c) {
    const int idx = table[static_cast<size_t>(c)];
    if (idx == 0) continue;
    if (idx < 1 || idx > num_chars) {
      return Status::InvalidArgument("char index entry out of range");
    }
    if (seen[static_cast<size_t>(idx - 1)]++ > 0) {
      return Status::InvalidArgument("duplicate char index entry");
    }
  }
  for (int i = 0; i < num_chars; ++i) {
    if (seen[static_cast<size_t>(i)] == 0) {
      return Status::InvalidArgument("unused char index slot");
    }
  }
  CharIndex idx;
  idx.index_of_ = table;
  idx.num_chars_ = num_chars;
  return idx;
}

int CharIndex::IndexOf(char c) const {
  const int i = index_of_[static_cast<unsigned char>(c)];
  return i == 0 ? unknown_index() : i;
}

void CharIndex::EncodeInto(std::string_view s, int32_t* out,
                           int64_t* oov_chars) const {
  const int unknown = unknown_index();
  int64_t oov = 0;
  for (const char c : s) {
    const int idx = IndexOf(c);
    if (idx == unknown) ++oov;
    *out++ = idx;
  }
  *oov_chars += oov;
}

uint64_t CharIndex::Fingerprint() const {
  uint64_t h = util::kFnv1aOffset;
  const auto mix = [&h](uint64_t v) { h = util::Fnv1aMixU64(h, v); };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(num_chars_)));
  for (int c = 0; c < 256; ++c) {
    mix(static_cast<uint64_t>(
        static_cast<uint32_t>(index_of_[static_cast<size_t>(c)])));
  }
  return h;
}

int AttributeIndex::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace birnn::data
