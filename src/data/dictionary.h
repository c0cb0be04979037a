#ifndef BIRNN_DATA_DICTIONARY_H_
#define BIRNN_DATA_DICTIONARY_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/prepare.h"

namespace birnn::data {

/// The paper's *value dictionary* (char_index): maps each character that
/// occurs in value_x to an index 1..N. Index 0 is reserved as the padding /
/// end indicator; unseen characters at encode time map to a dedicated
/// unknown index N+1 (so deployment data cannot crash the embedding).
class CharIndex {
 public:
  CharIndex() { index_of_.fill(0); }

  /// Builds the dictionary from every value in `frame`, assigning indexes
  /// in first-occurrence order (deterministic given the frame).
  static CharIndex Build(const CellFrame& frame);

  /// Builds from an explicit list of strings (tests, custom corpora).
  static CharIndex BuildFromStrings(const std::vector<std::string>& values);

  /// Reconstructs a dictionary from its serialized state (index table +
  /// count), as stored in a detector bundle. `table[c]` must be 0 or a
  /// value in 1..num_chars, with every value in that range used exactly
  /// once; violations are rejected.
  static StatusOr<CharIndex> FromIndexTable(const std::array<int, 256>& table,
                                            int num_chars);

  /// The raw byte -> index table backing IndexOf (0 = not in dictionary).
  /// Together with num_chars() this is the dictionary's full state — what
  /// a detector bundle persists.
  const std::array<int, 256>& index_table() const { return index_of_; }

  /// Index for a character: 1..N if known, unknown_index() otherwise.
  int IndexOf(char c) const;

  /// Encodes `s` into `out[0 .. s.size())`, one character index per byte
  /// (no padding; `out` must have room for s.size() ids). Characters absent
  /// from the dictionary map to the reserved unknown_index() —
  /// deterministically, never to a data-dependent slot — and `*oov_chars` is
  /// advanced by how many such characters were seen. The one encoder of
  /// both training frames (EncodeCells) and serving cells
  /// (serve::LoadedDetector::AppendQueryCell); streaming ingest uses the
  /// count to detect character-distribution drift.
  void EncodeInto(std::string_view s, int32_t* out, int64_t* oov_chars) const;

  /// Order-sensitive FNV-1a fingerprint of the dictionary's full state
  /// (num_chars + the 256-entry index table). Two dictionaries encode every
  /// string identically iff their fingerprints match; bundles persist it so
  /// a streaming session can prove its encoder is the train-time one.
  uint64_t Fingerprint() const;

  /// Number of distinct characters in the dictionary (paper's Table 2
  /// "Different Characters" column).
  int num_chars() const { return num_chars_; }

  /// Index used for characters outside the dictionary.
  int unknown_index() const { return num_chars_ + 1; }

  /// Total embedding vocabulary: pad(0) + chars + unknown.
  int vocab_size() const { return num_chars_ + 2; }

 private:
  std::array<int, 256> index_of_;
  int num_chars_ = 0;
};

/// The paper's *attribute dictionary* (attribute_index): attribute name to
/// index. Attribute ids feed the ETSB-RNN metadata branch.
class AttributeIndex {
 public:
  explicit AttributeIndex(std::vector<std::string> attr_names)
      : names_(std::move(attr_names)) {}

  static AttributeIndex Build(const CellFrame& frame) {
    return AttributeIndex(frame.attr_names());
  }

  /// Index of a named attribute, or -1 if absent.
  int IndexOf(const std::string& name) const;

  const std::string& NameOf(int index) const {
    return names_[static_cast<size_t>(index)];
  }

  int size() const { return static_cast<int>(names_.size()); }

 private:
  std::vector<std::string> names_;
};

}  // namespace birnn::data

#endif  // BIRNN_DATA_DICTIONARY_H_
