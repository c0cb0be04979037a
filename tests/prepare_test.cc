#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "util/threadpool.h"

namespace birnn::data {
namespace {

Table MakeDirty() {
  Table t(std::vector<std::string>{"attr1", "attr2", "attr3"});
  EXPECT_TRUE(t.AppendRow({"  21", "e3", ""}).ok());
  EXPECT_TRUE(t.AppendRow({"45", "xx", "1111"}).ok());
  EXPECT_TRUE(t.AppendRow({"30", "e3", "2222"}).ok());
  return t;
}

Table MakeClean() {
  // Dirty columns may carry different header names; prepare renames by
  // position.
  Table t(std::vector<std::string>{"a1", "a2", "a3"});
  EXPECT_TRUE(t.AppendRow({"21", "e3", "abcd"}).ok());
  EXPECT_TRUE(t.AppendRow({"45", "yy", "1111"}).ok());
  EXPECT_TRUE(t.AppendRow({"12", "e3", "2222"}).ok());
  return t;
}

TEST(PrepareTest, LongFormatShape) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_tuples(), 3);
  EXPECT_EQ(frame->num_attrs(), 3);
  EXPECT_EQ(frame->num_cells(), 9);
  // Attribute names come from the clean table.
  EXPECT_EQ(frame->attr_names()[0], "a1");
}

TEST(PrepareTest, LabelsFromValueComparison) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  // "  21" left-trimmed equals "21": correct.
  EXPECT_EQ(frame->cell(0, 0).label, 0);
  // "" vs "abcd": wrong.
  EXPECT_EQ(frame->cell(0, 2).label, 1);
  // "xx" vs "yy": wrong.
  EXPECT_EQ(frame->cell(1, 1).label, 1);
  // "30" vs "12": wrong.
  EXPECT_EQ(frame->cell(2, 0).label, 1);
  EXPECT_EQ(frame->cell(2, 2).label, 0);
}

TEST(PrepareTest, EmptyFlag) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->cell(0, 2).empty);
  EXPECT_FALSE(frame->cell(0, 0).empty);
}

TEST(PrepareTest, NanTreatedAsEmpty) {
  Table dirty(std::vector<std::string>{"a"});
  ASSERT_TRUE(dirty.AppendRow({"NaN"}).ok());
  Table clean(std::vector<std::string>{"a"});
  ASSERT_TRUE(clean.AppendRow({"x"}).ok());
  auto frame = PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->cell(0, 0).empty);

  PrepareOptions opt;
  opt.treat_nan_as_empty = false;
  auto frame2 = PrepareData(dirty, clean, opt);
  ASSERT_TRUE(frame2.ok());
  EXPECT_FALSE(frame2->cell(0, 0).empty);
}

TEST(PrepareTest, LabelCompareTrimsExactlyLeadingSpaceTabCrLf) {
  // Structure transformation trims leading ' ', '\t', '\r' and '\n' from
  // both sides before the label compare, and nothing else: not '\v' or
  // '\f', and no trailing whitespace.
  Table dirty(std::vector<std::string>{"a"});
  Table clean(std::vector<std::string>{"a"});
  const std::vector<std::pair<std::string, std::string>> rows = {
      {" \t\r\nx", "x"},  // 0: dirty side trimmed
      {"x", "\n\r\t x"},  // 1: clean side trimmed
      {"\vx", "x"},       // 2: '\v' kept
      {"\fx", "x"},       // 3: '\f' kept
      {"x ", "x"},        // 4: trailing space kept
      {" x", "x\t"},      // 5: trailing tab on the clean side kept
  };
  for (const auto& [d, c] : rows) {
    ASSERT_TRUE(dirty.AppendRow({d}).ok());
    ASSERT_TRUE(clean.AppendRow({c}).ok());
  }
  auto frame = PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  const std::vector<int> labels = {0, 0, 1, 1, 1, 1};
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(frame->cell(static_cast<int64_t>(r), 0).label, labels[r])
        << "row " << r;
  }
  // The stored value is the trimmed dirty view.
  EXPECT_EQ(frame->cell(0, 0).value, "x");
  EXPECT_EQ(frame->cell(2, 0).value, "\vx");
  EXPECT_EQ(frame->cell(4, 0).value, "x ");

  // Without the transformation both sides compare as read.
  PrepareOptions untrimmed;
  untrimmed.trim_leading_whitespace = false;
  auto raw = PrepareData(dirty, clean, untrimmed);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->cell(0, 0).label, 1);
  EXPECT_EQ(raw->cell(0, 0).value, " \t\r\nx");
}

// A frame holds one record per cell, so the record stays lean: the dirty
// value, its ids and the derived columns, with no per-cell copies of
// value_y or of the concat key.
static_assert(sizeof(void*) != 8 || sizeof(CellRecord) <= 56,
              "CellRecord grew past 56 bytes on LP64");

TEST(PrepareTest, LengthNormPerAttribute) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  // attr3 lengths: 0, 4, 4 -> norms 0, 1, 1.
  EXPECT_FLOAT_EQ(frame->cell(0, 2).length_norm, 0.0f);
  EXPECT_FLOAT_EQ(frame->cell(1, 2).length_norm, 1.0f);
  // attr1 lengths: 2,2,2 -> all 1.
  EXPECT_FLOAT_EQ(frame->cell(0, 0).length_norm, 1.0f);
}

TEST(PrepareTest, TruncationAt128ByDefault) {
  Table dirty(std::vector<std::string>{"a"});
  ASSERT_TRUE(dirty.AppendRow({std::string(300, 'x')}).ok());
  Table clean(std::vector<std::string>{"a"});
  ASSERT_TRUE(clean.AppendRow({std::string(300, 'x')}).ok());
  auto frame = PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->cell(0, 0).value.size(), 128u);
  // Truncation must not hide the (identical) values: label stays 0.
  EXPECT_EQ(frame->cell(0, 0).label, 0);
}

TEST(PrepareTest, LabelComputedBeforeTruncation) {
  // Values differing only beyond the cut must still be labeled wrong.
  Table dirty(std::vector<std::string>{"a"});
  ASSERT_TRUE(dirty.AppendRow({std::string(200, 'x') + "1"}).ok());
  Table clean(std::vector<std::string>{"a"});
  ASSERT_TRUE(clean.AppendRow({std::string(200, 'x') + "2"}).ok());
  auto frame = PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->cell(0, 0).label, 1);
}

TEST(PrepareTest, MismatchedShapesFail) {
  Table dirty(std::vector<std::string>{"a", "b"});
  Table clean(std::vector<std::string>{"a"});
  EXPECT_FALSE(PrepareData(dirty, clean).ok());

  Table dirty2(std::vector<std::string>{"a"});
  ASSERT_TRUE(dirty2.AppendRow({"1"}).ok());
  Table clean2(std::vector<std::string>{"a"});
  EXPECT_FALSE(PrepareData(dirty2, clean2).ok());
}

TEST(PrepareTest, DirtyOnlyModeHasZeroLabels) {
  auto frame = PrepareDirtyOnly(MakeDirty());
  ASSERT_TRUE(frame.ok());
  for (const auto& cell : frame->cells()) EXPECT_EQ(cell.label, 0);
  EXPECT_EQ(frame->attr_names()[0], "attr1");  // dirty names kept
}

TEST(PrepareTest, StatsHelpers) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  EXPECT_NEAR(frame->ErrorRate(), 3.0 / 9.0, 1e-9);
  EXPECT_EQ(frame->MaxValueLength(), 4);
  EXPECT_GT(frame->DistinctCharacters(), 3);
}

// -------------------------------------------------------------- CharIndex

TEST(CharIndexTest, FirstOccurrenceOrder) {
  CharIndex idx = CharIndex::BuildFromStrings({"ba", "c"});
  EXPECT_EQ(idx.IndexOf('b'), 1);
  EXPECT_EQ(idx.IndexOf('a'), 2);
  EXPECT_EQ(idx.IndexOf('c'), 3);
  EXPECT_EQ(idx.num_chars(), 3);
  EXPECT_EQ(idx.vocab_size(), 5);  // pad + 3 + unk
}

TEST(CharIndexTest, UnknownCharsMapToUnkIndex) {
  CharIndex idx = CharIndex::BuildFromStrings({"ab"});
  EXPECT_EQ(idx.IndexOf('z'), idx.unknown_index());
  EXPECT_EQ(idx.unknown_index(), 3);
}

// EncodeInto into a buffer one slot longer than `s`, which must stay -1:
// the encoder writes exactly s.size() ids.
std::vector<int32_t> EncodeIds(const CharIndex& chars, std::string_view s,
                               int64_t* oov) {
  std::vector<int32_t> ids(s.size() + 1, -1);
  chars.EncodeInto(s, ids.data(), oov);
  EXPECT_EQ(ids.back(), -1) << "EncodeInto wrote past s.size()";
  ids.pop_back();
  return ids;
}

TEST(CharIndexTest, EncodeSequence) {
  CharIndex idx = CharIndex::BuildFromStrings({"bazy"});
  int64_t oov = 0;
  // 'b'->1, 'a'->2, 'z'->3, 'y'->4 (first occurrence).
  EXPECT_EQ(EncodeIds(idx, "bazy", &oov), (std::vector<int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(EncodeIds(idx, "", &oov), (std::vector<int32_t>{}));
  EXPECT_EQ(oov, 0);
}

TEST(AttributeIndexTest, Lookup) {
  AttributeIndex idx({"a", "b", "c"});
  EXPECT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.IndexOf("b"), 1);
  EXPECT_EQ(idx.IndexOf("zz"), -1);
  EXPECT_EQ(idx.NameOf(2), "c");
}

// --------------------------------------------------------------- Encoding

TEST(EncodingTest, PaddingToGlobalMax) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  CharIndex chars = CharIndex::Build(*frame);
  EncodedDataset ds = EncodeCells(*frame, chars);
  EXPECT_EQ(ds.max_len, 4);
  EXPECT_EQ(ds.num_cells(), 9);
  EXPECT_EQ(ds.n_attrs, 3);
  EXPECT_EQ(ds.vocab, chars.vocab_size());
  // Cell (0,1) = "e3": two real ids then zero padding.
  const int64_t i = 0 * 3 + 1;
  EXPECT_GT(ds.seq_at(i, 0), 0);
  EXPECT_GT(ds.seq_at(i, 1), 0);
  EXPECT_EQ(ds.seq_at(i, 2), 0);
  EXPECT_EQ(ds.seq_at(i, 3), 0);
  // Empty value: all padding.
  const int64_t j = 0 * 3 + 2;
  for (int t = 0; t < 4; ++t) EXPECT_EQ(ds.seq_at(j, t), 0);
}

TEST(EncodingTest, SplitByRowIds) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  CharIndex chars = CharIndex::Build(*frame);
  EncodedDataset all = EncodeCells(*frame, chars);
  EncodedDataset train;
  EncodedDataset test;
  SplitByRowIds(all, {1}, &train, &test);
  EXPECT_EQ(train.num_cells(), 3);
  EXPECT_EQ(test.num_cells(), 6);
  for (int64_t r : train.row_ids) EXPECT_EQ(r, 1);
  for (int64_t r : test.row_ids) EXPECT_NE(r, 1);
  EXPECT_EQ(train.max_len, all.max_len);

  // A null test split fills the same train split and nothing else.
  EncodedDataset train_only;
  SplitByRowIds(all, {1}, &train_only, nullptr);
  EXPECT_EQ(train_only.max_len, train.max_len);
  EXPECT_EQ(train_only.vocab, train.vocab);
  EXPECT_EQ(train_only.n_attrs, train.n_attrs);
  EXPECT_EQ(train_only.seqs, train.seqs);
  EXPECT_EQ(train_only.attrs, train.attrs);
  EXPECT_EQ(train_only.length_norm, train.length_norm);
  EXPECT_EQ(train_only.labels, train.labels);
  EXPECT_EQ(train_only.row_ids, train.row_ids);
}

// ---------------------------------------------------------- OOV counting

TEST(DictionaryOovTest, CountsOutOfVocabularyCharactersExactly) {
  const CharIndex chars = CharIndex::BuildFromStrings({"abc"});
  int64_t oov = 0;
  const std::vector<int32_t> ids = EncodeIds(chars, "abcd#", &oov);
  EXPECT_EQ(oov, 2);  // 'd' and '#' were never seen
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], chars.IndexOf('a'));
  EXPECT_EQ(ids[3], chars.unknown_index());
  EXPECT_EQ(ids[4], chars.unknown_index());

  // The counter accumulates across calls rather than resetting.
  EncodeIds(chars, "##", &oov);
  EXPECT_EQ(oov, 4);

  // Empty value: nothing encoded, nothing counted.
  int64_t none = 0;
  EXPECT_TRUE(EncodeIds(chars, "", &none).empty());
  EXPECT_EQ(none, 0);
  // All-in-dictionary value leaves the counter untouched.
  EncodeIds(chars, "cba", &none);
  EXPECT_EQ(none, 0);

  // Bytes >= 0x80 index the table unsigned: a known high byte encodes to
  // its id, an unknown one to the unknown index.
  const CharIndex high = CharIndex::BuildFromStrings({"\xc3\xa9"});
  int64_t high_oov = 0;
  EXPECT_EQ(EncodeIds(high, "\xc3\xa9\xff", &high_oov),
            (std::vector<int32_t>{1, 2, high.unknown_index()}));
  EXPECT_EQ(high_oov, 1);
}

TEST(EncodingOovTest, OwnDictionaryHasNoMissesForeignCountsEveryOne) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());

  // A frame encoded against its own dictionary cannot miss.
  int64_t oov = 0;
  EncodeCells(*frame, CharIndex::Build(*frame), &oov);
  EXPECT_EQ(oov, 0);

  // Against a foreign dictionary, every prepared character that is not in
  // it counts — empty cells (including the ""-valued one in MakeDirty)
  // contribute nothing.
  const CharIndex foreign = CharIndex::BuildFromStrings({"e3"});
  int64_t expected = 0;
  for (const CellRecord& cell : frame->cells()) {
    for (const char c : cell.value) {
      if (c != 'e' && c != '3') ++expected;
    }
  }
  EXPECT_GT(expected, 0);
  int64_t misses = 0;
  const EncodedDataset ds = EncodeCells(*frame, foreign, &misses);
  EXPECT_EQ(misses, expected);
  EXPECT_EQ(ds.num_cells(), frame->num_cells());

  // A null counter is allowed and changes nothing about the encoding.
  const EncodedDataset quiet = EncodeCells(*frame, foreign, nullptr);
  EXPECT_EQ(quiet.seqs, ds.seqs);
}

TEST(EncodingOovTest, CountsAreDeterministicUnderTheThreadPool) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  const CharIndex foreign = CharIndex::BuildFromStrings({"e3"});
  int64_t serial = 0;
  EncodeCells(*frame, foreign, &serial);

  // Concurrent encodes with per-task counters: every task sees exactly the
  // serial count, independent of scheduling.
  constexpr int kTasks = 8;
  std::array<int64_t, kTasks> counts{};
  ThreadPool pool(4);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&frame, &foreign, &counts, i] {
      EncodeCells(*frame, foreign, &counts[static_cast<size_t>(i)]);
    });
  }
  pool.Wait();
  for (const int64_t count : counts) EXPECT_EQ(count, serial);
}

TEST(EncodingOovTest, EmptinessAndOovAreIndependentDimensions) {
  // treat_nan_as_empty (the default) flags a literal "NaN" as empty but
  // keeps the bytes: the 'empty' drift dimension and the character-level
  // OOV dimension account separately, so the flag must not hide the
  // characters from OOV counting.
  Table dirty(std::vector<std::string>{"a"});
  EXPECT_TRUE(dirty.AppendRow({"NaN"}).ok());
  EXPECT_TRUE(dirty.AppendRow({""}).ok());
  Table clean(std::vector<std::string>{"a"});
  EXPECT_TRUE(clean.AppendRow({"x"}).ok());
  EXPECT_TRUE(clean.AppendRow({"x"}).ok());
  auto frame = PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->cells()[0].empty);
  EXPECT_EQ(frame->cells()[0].value, "NaN");
  ASSERT_TRUE(frame->cells()[1].empty);

  const CharIndex foreign = CharIndex::BuildFromStrings({"x"});
  int64_t misses = 0;
  EncodeCells(*frame, foreign, &misses);
  EXPECT_EQ(misses, 3);  // 'N','a','N' — the truly-empty "" adds nothing
}

TEST(EncodingTest, TakeCellsPreservesOrder) {
  auto frame = PrepareData(MakeDirty(), MakeClean());
  ASSERT_TRUE(frame.ok());
  CharIndex chars = CharIndex::Build(*frame);
  EncodedDataset all = EncodeCells(*frame, chars);
  EncodedDataset subset = TakeCells(all, {4, 0, 8});
  EXPECT_EQ(subset.num_cells(), 3);
  EXPECT_EQ(subset.labels[0], all.labels[4]);
  EXPECT_EQ(subset.labels[1], all.labels[0]);
  EXPECT_EQ(subset.attrs[2], all.attrs[8]);
}

}  // namespace
}  // namespace birnn::data
