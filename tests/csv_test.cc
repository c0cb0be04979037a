#include <gtest/gtest.h>

#include <sstream>

#include "data/csv.h"
#include "data/table.h"
#include "util/rng.h"

namespace birnn::data {
namespace {

StatusOr<Table> Parse(const std::string& text, const CsvOptions& opt = {}) {
  std::istringstream in(text);
  return ReadCsv(in, opt);
}

TEST(TableTest, BasicOperations) {
  Table t(std::vector<std::string>{"a", "b"});
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.ColumnIndex("b"), 1);
  EXPECT_EQ(t.ColumnIndex("zz"), -1);
  ASSERT_TRUE(t.AppendRow({"1", "2"}).ok());
  EXPECT_FALSE(t.AppendRow({"1"}).ok());
  EXPECT_EQ(t.cell(0, 1), "2");
  t.set_cell(0, 1, "x");
  EXPECT_EQ(t.cell(0, 1), "x");
  EXPECT_EQ(t.Column(1), (std::vector<std::string>{"x"}));
}

TEST(CsvTest, SimpleParse) {
  auto t = Parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->num_columns(), 3);
  EXPECT_EQ(t->column_names()[1], "b");
  EXPECT_EQ(t->cell(1, 2), "6");
}

TEST(CsvTest, QuotedFieldWithComma) {
  auto t = Parse("a,b\n\"x, y\",z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "x, y");
}

TEST(CsvTest, EscapedQuotes) {
  auto t = Parse("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "he said \"hi\"");
}

TEST(CsvTest, EmbeddedNewlineInQuotes) {
  auto t = Parse("a,b\n\"line1\nline2\",z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->cell(0, 0), "line1\nline2");
}

TEST(CsvTest, CrlfLineEndings) {
  auto t = Parse("a,b\r\n1,2\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, EmptyFields) {
  auto t = Parse("a,b,c\n,,\n1,,3\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "");
  EXPECT_EQ(t->cell(1, 1), "");
  EXPECT_EQ(t->cell(1, 2), "3");
}

TEST(CsvTest, MissingFinalNewline) {
  auto t = Parse("a,b\n1,2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, RaggedRowFails) {
  EXPECT_FALSE(Parse("a,b\n1,2,3\n").ok());
  EXPECT_FALSE(Parse("a,b\n1\n").ok());
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(Parse("a\n\"oops\n").ok());
}

TEST(CsvTest, EmptyInputFails) { EXPECT_FALSE(Parse("").ok()); }

TEST(CsvTest, HeaderOnlyIsEmptyTable) {
  auto t = Parse("a,b\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 0);
  EXPECT_EQ(t->num_columns(), 2);
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions opt;
  opt.has_header = false;
  auto t = Parse("1,2\n3,4\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->column_names()[0], "col0");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions opt;
  opt.delimiter = ';';
  auto t = Parse("a;b\n1;2\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, WriteReadRoundtrip) {
  Table t(std::vector<std::string>{"name", "note"});
  ASSERT_TRUE(t.AppendRow({"plain", "with, comma"}).ok());
  ASSERT_TRUE(t.AppendRow({"quote\"inside", "multi\nline"}).ok());
  ASSERT_TRUE(t.AppendRow({"", "NaN"}).ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto parsed = ReadCsv(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(t));
}

TEST(CsvTest, FileRoundtrip) {
  Table t(std::vector<std::string>{"a"});
  ASSERT_TRUE(t.AppendRow({"x"}).ok());
  const std::string path = "/tmp/birnn_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(t));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsvFile("/no/such/file.csv").ok());
}

// Property: any table whose cells are drawn from a hostile alphabet
// (delimiters, quotes, newlines, unicode bytes) survives a write/read
// roundtrip bit-exactly.
class CsvRoundtripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundtripProperty, RandomTableSurvivesRoundtrip) {
  birnn::Rng rng(GetParam());
  static constexpr char kAlphabet[] =
      "abz019 ,\"'\n\r\t;|\\\xc3\xa9\xe2\x82\xac";  // includes é and €
  const int cols = static_cast<int>(rng.UniformRange(1, 5));
  std::vector<std::string> headers;
  for (int c = 0; c < cols; ++c) headers.push_back("c" + std::to_string(c));
  Table t(headers);
  const int rows = static_cast<int>(rng.UniformRange(1, 20));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      std::string cell;
      const int len = static_cast<int>(rng.UniformRange(0, 12));
      for (int i = 0; i < len; ++i) {
        cell += kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
      }
      row.push_back(std::move(cell));
    }
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto parsed = ReadCsv(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(t)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CsvRoundtripProperty,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace birnn::data
