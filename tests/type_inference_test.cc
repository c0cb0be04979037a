#include <gtest/gtest.h>

#include "data/type_inference.h"
#include "datagen/datasets.h"

namespace birnn::data {
namespace {

TEST(ClassifyValueTest, EmptySpellings) {
  EXPECT_EQ(ClassifyValue(""), ValueType::kEmpty);
  EXPECT_EQ(ClassifyValue("  "), ValueType::kEmpty);
  EXPECT_EQ(ClassifyValue("NaN"), ValueType::kEmpty);
  EXPECT_EQ(ClassifyValue("n/a"), ValueType::kEmpty);
  EXPECT_EQ(ClassifyValue("null"), ValueType::kEmpty);
  EXPECT_EQ(ClassifyValue("-"), ValueType::kEmpty);
}

TEST(ClassifyValueTest, Integers) {
  EXPECT_EQ(ClassifyValue("0"), ValueType::kInteger);
  EXPECT_EQ(ClassifyValue("42"), ValueType::kInteger);
  EXPECT_EQ(ClassifyValue("-7"), ValueType::kInteger);
  EXPECT_EQ(ClassifyValue("+13"), ValueType::kInteger);
  EXPECT_EQ(ClassifyValue("01907"), ValueType::kInteger);
}

TEST(ClassifyValueTest, Decimals) {
  EXPECT_EQ(ClassifyValue("0.061"), ValueType::kDecimal);
  EXPECT_EQ(ClassifyValue("-3.5"), ValueType::kDecimal);
  EXPECT_EQ(ClassifyValue("1e3"), ValueType::kDecimal);
}

TEST(ClassifyValueTest, Times) {
  EXPECT_EQ(ClassifyValue("6:55 a.m."), ValueType::kTime);
  EXPECT_EQ(ClassifyValue("12:30 p.m."), ValueType::kTime);
  EXPECT_EQ(ClassifyValue("18:55"), ValueType::kTime);
  EXPECT_NE(ClassifyValue("6:5"), ValueType::kTime);      // one minute digit
  EXPECT_NE(ClassifyValue("ab:55"), ValueType::kTime);    // non-digit hour
  EXPECT_NE(ClassifyValue("6:55 oclock"), ValueType::kTime);
}

TEST(ClassifyValueTest, Dates) {
  EXPECT_EQ(ClassifyValue("12/02/2011"), ValueType::kDate);
  EXPECT_EQ(ClassifyValue("12/02/2011 6:55 a.m."), ValueType::kDate);
  EXPECT_EQ(ClassifyValue("22-Mar"), ValueType::kDate);
  EXPECT_EQ(ClassifyValue("Mar-22"), ValueType::kDate);
  EXPECT_EQ(ClassifyValue("1 June 2005"), ValueType::kDate);
  // Month word without digits is text.
  EXPECT_EQ(ClassifyValue("March"), ValueType::kText);
}

TEST(ClassifyValueTest, Text) {
  EXPECT_EQ(ClassifyValue("San Francisco"), ValueType::kText);
  EXPECT_EQ(ClassifyValue("12.0 oz"), ValueType::kText);
  EXPECT_EQ(ClassifyValue("0.061%"), ValueType::kText);
}

TEST(InferColumnTypeTest, DominantTypeAndDominance) {
  Table t(std::vector<std::string>{"num"});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t.AppendRow({std::to_string(i)}).ok());
  }
  ASSERT_TRUE(t.AppendRow({"oops"}).ok());
  ASSERT_TRUE(t.AppendRow({""}).ok());
  const ColumnTypeInfo info = InferColumnType(t, 0);
  EXPECT_EQ(info.dominant, ValueType::kInteger);
  EXPECT_NEAR(info.dominance, 8.0 / 9.0, 1e-9);
  EXPECT_EQ(info.empty_count, 1);
  EXPECT_EQ(info.total_count, 10);
  EXPECT_TRUE(info.IsNumeric());
}

TEST(InferColumnTypeTest, MixedIntDecimalCountsAsDecimal) {
  Table t(std::vector<std::string>{"x"});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.AppendRow({"7"}).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t.AppendRow({"7.5"}).ok());
  const ColumnTypeInfo info = InferColumnType(t, 0);
  EXPECT_EQ(info.dominant, ValueType::kDecimal);
  EXPECT_DOUBLE_EQ(info.dominance, 1.0);
  EXPECT_TRUE(info.IsNumeric());
}

TEST(InferColumnTypeTest, TextColumnIsNotNumeric) {
  Table t(std::vector<std::string>{"city"});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({"Portland"}).ok());
  }
  const ColumnTypeInfo info = InferColumnType(t, 0);
  EXPECT_EQ(info.dominant, ValueType::kText);
  EXPECT_FALSE(info.IsNumeric());
}

TEST(InferColumnTypeTest, AllEmptyColumn) {
  Table t(std::vector<std::string>{"x"});
  ASSERT_TRUE(t.AppendRow({""}).ok());
  ASSERT_TRUE(t.AppendRow({"NaN"}).ok());
  const ColumnTypeInfo info = InferColumnType(t, 0);
  EXPECT_EQ(info.dominant, ValueType::kEmpty);
  EXPECT_FALSE(info.IsNumeric());
}

TEST(InferAllColumnTypesTest, RealisticDataset) {
  datagen::GenOptions gen;
  gen.scale = 0.05;
  const datagen::DatasetPair pair = datagen::MakeFlights(gen);
  ASSERT_EQ(pair.clean.num_columns(), 7);
  std::vector<ColumnTypeInfo> types;
  for (int c = 0; c < pair.clean.num_columns(); ++c) {
    types.push_back(InferColumnType(pair.clean, c));
  }
  // The four time columns must be recognized as times.
  for (const char* col : {"sched_dep_time", "act_dep_time",
                          "sched_arr_time", "act_arr_time"}) {
    const int c = pair.clean.ColumnIndex(col);
    EXPECT_EQ(types[static_cast<size_t>(c)].dominant, ValueType::kTime)
        << col;
  }
  // Source and flight id are text.
  EXPECT_EQ(types[static_cast<size_t>(pair.clean.ColumnIndex("src"))].dominant,
            ValueType::kText);
}

TEST(ValueTypeNameTest, AllNamed) {
  EXPECT_STREQ(ValueTypeName(ValueType::kEmpty), "empty");
  EXPECT_STREQ(ValueTypeName(ValueType::kInteger), "integer");
  EXPECT_STREQ(ValueTypeName(ValueType::kDecimal), "decimal");
  EXPECT_STREQ(ValueTypeName(ValueType::kDate), "date");
  EXPECT_STREQ(ValueTypeName(ValueType::kTime), "time");
  EXPECT_STREQ(ValueTypeName(ValueType::kText), "text");
}

}  // namespace
}  // namespace birnn::data
