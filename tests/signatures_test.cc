// Error-signature tests for the remaining generators (movies, rayyan, tax)
// plus scheduler-level coverage of the repeated baselines — the
// §5.1/§5.5 signatures the character models key on must actually appear in
// the generated data.

#include <gtest/gtest.h>

#include <set>

#include "datagen/datasets.h"
#include "eval/scheduler.h"
#include "util/string_util.h"

namespace birnn::datagen {
namespace {

/// Collects (clean, dirty) pairs for all corrupted cells of a column.
std::vector<std::pair<std::string, std::string>> CorruptedCells(
    const DatasetPair& pair, const char* column) {
  const int col = pair.clean.ColumnIndex(column);
  EXPECT_GE(col, 0) << column;
  std::vector<std::pair<std::string, std::string>> out;
  for (int r = 0; r < pair.clean.num_rows(); ++r) {
    if (pair.dirty.cell(r, col) != pair.clean.cell(r, col)) {
      out.emplace_back(pair.clean.cell(r, col), pair.dirty.cell(r, col));
    }
  }
  return out;
}

TEST(MoviesSignatureTest, DurationMissingValuesAreNaN) {
  GenOptions gen;
  gen.scale = 0.05;
  const DatasetPair pair = MakeMovies(gen);
  for (const auto& [clean, dirty] : CorruptedCells(pair, "duration")) {
    EXPECT_EQ(dirty, "NaN") << clean;
    EXPECT_TRUE(EndsWith(clean, " min"));
  }
}

TEST(MoviesSignatureTest, RatingCountGetsThousandsSeparators) {
  GenOptions gen;
  gen.scale = 0.1;
  const DatasetPair pair = MakeMovies(gen);
  for (const auto& [clean, dirty] : CorruptedCells(pair, "rating_count")) {
    EXPECT_NE(dirty.find(','), std::string::npos) << clean << "->" << dirty;
    // Removing the commas restores the clean value.
    std::string stripped;
    for (char c : dirty) {
      if (c != ',') stripped += c;
    }
    EXPECT_EQ(stripped, clean);
  }
}

TEST(MoviesSignatureTest, CreatorLosesLeadingParts) {
  GenOptions gen;
  gen.scale = 0.1;
  const DatasetPair pair = MakeMovies(gen);
  for (const auto& [clean, dirty] : CorruptedCells(pair, "creator")) {
    // 'Roger Kumble' instead of 'Choderlos de Laclos, Roger Kumble': the
    // dirty value is a suffix of the clean one.
    EXPECT_TRUE(clean.size() > dirty.size() &&
                clean.substr(clean.size() - dirty.size()) == dirty)
        << clean << " -> " << dirty;
  }
}

TEST(RayyanSignatureTest, PaginationDropsSharedPrefix) {
  GenOptions gen;
  gen.scale = 0.3;
  const DatasetPair pair = MakeRayyan(gen);
  for (const auto& [clean, dirty] :
       CorruptedCells(pair, "article_pagination")) {
    // '70-76' -> '70-6': same start page, truncated end page.
    const std::string clean_start = clean.substr(0, clean.find('-'));
    const std::string dirty_start = dirty.substr(0, dirty.find('-'));
    EXPECT_EQ(clean_start, dirty_start) << clean << " -> " << dirty;
    EXPECT_LT(dirty.size(), clean.size());
  }
}

TEST(RayyanSignatureTest, IssueSwapsOrGoesMissing) {
  GenOptions gen;
  gen.scale = 0.3;
  const DatasetPair pair = MakeRayyan(gen);
  int missing = 0;
  int swapped = 0;
  for (const auto& [clean, dirty] : CorruptedCells(pair, "journal_issue")) {
    if (dirty.empty() || dirty == "NaN") {
      ++missing;
    } else if (dirty.find('-') != std::string::npos) {
      // 'Mar-22' <-> '22-Mar': both halves preserved.
      const size_t cd = clean.find('-');
      const size_t dd = dirty.find('-');
      EXPECT_EQ(clean.substr(0, cd), dirty.substr(dd + 1));
      ++swapped;
    }
  }
  EXPECT_GT(missing + swapped, 0);
}

TEST(TaxSignatureTest, CleanZipsAreFiveDigits) {
  GenOptions gen;
  gen.scale = 0.001;
  const DatasetPair pair = MakeTax(gen);
  const int zip = pair.clean.ColumnIndex("zip");
  for (int r = 0; r < pair.clean.num_rows(); ++r) {
    EXPECT_EQ(pair.clean.cell(r, zip).size(), 5u);
    EXPECT_TRUE(IsAllDigits(pair.clean.cell(r, zip)));
  }
}

TEST(TaxSignatureTest, CleanRatesAreWholePercentages) {
  GenOptions gen;
  gen.scale = 0.001;
  const DatasetPair pair = MakeTax(gen);
  const int rate = pair.clean.ColumnIndex("rate");
  for (int r = 0; r < pair.clean.num_rows(); ++r) {
    EXPECT_TRUE(IsAllDigits(pair.clean.cell(r, rate)))
        << pair.clean.cell(r, rate);
  }
}

TEST(TaxSignatureTest, MaritalChildConsistencyInCleanData) {
  // The FD the VAD errors violate must hold in the clean table:
  // has_child == "Y" implies marital_status == "M" and child_exemp > 0.
  GenOptions gen;
  gen.scale = 0.002;
  const DatasetPair pair = MakeTax(gen);
  const int marital = pair.clean.ColumnIndex("marital_status");
  const int child = pair.clean.ColumnIndex("has_child");
  const int exemp = pair.clean.ColumnIndex("child_exemp");
  for (int r = 0; r < pair.clean.num_rows(); ++r) {
    if (pair.clean.cell(r, child) == "Y") {
      EXPECT_EQ(pair.clean.cell(r, marital), "M");
      EXPECT_NE(pair.clean.cell(r, exemp), "0");
    } else {
      EXPECT_EQ(pair.clean.cell(r, exemp), "0");
    }
  }
}

}  // namespace
}  // namespace birnn::datagen

namespace birnn::eval {
namespace {

TEST(RunnerBaselineTest, RepeatedRahaAggregates) {
  datagen::GenOptions gen;
  gen.scale = 0.08;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  Scheduler scheduler;
  const Scheduler::ExperimentId id = scheduler.SubmitRaha(pair, 2, 15, 500);
  scheduler.RunAll();
  const RepeatedResult result = scheduler.Take(id);
  EXPECT_EQ(result.system, "Raha");
  EXPECT_EQ(result.dataset, "hospital");
  EXPECT_EQ(result.runs.size(), 2u);
  EXPECT_GT(result.f1.mean, 0.3);
  EXPECT_GT(result.train_seconds.mean, 0.0);
}

TEST(RunnerBaselineTest, RepeatedRotomAggregatesBothVariants) {
  datagen::GenOptions gen;
  gen.scale = 0.08;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  Scheduler scheduler;
  const Scheduler::ExperimentId plain_id =
      scheduler.SubmitRotom(pair, 2, 150, /*ssl=*/false, 600);
  const Scheduler::ExperimentId ssl_id =
      scheduler.SubmitRotom(pair, 2, 150, /*ssl=*/true, 600);
  scheduler.RunAll();
  const RepeatedResult plain = scheduler.Take(plain_id);
  const RepeatedResult ssl = scheduler.Take(ssl_id);
  EXPECT_EQ(plain.system, "Rotom");
  EXPECT_EQ(ssl.system, "Rotom+SSL");
  EXPECT_EQ(plain.runs.size(), 2u);
  EXPECT_EQ(ssl.runs.size(), 2u);
  EXPECT_GT(plain.f1.mean, 0.2);
}

}  // namespace
}  // namespace birnn::eval
