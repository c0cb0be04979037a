#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/prepare.h"
#include "datagen/datasets.h"
#include "sampling/sampler.h"

namespace birnn::sampling {
namespace {

/// Builds the running-example frame of Fig. 3/4: 4 tuples x 3 attributes.
/// Values chosen so tuple 0 has an empty cell and tuples share values.
data::CellFrame PaperExampleFrame() {
  data::Table dirty(std::vector<std::string>{"attr1", "attr2", "attr3"});
  // id_=0: unique values + one empty -> maximal (#unseenAttr, #empty).
  EXPECT_TRUE(dirty.AppendRow({"21", "e3", ""}).ok());
  // id_=1 and id_=2: three unseen values each after tuple 0 is removed.
  EXPECT_TRUE(dirty.AppendRow({"45", "xx", "1111"}).ok());
  EXPECT_TRUE(dirty.AppendRow({"30", "yy", "2222"}).ok());
  // id_=3: shares its values with tuple 0 and 1 -> low diversity.
  EXPECT_TRUE(dirty.AppendRow({"21", "e3", "1111"}).ok());
  data::Table clean = dirty;
  auto frame = data::PrepareData(dirty, clean);
  EXPECT_TRUE(frame.ok());
  return *frame;
}

/// The paper's 'concat' column for one cell: attribute name + value_x.
std::string ConcatKey(const data::CellFrame& frame, int64_t row_id, int attr) {
  return frame.attr_names()[static_cast<size_t>(attr)] + '\x1F' +
         frame.cell(row_id, attr).value;
}

TEST(RandomSetTest, SelectsDistinctIdsInRange) {
  const data::CellFrame frame = PaperExampleFrame();
  RandomSetSampler sampler;
  Rng rng(1);
  auto ids = sampler.Select(frame, 2, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
  std::set<int64_t> distinct(ids->begin(), ids->end());
  EXPECT_EQ(distinct.size(), 2u);
  for (int64_t id : *ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 4);
  }
}

TEST(RandomSetTest, ClampsToTupleCount) {
  const data::CellFrame frame = PaperExampleFrame();
  RandomSetSampler sampler;
  Rng rng(2);
  auto ids = sampler.Select(frame, 100, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 4u);
}

TEST(RandomSetTest, UniformCoverage) {
  const data::CellFrame frame = PaperExampleFrame();
  RandomSetSampler sampler;
  std::set<int64_t> ever_chosen;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    auto ids = sampler.Select(frame, 1, &rng);
    ASSERT_TRUE(ids.ok());
    ever_chosen.insert((*ids)[0]);
  }
  EXPECT_EQ(ever_chosen.size(), 4u);  // every tuple reachable
}

TEST(DiverSetTest, PicksMostDiverseTupleFirst) {
  // Tuple 0 ties with 1 and 2 on #unseenAttr (3 each) but wins on #empty.
  const data::CellFrame frame = PaperExampleFrame();
  DiverSetSampler sampler;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    auto ids = sampler.Select(frame, 1, &rng);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ((*ids)[0], 0) << "seed " << seed;
  }
}

TEST(DiverSetTest, SecondPickAvoidsCoveredValues) {
  // After tuple 0, tuple 3 retains only one unseen value ("1111" is shared
  // with tuple 1; "21"/"e3" are covered by tuple 0). Tuples 1 and 2 have 3
  // unseen values each, so the second pick must be 1 or 2, never 3.
  const data::CellFrame frame = PaperExampleFrame();
  DiverSetSampler sampler;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto ids = sampler.Select(frame, 2, &rng);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ((*ids)[0], 0);
    EXPECT_NE((*ids)[1], 3) << "seed " << seed;
  }
}

TEST(DiverSetTest, ReturnsRequestedCountWithoutDuplicates) {
  const data::CellFrame frame = PaperExampleFrame();
  DiverSetSampler sampler;
  Rng rng(7);
  auto ids = sampler.Select(frame, 4, &rng);
  ASSERT_TRUE(ids.ok());
  std::set<int64_t> distinct(ids->begin(), ids->end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(DiverSetTest, CoversMoreDistinctValuesThanRandom) {
  // Property from §5.2: the diverse trainset carries more distinct concat
  // values than a random one, on a dataset with many repeated values.
  datagen::GenOptions options;
  options.scale = 0.1;
  const datagen::DatasetPair pair = datagen::MakeHospital(options);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  ASSERT_TRUE(frame.ok());

  auto distinct_concats = [&](const std::vector<int64_t>& ids) {
    std::unordered_set<std::string> seen;
    for (int64_t id : ids) {
      for (int a = 0; a < frame->num_attrs(); ++a) {
        seen.insert(ConcatKey(*frame, id, a));
      }
    }
    return seen.size();
  };

  size_t diverse_total = 0;
  size_t random_total = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    DiverSetSampler diverse;
    RandomSetSampler random;
    Rng rng1(seed);
    Rng rng2(seed);
    auto div_ids = diverse.Select(*frame, 20, &rng1);
    auto rnd_ids = random.Select(*frame, 20, &rng2);
    ASSERT_TRUE(div_ids.ok());
    ASSERT_TRUE(rnd_ids.ok());
    diverse_total += distinct_concats(*div_ids);
    random_total += distinct_concats(*rnd_ids);
  }
  EXPECT_GT(diverse_total, random_total);
}

TEST(DiverSetTest, NeverUsesLabels) {
  // Two frames that differ only in labels must produce identical samples.
  data::Table dirty(std::vector<std::string>{"a", "b"});
  data::Table clean_same(std::vector<std::string>{"a", "b"});
  data::Table clean_diff(std::vector<std::string>{"a", "b"});
  for (int i = 0; i < 12; ++i) {
    const std::string v1 = "v" + std::to_string(i % 5);
    const std::string v2 = "w" + std::to_string(i % 3);
    ASSERT_TRUE(dirty.AppendRow({v1, v2}).ok());
    ASSERT_TRUE(clean_same.AppendRow({v1, v2}).ok());
    ASSERT_TRUE(clean_diff.AppendRow({v1 + "!", v2}).ok());
  }
  auto frame1 = data::PrepareData(dirty, clean_same);
  auto frame2 = data::PrepareData(dirty, clean_diff);
  ASSERT_TRUE(frame1.ok());
  ASSERT_TRUE(frame2.ok());
  DiverSetSampler sampler;
  Rng rng1(9);
  Rng rng2(9);
  auto ids1 = sampler.Select(*frame1, 5, &rng1);
  auto ids2 = sampler.Select(*frame2, 5, &rng2);
  ASSERT_TRUE(ids1.ok());
  ASSERT_TRUE(ids2.ok());
  EXPECT_EQ(*ids1, *ids2);
}

TEST(DiverSetTest, ConcatKeyClassesAttributeAndValue) {
  // Each frame's tuple 0 wins the first pick on #empty, and covers its
  // values; the second pick then shows which cells those values covered.
  const auto second_pick = [](const data::Table& dirty, uint64_t seed) {
    auto frame = data::PrepareData(dirty, dirty);
    EXPECT_TRUE(frame.ok());
    DiverSetSampler sampler;
    Rng rng(seed);
    auto ids = sampler.Select(*frame, 2, &rng);
    EXPECT_TRUE(ids.ok());
    EXPECT_EQ((*ids)[0], 0);
    return (*ids)[1];
  };
  // The same (attribute, value) in two tuples is one value: tuple 0's "v"
  // covers tuple 1's, which keeps one unseen value to tuple 2's two.
  data::Table same_value(std::vector<std::string>{"x", "y"});
  ASSERT_TRUE(same_value.AppendRow({"", "v"}).ok());
  ASSERT_TRUE(same_value.AppendRow({"a", "v"}).ok());
  ASSERT_TRUE(same_value.AppendRow({"b", "w"}).ok());
  // The same value under two attributes is two values: tuple 0's x="" and
  // y="v" cover neither of tuple 1's x="v" and y="", so tuple 1 keeps three
  // unseen values and wins on #empty.
  data::Table two_attrs(std::vector<std::string>{"x", "y", "z"});
  ASSERT_TRUE(two_attrs.AppendRow({"", "v", ""}).ok());
  ASSERT_TRUE(two_attrs.AppendRow({"v", "", "p"}).ok());
  ASSERT_TRUE(two_attrs.AppendRow({"c", "d", "e"}).ok());
  // Attributes that share a name share their values, as the concatenated
  // name + value keys do: tuple 0 covers two of tuple 1's cells.
  data::Table one_name(std::vector<std::string>{"x", "x", "z"});
  ASSERT_TRUE(one_name.AppendRow({"", "v", ""}).ok());
  ASSERT_TRUE(one_name.AppendRow({"v", "", "p"}).ok());
  ASSERT_TRUE(one_name.AppendRow({"c", "d", "e"}).ok());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(second_pick(same_value, seed), 2);
    EXPECT_EQ(second_pick(two_attrs, seed), 1);
    EXPECT_EQ(second_pick(one_name, seed), 2);
  }
}

// DiverSet as it ran before its values were interned: after each pick
// that covers a new value, every live cell's concat key (attribute name +
// value_x, built here) is looked up in the set of covered keys. The
// sampler must pick exactly what this picks.
std::vector<int64_t> ReferenceDiverSet(const data::CellFrame& frame,
                                       int n_obs, Rng* rng) {
  const int n = static_cast<int>(std::min<int64_t>(n_obs, frame.num_tuples()));
  const int64_t n_tuples = frame.num_tuples();
  std::vector<uint8_t> cell_live(frame.cells().size(), 1);
  std::vector<int> unseen_attr(static_cast<size_t>(n_tuples), 0);
  std::vector<int> empty_count(static_cast<size_t>(n_tuples), 0);
  for (const auto& cell : frame.cells()) {
    unseen_attr[static_cast<size_t>(cell.row_id)]++;
    if (cell.empty) empty_count[static_cast<size_t>(cell.row_id)]++;
  }
  std::vector<uint8_t> chosen(static_cast<size_t>(n_tuples), 0);
  std::unordered_set<std::string> seen_concats;
  std::vector<int64_t> out;
  for (int pick = 0; pick < n; ++pick) {
    int best_unseen = -1;
    int best_empty = -1;
    std::vector<int64_t> candidates;
    for (int64_t id = 0; id < n_tuples; ++id) {
      if (chosen[static_cast<size_t>(id)]) continue;
      const int u = unseen_attr[static_cast<size_t>(id)];
      const int e = empty_count[static_cast<size_t>(id)];
      if (u > best_unseen || (u == best_unseen && e > best_empty)) {
        best_unseen = u;
        best_empty = e;
        candidates.assign(1, id);
      } else if (u == best_unseen && e == best_empty) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) break;
    const int64_t sampled_id = candidates[rng->UniformInt(candidates.size())];
    chosen[static_cast<size_t>(sampled_id)] = 1;
    out.push_back(sampled_id);
    bool added_any = false;
    for (int a = 0; a < frame.num_attrs(); ++a) {
      added_any |= seen_concats.insert(ConcatKey(frame, sampled_id, a)).second;
    }
    if (!added_any) continue;
    for (size_t i = 0; i < frame.cells().size(); ++i) {
      if (!cell_live[i]) continue;
      const data::CellRecord& cell = frame.cells()[i];
      if (seen_concats.count(ConcatKey(frame, cell.row_id, cell.attr)) == 0) {
        continue;
      }
      cell_live[i] = 0;
      unseen_attr[static_cast<size_t>(cell.row_id)]--;
      if (cell.empty) empty_count[static_cast<size_t>(cell.row_id)]--;
    }
  }
  return out;
}

TEST(DiverSetTest, MatchesUninternedScan) {
  for (const char* name :
       {"beers", "flights", "hospital", "movies", "rayyan", "tax"}) {
    for (uint64_t gen_seed : {7, 8}) {
      datagen::GenOptions options;
      options.scale = 0.05;
      options.seed = gen_seed;
      auto pair = datagen::MakeDataset(name, options);
      ASSERT_TRUE(pair.ok()) << name;
      auto frame = data::PrepareData(pair->dirty, pair->clean);
      ASSERT_TRUE(frame.ok()) << name;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        for (int n_obs : {1, 5, 20}) {
          SCOPED_TRACE(std::string(name) + " gen seed " +
                       std::to_string(gen_seed) + " seed " +
                       std::to_string(seed) + " n_obs " +
                       std::to_string(n_obs));
          DiverSetSampler sampler;
          Rng rng(seed);
          Rng ref_rng(seed);
          auto ids = sampler.Select(*frame, n_obs, &rng);
          ASSERT_TRUE(ids.ok());
          EXPECT_EQ(*ids, ReferenceDiverSet(*frame, n_obs, &ref_rng));
          // Both consumed the same draws.
          EXPECT_EQ(rng.Next(), ref_rng.Next());
        }
      }
    }
  }
}

TEST(RahaSetTest, SelectsDistinctTuples) {
  datagen::GenOptions options;
  options.scale = 0.05;
  const datagen::DatasetPair pair = datagen::MakeBeers(options);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  ASSERT_TRUE(frame.ok());
  RahaSetSampler sampler;
  Rng rng(11);
  auto ids = sampler.Select(*frame, 20, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 20u);
  std::set<int64_t> distinct(ids->begin(), ids->end());
  EXPECT_EQ(distinct.size(), 20u);
}

TEST(MakeSamplerTest, FactoryDispatch) {
  EXPECT_TRUE(MakeSampler("DiverSet").ok());
  EXPECT_TRUE(MakeSampler("randomset").ok());
  EXPECT_TRUE(MakeSampler("RAHA").ok());
  EXPECT_FALSE(MakeSampler("bogus").ok());
  EXPECT_EQ((*MakeSampler("diverset"))->name(), "DiverSet");
}

TEST(SamplerTest, EmptyFrameFails) {
  data::CellFrame empty;
  RandomSetSampler random;
  DiverSetSampler diverse;
  Rng rng(1);
  EXPECT_FALSE(random.Select(empty, 5, &rng).ok());
  EXPECT_FALSE(diverse.Select(empty, 5, &rng).ok());
}

}  // namespace
}  // namespace birnn::sampling
