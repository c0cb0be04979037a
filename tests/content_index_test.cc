#include "core/content_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "data/encoding.h"

namespace birnn::core {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// `n` cells whose content is `content_of(i)` — equal arguments produce
/// bit-identical model inputs, distinct arguments produce distinct content
/// (the id digits spell the argument in base vocab-3). `vocab` > 130 also
/// exercises multi-byte id varints in the packed-key codec.
data::EncodedDataset MakeCells(int64_t n, int64_t distinct, int max_len = 10,
                               int vocab = 64) {
  data::EncodedDataset ds;
  ds.max_len = max_len;
  ds.vocab = vocab;
  ds.n_attrs = 4;
  ds.seqs.assign(static_cast<size_t>(n) * max_len, 0);
  ds.attrs.resize(static_cast<size_t>(n));
  ds.length_norm.resize(static_cast<size_t>(n));
  ds.labels.assign(static_cast<size_t>(n), 0);
  ds.row_ids.resize(static_cast<size_t>(n));
  const int64_t base = vocab - 3;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = distinct > 0 ? i % distinct : i;
    ds.attrs[static_cast<size_t>(i)] = static_cast<int32_t>(c % 4);
    int64_t v = c;
    int len = 0;
    int32_t* row = ds.seqs.data() + static_cast<size_t>(i) * max_len;
    do {
      row[len++] = static_cast<int32_t>(1 + v % base);
      v /= base;
    } while (v > 0 && len < max_len);
    ds.length_norm[static_cast<size_t>(i)] =
        static_cast<float>(len) / static_cast<float>(max_len);
    ds.row_ids[static_cast<size_t>(i)] = i;
  }
  return ds;
}

/// A deterministic verdict that is a pure function of cell content, so
/// concurrent writers of duplicate cells agree (the memo's contract).
float PFor(const data::EncodedDataset& ds, int64_t i) {
  return static_cast<float>(ds.CellContentHash(i) % 997) / 997.0f;
}

std::vector<uint8_t> PackedKey(const data::EncodedDataset& ds, int64_t i) {
  std::vector<uint8_t> key;
  AppendPackedCellKey(ds, i, &key);
  return key;
}

// ---------------------------------------------------------------------------
// Packed cell keys
// ---------------------------------------------------------------------------

TEST(PackedKeyTest, CanonicalAndInjective) {
  const data::EncodedDataset ds = MakeCells(300, 100);
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    const std::vector<uint8_t> a = PackedKey(ds, i);
    EXPECT_TRUE(PackedKeyMatchesCell(a.data(), a.size(), ds, i)) << i;
    for (int64_t j = i + 1; j < std::min<int64_t>(ds.num_cells(), i + 120);
         ++j) {
      const std::vector<uint8_t> b = PackedKey(ds, j);
      EXPECT_EQ(a == b, ds.CellContentEquals(i, j)) << i << " vs " << j;
    }
  }
}

TEST(PackedKeyTest, HashReconstructionMatchesCellContentHash) {
  // The table keeps only 32-bit hash tags; grow rebuilds the full hash from
  // the stored key. A mismatch here would silently misplace
  // entries (turning hits into recomputes), so every field must round-trip
  // — including multi-byte id varints.
  for (int vocab : {64, 300}) {
    const data::EncodedDataset ds = MakeCells(500, 0, 10, vocab);
    for (int64_t i = 0; i < ds.num_cells(); ++i) {
      const std::vector<uint8_t> key = PackedKey(ds, i);
      EXPECT_EQ(PackedKeyContentHash(key.data(), key.size()),
                ds.CellContentHash(i))
          << "vocab " << vocab << " cell " << i;
    }
  }
}

TEST(PackedKeyTest, MalformedKeyHashesToZero) {
  const data::EncodedDataset ds = MakeCells(4, 0);
  const std::vector<uint8_t> key = PackedKey(ds, 0);
  EXPECT_EQ(0u, PackedKeyContentHash(key.data(), key.size() - 1));
  EXPECT_EQ(0u, PackedKeyContentHash(key.data(), 0));
}

// ---------------------------------------------------------------------------
// Blocked bloom filter
// ---------------------------------------------------------------------------

TEST(BlockedBloomTest, NoFalseNegatives) {
  BlockedBloom bloom;
  bloom.Reset(4096, 10.0);
  ASSERT_TRUE(bloom.enabled());
  for (uint64_t i = 0; i < 4096; ++i) bloom.Add(Mix64(i));
  for (uint64_t i = 0; i < 4096; ++i) {
    EXPECT_TRUE(bloom.MayContain(Mix64(i))) << i;
  }
}

TEST(BlockedBloomTest, FalsePositiveRateBounded) {
  BlockedBloom bloom;
  bloom.Reset(4096, 10.0);
  for (uint64_t i = 0; i < 4096; ++i) bloom.Add(Mix64(i));
  int64_t fps = 0;
  const int64_t probes = 40000;
  for (int64_t i = 0; i < probes; ++i) {
    if (bloom.MayContain(Mix64(0x8000000000000000ULL + i))) ++fps;
  }
  // ~1-2% expected at 10 bits/key with the capped probe count; 5% is a
  // generous regression bound.
  EXPECT_LT(static_cast<double>(fps) / probes, 0.05) << fps;
}

TEST(BlockedBloomTest, DisabledFilterNeverFiltersOrAllocates) {
  BlockedBloom bloom;
  EXPECT_FALSE(bloom.enabled());
  EXPECT_TRUE(bloom.MayContain(123));
  bloom.Reset(0, 10.0);
  EXPECT_FALSE(bloom.enabled());
  bloom.Reset(1024, 0.0);
  EXPECT_FALSE(bloom.enabled());
  EXPECT_EQ(0, bloom.bytes());
}

// ---------------------------------------------------------------------------
// ContentMemo
// ---------------------------------------------------------------------------

TEST(ContentMemoTest, ExactHitsThroughLazyInitAndGrowth) {
  // expected_entries = 0 starts each shard at its minimum table and grows
  // through several rehashes (which rebuild full hashes from 32-bit tags
  // via the packed keys) — every verdict must survive bit-exactly.
  const data::EncodedDataset ds = MakeCells(5000, 0);
  ContentMemoOptions options;
  options.capacity = 1 << 16;
  ContentMemo memo(options);
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    memo.Insert(ds, i, PFor(ds, i));
    memo.Insert(ds, i, -1.0f);  // duplicate insert: first value wins.
  }
  EXPECT_EQ(5000, memo.entries());

  std::vector<float> p(static_cast<size_t>(ds.num_cells()), -2.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  EXPECT_EQ(5000, memo.Lookup(ds, &p, &hit));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    ASSERT_EQ(1, hit[static_cast<size_t>(i)]) << i;
    const float want = PFor(ds, i);
    EXPECT_EQ(0, std::memcmp(&p[static_cast<size_t>(i)], &want, 4)) << i;
  }
  const ContentMemoStats stats = memo.stats();
  EXPECT_EQ(5000, stats.hits);
  EXPECT_EQ(0, stats.evictions);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_EQ(stats.bytes, memo.bytes());
}

TEST(ContentMemoTest, MultiByteIdVarintsRoundTrip) {
  const data::EncodedDataset ds = MakeCells(800, 0, 10, 300);
  ContentMemo memo;
  for (int64_t i = 0; i < ds.num_cells(); ++i) memo.Insert(ds, i, PFor(ds, i));
  std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  EXPECT_EQ(ds.num_cells(), memo.Lookup(ds, &p, &hit));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    const float want = PFor(ds, i);
    EXPECT_EQ(0, std::memcmp(&p[static_cast<size_t>(i)], &want, 4)) << i;
  }
}

TEST(ContentMemoTest, FreshContentIsBloomNegative) {
  const data::EncodedDataset ds = MakeCells(2000, 0);
  ContentMemo memo;
  std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  EXPECT_EQ(0, memo.Lookup(ds, &p, &hit));
  const ContentMemoStats stats = memo.stats();
  EXPECT_EQ(2000, stats.lookups);
  // On an empty memo nearly every probe short-circuits lock-free.
  EXPECT_GT(stats.bloom_negatives, 1900);
  EXPECT_EQ(stats.hits, 0);
}

TEST(ContentMemoTest, CapacityEvictsButNeverLies) {
  const data::EncodedDataset ds = MakeCells(6000, 0);
  ContentMemoOptions options;
  options.capacity = 1024;
  ContentMemo memo(options);
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    memo.Insert(ds, i, PFor(ds, i));
    ASSERT_LE(memo.entries(), options.capacity) << i;
  }
  EXPECT_GT(memo.evictions(), 0);

  std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  const int64_t hits = memo.Lookup(ds, &p, &hit);
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, ds.num_cells());
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    if (!hit[static_cast<size_t>(i)]) continue;
    const float want = PFor(ds, i);
    EXPECT_EQ(0, std::memcmp(&p[static_cast<size_t>(i)], &want, 4)) << i;
  }
}

TEST(ContentMemoTest, PreSizeHintIsClampedToCapacity) {
  // A hint past the entry bound must not allocate tables or bloom that the
  // bound can never fill.
  ContentMemoOptions at_bound;
  at_bound.capacity = 4096;
  at_bound.expected_entries = at_bound.capacity;
  ContentMemoOptions over_bound = at_bound;
  over_bound.expected_entries = 8 * at_bound.capacity;
  const ContentMemo a(at_bound);
  const ContentMemo b(over_bound);
  EXPECT_GT(a.bytes(), 0);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(ContentMemoTest, DisabledMemoIsInert) {
  const data::EncodedDataset ds = MakeCells(100, 0);
  ContentMemoOptions options;
  options.capacity = 0;
  ContentMemo memo(options);
  EXPECT_FALSE(memo.enabled());
  memo.Insert(ds, 0, 0.5f);
  std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  EXPECT_EQ(0, memo.Lookup(ds, &p, &hit));
  EXPECT_EQ(0, memo.entries());
}

ModelConfig TinyConfig(const data::EncodedDataset& ds) {
  ModelConfig config;
  config.vocab = ds.vocab;
  config.max_len = ds.max_len;
  config.n_attrs = ds.n_attrs;
  config.char_emb_dim = 6;
  config.units = 8;
  config.stacks = 1;
  config.bidirectional = true;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 3;
  config.length_dense_dim = 6;
  config.hidden_dense_dim = 6;
  config.seed = 23;
  return config;
}

TEST(ContentMemoTest, EvictionDeterminismBitExact) {
  // The acceptance contract: a capacity-bounded, evicting memo must
  // produce the same bits as the unbounded memo and as the memo-free engine — an
  // evicted entry merely recomputes through the same pure forward path.
  const data::EncodedDataset ds = MakeCells(600, 150);
  ErrorDetectionModel model(TinyConfig(ds));
  InferenceEngine engine(model);

  std::vector<float> base;
  engine.PredictProbs(ds, {}, &base);

  ContentMemoOptions unbounded;
  unbounded.capacity = 1 << 16;
  ContentMemo memo_a(unbounded);

  ContentMemoOptions bounded;
  bounded.capacity = 64;  // 4 entries per shard for 150 distinct cells.
  ContentMemo memo_b(bounded);

  for (int sweep = 0; sweep < 3; ++sweep) {
    std::vector<float> pa, pb;
    engine.PredictProbsMemoized(ds, &memo_a, &pa);
    engine.PredictProbsMemoized(ds, &memo_b, &pb);
    ASSERT_EQ(base.size(), pa.size());
    ASSERT_EQ(base.size(), pb.size());
    EXPECT_EQ(0, std::memcmp(base.data(), pa.data(),
                             base.size() * sizeof(float)))
        << "unbounded memo diverged on sweep " << sweep;
    EXPECT_EQ(0, std::memcmp(base.data(), pb.data(),
                             base.size() * sizeof(float)))
        << "evicting memo diverged on sweep " << sweep;
  }
  EXPECT_GT(memo_b.evictions(), 0)
      << "capacity never reached — the test is not exercising eviction";
}

TEST(ContentMemoTest, ConcurrentInsertLookupIsSafeAndExact) {
  // TSAN leg: hammer the striped shards + lock-free bloom from several
  // threads. Verdicts are functions of content, so overlapping writers
  // always agree; afterwards every entry must read back bit-exactly.
  const data::EncodedDataset ds = MakeCells(4000, 1000);
  ContentMemoOptions options;
  options.capacity = 1 << 16;
  ContentMemo memo(options);
  const int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ds, &memo, t] {
      std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
      std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
      for (int64_t i = t; i < ds.num_cells(); i += kThreads) {
        memo.Insert(ds, i, PFor(ds, i));
        if (i % 512 == 0) {
          std::fill(hit.begin(), hit.end(), 0);
          memo.Lookup(ds, &p, &hit);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(1000, memo.entries());
  std::vector<float> p(static_cast<size_t>(ds.num_cells()), 0.0f);
  std::vector<uint8_t> hit(static_cast<size_t>(ds.num_cells()), 0);
  EXPECT_EQ(ds.num_cells(), memo.Lookup(ds, &p, &hit));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    const float want = PFor(ds, i);
    EXPECT_EQ(0, std::memcmp(&p[static_cast<size_t>(i)], &want, 4)) << i;
  }
}

TEST(DatasetContentFingerprintTest, SensitiveToContentAndShape) {
  const data::EncodedDataset a = MakeCells(100, 0);
  data::EncodedDataset b = MakeCells(100, 0);
  EXPECT_EQ(DatasetContentFingerprint(a), DatasetContentFingerprint(b));
  b.seqs[5] += 1;
  EXPECT_NE(DatasetContentFingerprint(a), DatasetContentFingerprint(b));
  const data::EncodedDataset c = MakeCells(101, 0);
  EXPECT_NE(DatasetContentFingerprint(a), DatasetContentFingerprint(c));
}

}  // namespace
}  // namespace birnn::core
