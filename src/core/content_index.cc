#include "core/content_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/hash.h"
#include "util/stopwatch.h"

namespace birnn::core {
namespace {

/// Bloom prefilter density: ~1% false positives.
constexpr double kBloomBitsPerKey = 10.0;

void PutVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Decodes a varint at `p` (bounded by `end`); returns bytes consumed, 0 on
/// truncation/overflow.
size_t GetVarint(const uint8_t* p, const uint8_t* end, uint32_t* v) {
  uint32_t out = 0;
  int shift = 0;
  for (size_t i = 0; i < 5 && p + i < end; ++i) {
    out |= static_cast<uint32_t>(p[i] & 0x7F) << shift;
    if ((p[i] & 0x80) == 0) {
      *v = out;
      return i + 1;
    }
    shift += 7;
  }
  return 0;
}

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Lemire multiply-shift: maps a 64-bit hash uniformly onto [0, slots)
/// without requiring a power-of-two table. The shard-selection bits are the
/// low 4; the multiply is dominated by the high hash bits, so slot indices
/// stay independent of sharding.
uint64_t SlotFor(uint64_t hash, uint64_t slots) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(hash) * slots) >> 64);
}

uint32_t HashTag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

// ---------------------------------------------------------------------------
// Packed cell keys
// ---------------------------------------------------------------------------

void AppendPackedCellKey(const data::EncodedDataset& ds, int64_t i,
                         std::vector<uint8_t>* out) {
  PutVarint(static_cast<uint32_t>(ds.attrs[i]), out);
  uint32_t ln_bits;
  std::memcpy(&ln_bits, &ds.length_norm[i], 4);
  out->push_back(static_cast<uint8_t>(ln_bits));
  out->push_back(static_cast<uint8_t>(ln_bits >> 8));
  out->push_back(static_cast<uint8_t>(ln_bits >> 16));
  out->push_back(static_cast<uint8_t>(ln_bits >> 24));
  const int len = ds.effective_len(i);
  PutVarint(static_cast<uint32_t>(len), out);
  const int32_t* seq = ds.seqs.data() + static_cast<size_t>(i) * ds.max_len;
  for (int t = 0; t < len; ++t) {
    PutVarint(static_cast<uint32_t>(seq[t]), out);
  }
}

bool PackedKeyMatchesCell(const uint8_t* key, size_t key_len,
                          const data::EncodedDataset& ds, int64_t i) {
  // Re-encoding the probe cell costs the same O(len) as the content hash did
  // and keeps the compare a canonical byte memcmp; callers batch-reuse the
  // scratch buffer, so there is no per-probe allocation in steady state.
  thread_local std::vector<uint8_t> scratch;
  scratch.clear();
  AppendPackedCellKey(ds, i, &scratch);
  return scratch.size() == key_len &&
         std::memcmp(scratch.data(), key, key_len) == 0;
}

namespace {

/// Field-by-field compare of a stored packed key against cell `i`, with no
/// probe-key materialization: decodes the stored bytes in place and
/// early-outs on the first mismatching field. Because the codec is
/// canonical this is equivalent to packing cell `i` and memcmp-ing, but the
/// all-hit serve path never writes a scratch buffer per probe.
bool StoredKeyMatchesCell(const uint8_t* key, size_t key_len,
                          const data::EncodedDataset& ds, int64_t i) {
  const uint8_t* p = key;
  const uint8_t* end = key + key_len;
  uint32_t attr;
  size_t n = GetVarint(p, end, &attr);
  if (n == 0 || attr != static_cast<uint32_t>(ds.attrs[i])) return false;
  p += n;
  if (p + 4 > end) return false;
  uint32_t cell_ln;
  std::memcpy(&cell_ln, &ds.length_norm[i], 4);
  const uint32_t stored_ln = static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24;
  if (stored_ln != cell_ln) return false;
  p += 4;
  uint32_t len;
  n = GetVarint(p, end, &len);
  if (n == 0 || len != static_cast<uint32_t>(ds.effective_len(i))) {
    return false;
  }
  p += n;
  const int32_t* seq = ds.seqs.data() + static_cast<size_t>(i) * ds.max_len;
  if (static_cast<size_t>(end - p) == len) {
    // Exactly one stored byte per char means every id varint is single-byte
    // (ids < 128 — every dictionary under the default vocab). The compare
    // collapses to a widening byte loop the compiler can vectorize.
    for (uint32_t t = 0; t < len; ++t) {
      if (static_cast<uint32_t>(p[t]) != static_cast<uint32_t>(seq[t])) {
        return false;
      }
    }
    return true;
  }
  for (uint32_t t = 0; t < len; ++t) {
    uint32_t c;
    n = GetVarint(p, end, &c);
    if (n == 0 || c != static_cast<uint32_t>(seq[t])) return false;
    p += n;
  }
  return p == end;
}

}  // namespace

uint64_t PackedKeyContentHash(const uint8_t* key, size_t key_len) {
  const uint8_t* p = key;
  const uint8_t* end = key + key_len;
  uint64_t h = util::kFnv1aOffset;
  const auto mix = [&h](uint64_t v) { h = util::Fnv1aMixU64(h, v); };
  uint32_t attr;
  size_t n = GetVarint(p, end, &attr);
  if (n == 0) return 0;
  p += n;
  mix(attr);
  if (p + 4 > end) return 0;
  const uint32_t ln_bits = static_cast<uint32_t>(p[0]) |
                           static_cast<uint32_t>(p[1]) << 8 |
                           static_cast<uint32_t>(p[2]) << 16 |
                           static_cast<uint32_t>(p[3]) << 24;
  p += 4;
  mix(ln_bits);
  uint32_t len;
  n = GetVarint(p, end, &len);
  if (n == 0) return 0;
  p += n;
  mix(len);
  for (uint32_t t = 0; t < len; ++t) {
    uint32_t c;
    n = GetVarint(p, end, &c);
    if (n == 0) return 0;
    p += n;
    mix(c);
  }
  return h;
}

uint64_t DatasetContentFingerprint(const data::EncodedDataset& ds) {
  uint64_t h = util::kFnv1aOffset;
  const uint64_t shape[4] = {static_cast<uint64_t>(ds.num_cells()),
                             static_cast<uint64_t>(ds.max_len),
                             static_cast<uint64_t>(ds.vocab),
                             static_cast<uint64_t>(ds.n_attrs)};
  h = util::Fnv1aMix(h, shape, sizeof(shape));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    const uint64_t ch = ds.CellContentHash(i);
    h = util::Fnv1aMix(h, &ch, 8);
  }
  return h;
}

// ---------------------------------------------------------------------------
// BlockedBloom
// ---------------------------------------------------------------------------

void BlockedBloom::Reset(int64_t expected_keys, double bits_per_key) {
  if (expected_keys <= 0 || bits_per_key <= 0.0) {
    blocks_.reset();
    num_blocks_ = 0;
    return;
  }
  const double total_bits = static_cast<double>(expected_keys) * bits_per_key;
  num_blocks_ = NextPow2(
      static_cast<uint64_t>(std::max(1.0, std::ceil(total_bits / 512.0))));
  blocks_ = std::make_unique<Block[]>(num_blocks_);
  for (uint64_t b = 0; b < num_blocks_; ++b) {
    for (auto& w : blocks_[b].words) w.store(0, std::memory_order_relaxed);
  }
  // k = ln2 * bits/key is the optimum for a classic bloom, but on the
  // all-hit serve path every probe is paid in full, and for a blocked
  // filter the within-block collisions flatten the FP curve past ~4 probes
  // anyway. Cap low: at 10 bits/key, k=4 holds ~1% FP while nearly halving
  // the hit-path probe cost vs the classic k=7.
  num_probes_ = static_cast<int>(std::lround(bits_per_key * 0.69));
  num_probes_ = std::max(1, std::min(num_probes_, 4));
}

void BlockedBloom::Add(uint64_t hash) {
  if (num_blocks_ == 0) return;
  Block& block = blocks_[(hash >> 32) & (num_blocks_ - 1)];
  uint32_t h = static_cast<uint32_t>(hash);
  const uint32_t delta = (h >> 17) | (h << 15) | 1;  // odd => full cycle.
  for (int k = 0; k < num_probes_; ++k) {
    const uint32_t bit = h & 511;
    block.words[bit >> 6].fetch_or(1ULL << (bit & 63),
                                   std::memory_order_relaxed);
    h += delta;
  }
}

bool BlockedBloom::MayContain(uint64_t hash) const {
  if (num_blocks_ == 0) return true;
  const Block& block = blocks_[(hash >> 32) & (num_blocks_ - 1)];
  uint32_t h = static_cast<uint32_t>(hash);
  const uint32_t delta = (h >> 17) | (h << 15) | 1;
  for (int k = 0; k < num_probes_; ++k) {
    const uint32_t bit = h & 511;
    if ((block.words[bit >> 6].load(std::memory_order_relaxed) &
         (1ULL << (bit & 63))) == 0) {
      return false;
    }
    h += delta;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ContentMemo
// ---------------------------------------------------------------------------

ContentMemo::ContentMemo(ContentMemoOptions options) : options_(options) {
  // The pre-size hint never allocates past the entry bound.
  options_.expected_entries =
      std::min(options_.expected_entries, options_.capacity);
  shard_capacity_ = std::max<int64_t>(1, options_.capacity / kShards);
  if (options_.capacity <= 0) shard_capacity_ = 0;
  if (enabled()) {
    // Bloom sized for the expected population; without a hint, for the
    // capacity bound capped at 16M keys (~20 MB at 10 bits/key) so an
    // "unbounded" memo doesn't buy a gigabyte filter. An undersized bloom
    // only raises the (counted) false-positive rate.
    int64_t bloom_keys = options_.expected_entries > 0
                             ? options_.expected_entries
                             : std::min<int64_t>(options_.capacity, 1 << 20);
    bloom_keys = std::min<int64_t>(bloom_keys, int64_t{1} << 24);
    bloom_.Reset(bloom_keys, kBloomBitsPerKey);
  }
  bytes_.store(bloom_.bytes(), std::memory_order_relaxed);
  bytes_gauge_.Set(static_cast<double>(bloom_.bytes()));
  if (options_.expected_entries > 0 && enabled()) {
    const int64_t per_shard = options_.expected_entries / kShards + 1;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      InitTable(&shard, per_shard);
      UpdateShardBytes(&shard);
    }
  }
}

void ContentMemo::InitTable(Shard* shard, int64_t expected_entries) {
  // Flat open addressing wants slack: size for 0.8 load exactly at the
  // expected population (Lemire mapping frees us from power-of-two
  // rounding), floor 64 slots so tiny memos stay tiny.
  const uint64_t slots = static_cast<uint64_t>(
      std::max<int64_t>(64, expected_entries + expected_entries / 4));
  std::vector<uint32_t>(slots, 0).swap(shard->tag);
  std::vector<uint32_t>(slots, kEmptySlot).swap(shard->pos);
  shard->slots = slots;
  shard->entries = 0;
  // Swap, not clear(): an evicted shard must actually release its arena
  // capacity, or eviction would never return memory.
  std::vector<uint8_t>().swap(shard->arena);
}

void ContentMemo::UpdateShardBytes(Shard* shard) {
  const int64_t now = static_cast<int64_t>(shard->tag.capacity()) * 4 +
                      static_cast<int64_t>(shard->pos.capacity()) * 4 +
                      static_cast<int64_t>(shard->arena.capacity());
  const int64_t delta = now - shard->resident;
  shard->resident = now;
  if (delta != 0) {
    const int64_t total =
        bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    bytes_gauge_.Set(static_cast<double>(total));
  }
}

bool ContentMemo::ProbeCellLocked(const Shard& shard, uint64_t hash,
                                  const data::EncodedDataset& ds, int64_t i,
                                  float* p_error) const {
  if (shard.slots == 0) return false;
  const uint32_t tag = HashTag(hash);
  uint64_t slot = SlotFor(hash, shard.slots);
  while (shard.pos[slot] != kEmptySlot) {
    if (shard.tag[slot] == tag) {
      const uint8_t* rec = shard.arena.data() + shard.pos[slot];
      const uint8_t* end = shard.arena.data() + shard.arena.size();
      uint32_t stored_len;
      const size_t vn = GetVarint(rec, end, &stored_len);
      if (vn != 0 && rec + vn + stored_len + 4 <= end &&
          StoredKeyMatchesCell(rec + vn, stored_len, ds, i)) {
        std::memcpy(p_error, rec + vn + stored_len, 4);
        return true;
      }
    }
    if (++slot == shard.slots) slot = 0;
  }
  return false;
}

int64_t ContentMemo::Lookup(const data::EncodedDataset& ds,
                            std::vector<float>* p,
                            std::vector<uint8_t>* hit) const {
  if (!enabled() || ds.num_cells() == 0) return 0;
  Stopwatch timer;
  const int64_t n = ds.num_cells();
  int64_t hits = 0;
  int64_t bloom_negatives = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = ds.CellContentHash(i);
    // Lock-free fast path: a bloom negative proves the content was never
    // inserted, so the shard mutex is never touched for first-seen cells.
    if (!bloom_.MayContain(h)) {
      ++bloom_negatives;
      continue;
    }
    const Shard& shard = shards_[ShardIndex(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    float p_error;
    if (ProbeCellLocked(shard, h, ds, i, &p_error)) {
      (*p)[i] = p_error;
      (*hit)[i] = 1;
      shard.hits += 1;
      ++hits;
    } else {
      shard.bloom_fps += 1;
      bloom_fp_counter_.Add(1);
    }
  }
  lookups_.fetch_add(n, std::memory_order_relaxed);
  bloom_negatives_.fetch_add(bloom_negatives, std::memory_order_relaxed);
  const double seconds = timer.ElapsedSeconds();
  probe_ns_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
  probe_ns_hist_.Record(seconds * 1e9 / static_cast<double>(n));
  return hits;
}

void ContentMemo::EvictShard(Shard* shard) {
  if (shard->entries > 0) {
    shard->evictions += 1;
    shard->evicted_entries += shard->entries;
    evictions_counter_.Add(1);
  }
  // Re-size for the population the shard just held: it refills to the same
  // bound. The bloom is intentionally never rebuilt: evicted entries leave
  // stale bits that can only cause counted false positives, never a wrong
  // answer.
  InitTable(shard, shard->entries);
}

void ContentMemo::Insert(const data::EncodedDataset& ds, int64_t i,
                         float p_error) {
  if (!enabled()) return;
  const uint64_t h = ds.CellContentHash(i);
  Shard& shard = shards_[ShardIndex(h)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots == 0) {
    // Lazy start: small even when capacity is huge — GrowTable doubles as
    // the population actually arrives.
    InitTable(&shard, std::min<int64_t>(shard_capacity_ / 4, 4096));
  }

  float existing;
  if (ProbeCellLocked(shard, h, ds, i, &existing)) {
    return;  // first value wins (all writers agree anyway).
  }
  // Per-thread, like PackedKeyMatchesCell's: a warm insert packs the key
  // without allocating.
  thread_local std::vector<uint8_t> key;
  key.clear();
  AppendPackedCellKey(ds, i, &key);

  // Evict when the shard hits its entry bound, or when the arena nears the
  // uint32 position ceiling.
  const int64_t arena_add =
      static_cast<int64_t>(key.size()) + 9;  // varint prefix + p_error bytes.
  if (shard.entries + 1 > shard_capacity_ ||
      shard.arena.size() + arena_add > 0xFFFF0000u) {
    EvictShard(&shard);
  }

  // Grow the table before it saturates (linear probing degrades past ~0.8
  // load).
  if (shard.entries + 1 > static_cast<int64_t>(shard.slots) * 4 / 5) {
    GrowTable(&shard);
  }

  // Grow the arena in ~12.5% steps (min 4 KiB) instead of vector's
  // doubling: slack is resident bytes, and bytes/unique-cell is the whole
  // point here.
  if (shard.arena.size() + arena_add > shard.arena.capacity()) {
    const int64_t arena_step = std::max<int64_t>(
        arena_add,
        std::max<int64_t>(static_cast<int64_t>(shard.arena.capacity()) / 8,
                          4096));
    shard.arena.reserve(shard.arena.size() +
                        static_cast<size_t>(arena_step));
  }
  const uint32_t record_pos = static_cast<uint32_t>(shard.arena.size());
  PutVarint(static_cast<uint32_t>(key.size()), &shard.arena);
  shard.arena.insert(shard.arena.end(), key.begin(), key.end());
  const size_t p_at = shard.arena.size();
  shard.arena.resize(p_at + 4);
  std::memcpy(shard.arena.data() + p_at, &p_error, 4);

  uint64_t slot = SlotFor(h, shard.slots);
  while (shard.pos[slot] != kEmptySlot) {
    if (++slot == shard.slots) slot = 0;
  }
  shard.tag[slot] = HashTag(h);
  shard.pos[slot] = record_pos;
  shard.entries += 1;
  bloom_.Add(h);
  UpdateShardBytes(&shard);
}

void ContentMemo::GrowTable(Shard* shard) {
  const uint64_t old_slots = shard->slots;
  const uint64_t new_slots = old_slots * 2;
  std::vector<uint32_t> old_tag = std::move(shard->tag);
  std::vector<uint32_t> old_pos = std::move(shard->pos);
  std::vector<uint32_t>(new_slots, 0).swap(shard->tag);
  std::vector<uint32_t>(new_slots, kEmptySlot).swap(shard->pos);
  shard->slots = new_slots;
  for (uint64_t s = 0; s < old_slots; ++s) {
    if (old_pos[s] == kEmptySlot) continue;
    // The table keeps only a 32-bit tag; the placement hash is rebuilt from
    // the packed key (grow is rare, decode cost is fine).
    const uint8_t* rec = shard->arena.data() + old_pos[s];
    const uint8_t* end = shard->arena.data() + shard->arena.size();
    uint32_t key_len = 0;
    const size_t vn = GetVarint(rec, end, &key_len);
    const uint64_t h = PackedKeyContentHash(rec + vn, key_len);
    uint64_t slot = SlotFor(h, new_slots);
    while (shard->pos[slot] != kEmptySlot) {
      if (++slot == new_slots) slot = 0;
    }
    shard->tag[slot] = old_tag[s];
    shard->pos[slot] = old_pos[s];
  }
}

int64_t ContentMemo::entries() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries;
  }
  return total;
}

int64_t ContentMemo::evictions() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.evictions;
  }
  return total;
}

ContentMemoStats ContentMemo::stats() const {
  ContentMemoStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.entries;
    s.hits += shard.hits;
    s.bloom_fps += shard.bloom_fps;
    s.evictions += shard.evictions;
    s.evicted_entries += shard.evicted_entries;
  }
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
  s.probe_seconds =
      static_cast<double>(probe_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

}  // namespace birnn::core
