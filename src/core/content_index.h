#ifndef BIRNN_CORE_CONTENT_INDEX_H_
#define BIRNN_CORE_CONTENT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/encoding.h"
#include "obs/registry.h"

namespace birnn::core {

/// Succinct cell-content index (DESIGN.md §14): the shared storage layer
/// behind every cross-sweep verdict memo. Two pieces compose:
///
///   BlockedBloom  — a cache-line-blocked bloom filter in front of every
///                   probe, so first-seen content (the common case on
///                   high-cardinality columns) skips the table entirely;
///   ContentMemo   — mutex-striped shards of open-addressing flat tables
///                   (contiguous hash/position/verdict arrays, zero
///                   per-entry allocation) over a varint-packed content
///                   arena that confirms hash matches exactly without
///                   retaining the padded int32 sequence, bounded by an
///                   entry capacity.
///
/// Exactness contract: a hit is only ever declared after the stored packed
/// key is compared byte-for-byte against the probing cell, so hash
/// collisions cannot cross-wire verdicts, and an evicted entry merely
/// recomputes (bit-identically — the forward path is a pure function of
/// the content key; see core/inference.h).

// ---------------------------------------------------------------------------
// Packed cell keys
// ---------------------------------------------------------------------------

/// Appends the canonical packed content key of cell `i`: varint attribute
/// id, the 4 raw length_norm bytes, varint effective length, then one
/// varint per character id. Canonical and injective — two cells have equal
/// packed keys iff `CellContentEquals` holds — and ~4x smaller than the
/// int32 sequence it replaces (character ids are almost always < 128).
void AppendPackedCellKey(const data::EncodedDataset& ds, int64_t i,
                         std::vector<uint8_t>* out);

/// True when `key[0..key_len)` equals cell `i`'s packed content key.
bool PackedKeyMatchesCell(const uint8_t* key, size_t key_len,
                          const data::EncodedDataset& ds, int64_t i);

/// Recomputes `EncodedDataset::CellContentHash` from a packed content key
/// alone (the key carries every hashed field). Lets the memo store only a
/// 32-bit hash tag per table slot and reconstruct the full 64-bit hash on
/// the rare grow path. Returns 0 on a malformed key.
uint64_t PackedKeyContentHash(const uint8_t* key, size_t key_len);

/// Order-sensitive FNV-1a fingerprint of a dataset's full cell content
/// (shape + every cell's content hash). Bundles persist it so a serving
/// process can recognize — and pre-size for — the table it was trained on.
uint64_t DatasetContentFingerprint(const data::EncodedDataset& ds);

// ---------------------------------------------------------------------------
// Blocked bloom filter
// ---------------------------------------------------------------------------

/// Cache-line-blocked bloom filter over 64-bit content hashes (the RocksDB
/// full-filter layout): a key selects one 64-byte block with its high bits
/// and sets `k` bits inside that single block by double hashing of its low
/// bits, so any probe costs exactly one cache line. No false negatives
/// ever; false positives only waste a table probe. Add/MayContain are
/// lock-free (relaxed atomics) and TSAN-clean under concurrent writers.
class BlockedBloom {
 public:
  BlockedBloom() = default;

  /// (Re)builds the filter sized for `expected_keys` at `bits_per_key`
  /// (~1% false positives at 10). `expected_keys <= 0` or
  /// `bits_per_key <= 0` disables the filter (MayContain always true).
  void Reset(int64_t expected_keys, double bits_per_key);

  void Add(uint64_t hash);
  bool MayContain(uint64_t hash) const;

  bool enabled() const { return num_blocks_ > 0; }
  int64_t bytes() const { return static_cast<int64_t>(num_blocks_) * 64; }

 private:
  struct alignas(64) Block {
    std::atomic<uint64_t> words[8];
  };

  std::unique_ptr<Block[]> blocks_;
  uint64_t num_blocks_ = 0;
  int num_probes_ = 6;
};

// ---------------------------------------------------------------------------
// ContentMemo
// ---------------------------------------------------------------------------

struct ContentMemoOptions {
  /// Bound on live entries (0 disables the memo entirely). A shard that
  /// reaches its share is dropped and refills; dropped content simply
  /// recomputes, bit-identically.
  int64_t capacity = 1 << 18;

  /// Pre-size hint (e.g. the bundle's training-table unique-cell count):
  /// tables and bloom are allocated for this population up front, so the
  /// first sweep never grows through rehashes. Clamped to `capacity`.
  /// 0 = start small and grow.
  int64_t expected_entries = 0;
};

/// Aggregate accounting (cheap enough to snapshot per batch).
struct ContentMemoStats {
  int64_t entries = 0;   ///< live entries.
  int64_t bytes = 0;     ///< tables + arenas + bloom, resident.
  int64_t lookups = 0;   ///< cells probed.
  int64_t hits = 0;      ///< probes answered from the memo.
  int64_t bloom_negatives = 0;  ///< probes short-circuited lock-free.
  int64_t bloom_fps = 0; ///< bloom said maybe, index said no.
  int64_t evictions = 0;         ///< shard drops at the capacity bound.
  int64_t evicted_entries = 0;
  double probe_seconds = 0.0;    ///< wall clock inside Lookup.
};

/// The succinct cross-sweep verdict memo: content key -> p_error under
/// fixed weights. Thread-safe; 16 mutex-striped shards plus the lock-free
/// bloom front. Replaces the `unordered_map<uint64_t, vector<Entry>>`
/// store of the first serve-plane memo with flat open-addressing tables over
/// a packed arena — no per-entry heap allocation, ~an order of magnitude
/// fewer bytes per unique cell — and adds the bloom prefilter and
/// capacity-bound eviction.
///
/// The memo must not outlive a weight change (owned per model generation,
/// exactly like the map it replaces).
class ContentMemo {
 public:
  explicit ContentMemo(ContentMemoOptions options = {});

  ContentMemo(const ContentMemo&) = delete;
  ContentMemo& operator=(const ContentMemo&) = delete;

  /// Probes every cell of `ds`. On a hit, `(*p)[i]` receives the memoized
  /// p_error and `(*hit)[i]` is set to 1; misses leave their slots alone.
  /// Both vectors must already be sized to `ds.num_cells()`. Returns the
  /// hit count.
  int64_t Lookup(const data::EncodedDataset& ds, std::vector<float>* p,
                 std::vector<uint8_t>* hit) const;

  /// Records cell `i` of `ds` -> `p_error`. Duplicate inserts of the same
  /// content are ignored (first value wins; all writers compute the same
  /// value anyway).
  void Insert(const data::EncodedDataset& ds, int64_t i, float p_error);

  bool enabled() const { return options_.capacity > 0; }
  int64_t entries() const;
  int64_t evictions() const;
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  ContentMemoStats stats() const;
  const ContentMemoOptions& options() const { return options_; }

 private:
  static constexpr int kShards = 16;
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  struct Shard {
    mutable std::mutex mu;
    /// Open-addressing flat table, SoA: parallel hash-tag / arena-position
    /// arrays (8 bytes per slot), linear probing. Slot counts are
    /// arbitrary — indices come from a Lemire multiply-shift of the full
    /// hash, so tables are sized at ~0.8 load exactly instead of rounding
    /// up to a power of two. Only the high 32 hash bits are stored (a
    /// filter; the packed-key compare is the truth) — the full hash is
    /// reconstructed from the arena key via PackedKeyContentHash when a
    /// grow needs it. `pos` is kEmptySlot for free slots.
    std::vector<uint32_t> tag;
    std::vector<uint32_t> pos;
    /// Packed records, appended: varint(key_len) + key bytes + the 4 raw
    /// p_error bytes per entry (the verdict lives next to the key it is
    /// confirmed against — one cache stream on a hit, no per-slot float).
    std::vector<uint8_t> arena;
    uint64_t slots = 0;
    int64_t entries = 0;
    /// Resident bytes of this shard's table + arena, maintained under `mu`
    /// (the memo-wide atomic is advanced by deltas, so no cross-shard reads).
    int64_t resident = 0;
    // Accounting (mutated under mu; Lookup is const, hence mutable).
    mutable int64_t hits = 0;
    mutable int64_t bloom_fps = 0;
    int64_t evictions = 0;
    int64_t evicted_entries = 0;
  };

  static int ShardIndex(uint64_t hash) {
    return static_cast<int>(hash & (kShards - 1));
  }

  void InitTable(Shard* shard, int64_t expected_entries);
  void GrowTable(Shard* shard);
  /// Drops a full shard; its content recomputes on the next miss.
  void EvictShard(Shard* shard);
  /// Probes one shard's table for cell `i` by comparing stored keys against
  /// the cell fields in place (pure — no stat updates, no key packing).
  /// Caller holds the shard lock.
  bool ProbeCellLocked(const Shard& shard, uint64_t hash,
                       const data::EncodedDataset& ds, int64_t i,
                       float* p_error) const;
  /// Recomputes `shard->resident` and applies the delta to the memo-wide
  /// byte atomic + gauge. Caller holds the shard lock.
  void UpdateShardBytes(Shard* shard);

  ContentMemoOptions options_;
  int64_t shard_capacity_ = 0;
  BlockedBloom bloom_;
  Shard shards_[kShards];
  mutable std::atomic<int64_t> bytes_{0};
  mutable std::atomic<int64_t> lookups_{0};
  mutable std::atomic<int64_t> bloom_negatives_{0};
  mutable std::atomic<int64_t> probe_ns_{0};

  // Owned obs handles (registry names are what the serve stats op and the
  // footprint bench scrape; see DESIGN.md §14). Mutable: Lookup is
  // logically const but records probe accounting.
  obs::Gauge bytes_gauge_{"inference/memo_bytes"};
  mutable obs::Counter bloom_fp_counter_{"inference/memo_bloom_fp"};
  obs::Counter evictions_counter_{"inference/memo_evictions"};
  mutable obs::Histogram probe_ns_hist_{"inference/memo_probe_ns"};
};

}  // namespace birnn::core

#endif  // BIRNN_CORE_CONTENT_INDEX_H_
