#include "core/content_index.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/hash.h"
#include "util/stopwatch.h"

namespace birnn::core {
namespace {

constexpr char kSegmentMagic[8] = {'B', 'R', 'N', 'M', 'E', 'M', 'O', '1'};
constexpr int64_t kSlotBytes = 16;  // hash(8) + p_error(4) + key_off(4).

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

/// Bytes per in-memory table slot (hash tag + arena position).
constexpr int64_t kTableSlotBytes = 8;

uint32_t HashTag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

bool PReadAll(int fd, void* buf, size_t n, int64_t off) {
  auto* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
    off += r;
  }
  return true;
}

void PutU64(uint64_t v, std::string* out) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

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
// SpillSegment
// ---------------------------------------------------------------------------

SpillSegment::~SpillSegment() {
  if (fd_ >= 0) ::close(fd_);
}

SpillSegment::SpillSegment(SpillSegment&& other) noexcept
    : fd_(other.fd_),
      count_(other.count_),
      blob_offset_(other.blob_offset_),
      blob_size_(other.blob_size_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
}

SpillSegment& SpillSegment::operator=(SpillSegment&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    count_ = other.count_;
    blob_offset_ = other.blob_offset_;
    blob_size_ = other.blob_size_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Status SpillSegment::Write(const std::string& path,
                           std::vector<SpillRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const SpillRecord& a, const SpillRecord& b) {
              return a.hash < b.hash;
            });

  std::string body;
  body.reserve(32 + records.size() * (kSlotBytes + 16));
  body.append(kSegmentMagic, 8);
  PutU64(static_cast<uint64_t>(records.size()), &body);

  std::vector<uint8_t> blob;
  std::vector<uint32_t> offsets;
  offsets.reserve(records.size());
  for (const SpillRecord& r : records) {
    offsets.push_back(static_cast<uint32_t>(blob.size()));
    PutVarint(static_cast<uint32_t>(r.key.size()), &blob);
    blob.insert(blob.end(), r.key.begin(), r.key.end());
  }
  PutU64(static_cast<uint64_t>(blob.size()), &body);
  for (size_t i = 0; i < records.size(); ++i) {
    PutU64(records[i].hash, &body);
    char slot[8];
    std::memcpy(slot, &records[i].p_error, 4);
    std::memcpy(slot + 4, &offsets[i], 4);
    body.append(slot, 8);
  }
  body.append(reinterpret_cast<const char*>(blob.data()), blob.size());
  const uint64_t checksum = util::Fnv1a(body.data(), body.size());
  PutU64(checksum, &body);

  // Atomic publish: a failed write can never leave a partial segment under
  // the final name. Unlike util::WriteFileAtomic there is no fsync: a
  // segment is process-lifetime scratch, unlinked when the memo is
  // destroyed, so durability would only add latency to the seal path.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create spill segment " + tmp);
  }
  const bool written =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to spill segment " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot publish spill segment " + path);
  }
  return Status::OK();
}

StatusOr<SpillSegment> SpillSegment::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open spill segment " + path);
  }
  SpillSegment seg;
  seg.fd_ = fd;
  seg.path_ = path;

  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 32 + 8) {
    return Status::IoError("spill segment truncated: " + path);
  }
  const int64_t file_size = static_cast<int64_t>(st.st_size);

  char header[24];
  if (!PReadAll(fd, header, sizeof(header), 0)) {
    return Status::IoError("spill segment unreadable: " + path);
  }
  if (std::memcmp(header, kSegmentMagic, 8) != 0) {
    return Status::IoError("spill segment bad magic: " + path);
  }
  uint64_t count, blob_size;
  std::memcpy(&count, header + 8, 8);
  std::memcpy(&blob_size, header + 16, 8);
  const int64_t expect =
      24 + static_cast<int64_t>(count) * kSlotBytes +
      static_cast<int64_t>(blob_size) + 8;
  if (count > (1ULL << 40) || expect != file_size) {
    return Status::IoError("spill segment shape mismatch: " + path);
  }
  seg.count_ = static_cast<int64_t>(count);
  seg.blob_offset_ = 24 + seg.count_ * kSlotBytes;
  seg.blob_size_ = static_cast<int64_t>(blob_size);

  // Streaming checksum: the segment is validated once at open without ever
  // being resident; Find() afterwards trusts the file.
  uint64_t h = util::kFnv1aOffset;
  char buf[1 << 16];
  int64_t off = 0;
  const int64_t body_size = file_size - 8;
  while (off < body_size) {
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(body_size - off, static_cast<int64_t>(sizeof(buf))));
    if (!PReadAll(fd, buf, n, off)) {
      return Status::IoError("spill segment unreadable: " + path);
    }
    h = util::Fnv1aMix(h, buf, n);
    off += static_cast<int64_t>(n);
  }
  uint64_t stored;
  if (!PReadAll(fd, &stored, 8, body_size) || stored != h) {
    return Status::IoError("spill segment checksum mismatch: " + path);
  }
  return seg;
}

bool SpillSegment::ReadSlot(int64_t index, uint64_t* hash, float* p_error,
                            uint32_t* key_off) const {
  char slot[kSlotBytes];
  if (!PReadAll(fd_, slot, sizeof(slot), 24 + index * kSlotBytes)) {
    return false;
  }
  std::memcpy(hash, slot, 8);
  std::memcpy(p_error, slot + 8, 4);
  std::memcpy(key_off, slot + 12, 4);
  return true;
}

bool SpillSegment::Find(uint64_t hash, const uint8_t* key, size_t key_len,
                        float* p_error) const {
  if (fd_ < 0 || count_ == 0) return false;
  // lower_bound over the sorted slot array.
  int64_t lo = 0, hi = count_;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    uint64_t h;
    float p;
    uint32_t off;
    if (!ReadSlot(mid, &h, &p, &off)) return false;
    if (h < hash) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Scan the (almost always length-1) equal-hash run, confirming exactly.
  std::vector<uint8_t> stored(key_len + 5);
  for (int64_t i = lo; i < count_; ++i) {
    uint64_t h;
    float p;
    uint32_t off;
    if (!ReadSlot(i, &h, &p, &off)) return false;
    if (h != hash) break;
    const int64_t key_pos = blob_offset_ + static_cast<int64_t>(off);
    const size_t want = std::min<size_t>(
        stored.size(),
        static_cast<size_t>(blob_offset_ + blob_size_ - key_pos));
    if (want == 0 || !PReadAll(fd_, stored.data(), want, key_pos)) continue;
    uint32_t stored_len;
    const size_t vn =
        GetVarint(stored.data(), stored.data() + want, &stored_len);
    if (vn == 0 || stored_len != key_len || vn + key_len > want) continue;
    if (std::memcmp(stored.data() + vn, key, key_len) == 0) {
      *p_error = p;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// ContentMemo
// ---------------------------------------------------------------------------

ContentMemo::ContentMemo(ContentMemoOptions options)
    : options_(std::move(options)) {
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
    if (options_.budget_bytes > 0 && options_.bloom_bits_per_key > 0) {
      while (bloom_keys > 1024 &&
             static_cast<double>(bloom_keys) * options_.bloom_bits_per_key >
                 static_cast<double>(options_.budget_bytes)) {
        bloom_keys /= 2;  // keep the filter <= 1/8 of the byte budget.
      }
    }
    bloom_.Reset(bloom_keys, options_.bloom_bits_per_key);
  }
  if (options_.budget_bytes > 0) {
    const int64_t after_bloom =
        std::max<int64_t>(options_.budget_bytes - bloom_.bytes(), kShards);
    shard_budget_ = std::max<int64_t>(1, after_bloom / kShards);
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

ContentMemo::~ContentMemo() {
  // Segments are owned scratch, not durable artifacts: close then unlink.
  for (auto& shard : shards_) shard.segments.clear();
  std::lock_guard<std::mutex> lock(spill_mu_);
  for (const std::string& path : spilled_paths_) std::remove(path.c_str());
}

void ContentMemo::InitTable(Shard* shard, int64_t expected_entries) {
  // Flat open addressing wants slack: size for 0.8 load exactly at the
  // expected population (Lemire mapping frees us from power-of-two
  // rounding), floor 64 slots so tiny memos stay tiny.
  uint64_t slots = static_cast<uint64_t>(
      std::max<int64_t>(64, expected_entries + expected_entries / 4));
  if (shard_budget_ > 0) {
    // Never allocate a table that alone exceeds the shard's byte budget.
    while (slots > 64 &&
           static_cast<int64_t>(slots) * kTableSlotBytes > shard_budget_ / 2) {
      slots /= 2;
    }
  }
  std::vector<uint32_t>(slots, 0).swap(shard->tag);
  std::vector<uint32_t>(slots, kEmptySlot).swap(shard->pos);
  shard->slots = slots;
  shard->entries = 0;
  // Swap, not clear(): a sealed shard must actually release its arena
  // capacity or the byte budget would never be regained.
  std::vector<uint8_t>().swap(shard->arena);
}

int64_t ContentMemo::ShardResidentBytes(const Shard& shard) const {
  return static_cast<int64_t>(shard.tag.capacity()) * 4 +
         static_cast<int64_t>(shard.pos.capacity()) * 4 +
         static_cast<int64_t>(shard.arena.capacity());
}

void ContentMemo::UpdateShardBytes(Shard* shard) {
  const int64_t now = ShardResidentBytes(*shard);
  const int64_t delta = now - shard->resident;
  shard->resident = now;
  if (delta != 0) {
    const int64_t total =
        bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    bytes_gauge_.Set(static_cast<double>(total));
  }
}

bool ContentMemo::ProbeLocked(const Shard& shard, uint64_t hash,
                              const uint8_t* key, size_t key_len,
                              float* p_error, bool* from_segment) const {
  *from_segment = false;
  if (shard.slots != 0) {
    const uint32_t tag = HashTag(hash);
    uint64_t slot = SlotFor(hash, shard.slots);
    while (shard.pos[slot] != kEmptySlot) {
      if (shard.tag[slot] == tag) {
        const uint8_t* rec = shard.arena.data() + shard.pos[slot];
        const uint8_t* end = shard.arena.data() + shard.arena.size();
        uint32_t stored_len;
        const size_t vn = GetVarint(rec, end, &stored_len);
        if (vn != 0 && stored_len == key_len &&
            rec + vn + key_len + 4 <= end &&
            std::memcmp(rec + vn, key, key_len) == 0) {
          std::memcpy(p_error, rec + vn + key_len, 4);
          return true;
        }
      }
      if (++slot == shard.slots) slot = 0;
    }
  }
  for (auto it = shard.segments.rbegin(); it != shard.segments.rend(); ++it) {
    if (it->Find(hash, key, key_len, p_error)) {
      *from_segment = true;
      return true;
    }
  }
  return false;
}

bool ContentMemo::ProbeCellLocked(const Shard& shard, uint64_t hash,
                                  const data::EncodedDataset& ds, int64_t i,
                                  std::vector<uint8_t>* scratch, float* p_error,
                                  bool* from_segment) const {
  *from_segment = false;
  if (shard.slots != 0) {
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
  }
  if (!shard.segments.empty()) {
    // Segment binary search needs the canonical key bytes; this path only
    // runs once spill has happened, so the packing cost stays off the
    // resident fast path.
    scratch->clear();
    AppendPackedCellKey(ds, i, scratch);
    for (auto it = shard.segments.rbegin(); it != shard.segments.rend();
         ++it) {
      if (it->Find(hash, scratch->data(), scratch->size(), p_error)) {
        *from_segment = true;
        return true;
      }
    }
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
  std::vector<uint8_t> key;
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
    bool from_segment;
    if (ProbeCellLocked(shard, h, ds, i, &key, &p_error, &from_segment)) {
      (*p)[i] = p_error;
      (*hit)[i] = 1;
      shard.hits += 1;
      if (from_segment) shard.spill_hits += 1;
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

void ContentMemo::SealShard(Shard* shard, int shard_index) {
  if (options_.spill && !options_.spill_dir.empty() && shard->entries > 0) {
    std::vector<SpillRecord> records;
    records.reserve(shard->entries);
    for (uint64_t slot = 0; slot < shard->slots; ++slot) {
      if (shard->pos[slot] == kEmptySlot) continue;
      SpillRecord r;
      const uint8_t* rec = shard->arena.data() + shard->pos[slot];
      const uint8_t* end = shard->arena.data() + shard->arena.size();
      uint32_t key_len = 0;
      const size_t vn = GetVarint(rec, end, &key_len);
      r.key.assign(rec + vn, rec + vn + key_len);
      std::memcpy(&r.p_error, rec + vn + key_len, 4);
      r.hash = PackedKeyContentHash(r.key.data(), r.key.size());
      records.push_back(std::move(r));
    }
    ::mkdir(options_.spill_dir.c_str(), 0755);  // best effort, EEXIST fine.
    const std::string path = options_.spill_dir + "/memo-shard" +
                             std::to_string(shard_index) + "-" +
                             std::to_string(shard->seals) + ".seg";
    Status st = SpillSegment::Write(path, std::move(records));
    if (st.ok()) {
      auto opened = SpillSegment::Open(path);
      if (opened.ok()) {
        shard->segments.push_back(std::move(opened).value());
        shard->spilled_entries += shard->entries;
        spilled_segments_counter_.Add(1);
        {
          std::lock_guard<std::mutex> lock(spill_mu_);
          spilled_paths_.push_back(path);
        }
      } else {
        std::remove(path.c_str());
        st = opened.status();
      }
    }
    if (!st.ok()) {
      // Spill failed (disk full, bad dir, corrupt write): degrade to plain
      // eviction — still correct, the dropped content just recomputes.
      shard->spill_failures += 1;
      shard->evictions += 1;
      shard->evicted_entries += shard->entries;
      evictions_counter_.Add(1);
    }
  } else if (shard->entries > 0) {
    shard->evictions += 1;
    shard->evicted_entries += shard->entries;
    evictions_counter_.Add(1);
  }
  shard->seals += 1;
  InitTable(shard, std::max<int64_t>(shard->entries, 1024));
  // Note: the bloom is intentionally never rebuilt. Spilled entries remain
  // findable (bits still valid); evicted entries leave stale bits that can
  // only cause counted false positives, never a wrong answer.
}

void ContentMemo::Insert(const data::EncodedDataset& ds, int64_t i,
                         float p_error) {
  if (!enabled()) return;
  const uint64_t h = ds.CellContentHash(i);
  std::vector<uint8_t> key;
  AppendPackedCellKey(ds, i, &key);

  Shard& shard = shards_[ShardIndex(h)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots == 0) {
    // Lazy start: small even when capacity is huge — GrowTable doubles as
    // the population actually arrives.
    InitTable(&shard, std::min<int64_t>(shard_capacity_ / 4, 4096));
  }

  float existing;
  bool from_segment;
  if (ProbeLocked(shard, h, key.data(), key.size(), &existing,
                  &from_segment)) {
    return;  // first value wins (all writers agree anyway).
  }

  // Seal when the shard hits its entry bound, when this insert would push
  // its resident bytes past the configured budget share (projecting the
  // arena/table doublings the insert would trigger), or when the arena
  // nears the uint32 position ceiling.
  const int64_t arena_add =
      static_cast<int64_t>(key.size()) + 9;  // varint prefix + p_error bytes.
  // Arena growth step: ~12.5% (min 4 KiB) when unbounded, but never more
  // than a quarter of the shard's byte share when budgeted — a fixed floor
  // would overshoot tight budgets by 16 x 4 KiB before the first seal.
  int64_t arena_step = std::max<int64_t>(
      arena_add,
      std::max<int64_t>(static_cast<int64_t>(shard.arena.capacity()) / 8,
                        4096));
  if (shard_budget_ > 0) {
    arena_step = std::max<int64_t>(
        arena_add, std::min<int64_t>(arena_step, shard_budget_ / 4));
  }
  const bool needs_grow =
      shard.entries + 1 > static_cast<int64_t>(shard.slots) * 4 / 5;
  bool over_budget = false;
  if (shard_budget_ > 0) {
    int64_t projected = ShardResidentBytes(shard);
    if (shard.arena.size() + arena_add > shard.arena.capacity()) {
      projected += arena_step;
    }
    if (needs_grow) {
      projected += static_cast<int64_t>(shard.slots) * kTableSlotBytes;
    }
    over_budget = projected > shard_budget_;
  }
  const bool arena_full =
      shard.arena.size() + arena_add > 0xFFFF0000u;  // uint32 pos ceiling.
  if (shard.entries + 1 > shard_capacity_ || over_budget || arena_full) {
    SealShard(&shard, ShardIndex(h));
  }

  // Grow the table before it saturates (linear probing degrades past ~0.8
  // load); under a byte budget the seal above already bounded the size.
  if (shard.entries + 1 > static_cast<int64_t>(shard.slots) * 4 / 5) {
    GrowTable(&shard);
  }

  // Grow the arena in the projected step instead of vector's doubling:
  // slack is resident bytes, and bytes/unique-cell is the whole point here.
  if (shard.arena.size() + arena_add > shard.arena.capacity()) {
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
    s.spilled_segments += static_cast<int64_t>(shard.segments.size());
    s.spilled_entries += shard.spilled_entries;
    s.spill_hits += shard.spill_hits;
    s.spill_failures += shard.spill_failures;
  }
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
  s.probe_seconds =
      static_cast<double>(probe_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

}  // namespace birnn::core
