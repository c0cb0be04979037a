#ifndef BIRNN_UTIL_HASH_H_
#define BIRNN_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace birnn::util {

/// 64-bit FNV-1a, the repo's one content digest: checkpoint and manifest
/// checksums, the dictionary fingerprint, the memo's cell content hash
/// and eval cache keys. Several of these are
/// persisted, so the function must never change. Header-only because the
/// memo hash sits on the inference hot path.
inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `n` bytes into the running state `h`.
inline uint64_t Fnv1aMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnv1aPrime;
  return h;
}

/// Folds the eight little-endian bytes of `v` into `h`.
inline uint64_t Fnv1aMixU64(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) h = (h ^ ((v >> (b * 8)) & 0xFFu)) * kFnv1aPrime;
  return h;
}

inline uint64_t Fnv1a(const void* data, size_t n) {
  return Fnv1aMix(kFnv1aOffset, data, n);
}

/// Streaming form for digesting a sequence of fields.
class Fnv1a64 {
 public:
  void Add(std::string_view bytes) {
    hash_ = Fnv1aMix(hash_, bytes.data(), bytes.size());
  }
  void AddU64(uint64_t v) { hash_ = Fnv1aMixU64(hash_, v); }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kFnv1aOffset;
};

}  // namespace birnn::util

#endif  // BIRNN_UTIL_HASH_H_
