#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "util/file.h"
#include "util/hash.h"

namespace birnn::nn {

namespace {
constexpr char kMagic[8] = {'B', 'R', 'N', 'N', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersionSentinel = 0xFFFFFFFFu;
constexpr uint8_t kFormatVersion = 2;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n);
}

/// Bounds-checked cursor over an in-memory checkpoint image. Every read
/// fails cleanly at the end of the buffer, so truncation can never turn
/// into an out-of-bounds access or a partially initialized tensor.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Read(void* out, size_t n) {
    if (n > size - pos) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  size_t remaining() const { return size - pos; }
};

/// Parses the entry section (u32 count + entries) starting at `r.pos` and
/// loads it into `params`, enforcing exact coverage: every parameter must
/// be present with a matching shape, and the file must not contain
/// duplicate, extra or non-f32 entries.
Status ParseEntries(Reader* r, const std::vector<Parameter*>& params,
                    const std::string& path) {
  uint32_t count = 0;
  if (!r->ReadU32(&count)) return Status::IoError("truncated header: " + path);

  std::map<std::string, Tensor> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!r->ReadU32(&name_len)) return Status::IoError("truncated entry");
    if (name_len > r->remaining()) return Status::IoError("truncated entry");
    std::string name(name_len, '\0');
    if (!r->Read(name.data(), name_len)) return Status::IoError("truncated entry");
    uint8_t dtype = kDtypeF32;
    if (!r->Read(&dtype, sizeof(dtype))) {
      return Status::IoError("truncated entry");
    }
    if (dtype != kDtypeF32) {
      return Status::InvalidArgument("unknown dtype " + std::to_string(dtype) +
                                     " for " + name);
    }
    uint32_t rank = 0;
    if (!r->ReadU32(&rank)) return Status::IoError("truncated entry");
    if (rank > 8) return Status::InvalidArgument("implausible rank for " + name);
    std::vector<int> shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      int32_t dim = 0;
      if (!r->Read(&dim, sizeof(dim))) return Status::IoError("truncated entry");
      if (dim < 0) return Status::InvalidArgument("negative dimension");
      shape[d] = dim;
    }
    // Bound the element count by the bytes left before allocating, so a
    // corrupted shape fails as truncation instead of a huge allocation.
    const size_t max_elements = r->remaining() / sizeof(float);
    size_t elements =
        std::find(shape.begin(), shape.end(), 0) == shape.end() ? 1 : 0;
    for (const int dim : shape) {
      if (elements > max_elements / std::max(dim, 1)) {
        return Status::IoError("truncated tensor data for " + name);
      }
      elements *= static_cast<size_t>(dim);
    }
    Tensor t(shape);
    if (!r->Read(t.data(), elements * sizeof(float))) {
      return Status::IoError("truncated tensor data for " + name);
    }
    if (!loaded.emplace(std::move(name), std::move(t)).second) {
      return Status::InvalidArgument("duplicate checkpoint entry");
    }
  }
  if (r->remaining() > 0) {
    return Status::InvalidArgument("trailing bytes after last entry: " + path);
  }

  for (Parameter* p : params) {
    auto it = loaded.find(p->name);
    if (it == loaded.end()) {
      return Status::NotFound("checkpoint missing parameter: " + p->name);
    }
    if (it->second.shape() != p->value.shape()) {
      return Status::InvalidArgument("shape mismatch for " + p->name);
    }
    p->value = std::move(it->second);
    loaded.erase(it);
  }
  if (loaded.empty()) return Status::OK();
  std::ostringstream msg;
  msg << "checkpoint has " << loaded.size()
      << " extra entr" << (loaded.size() == 1 ? "y" : "ies")
      << " not matched by any parameter:";
  int shown = 0;
  for (const auto& [name, tensor] : loaded) {
    (void)tensor;
    if (shown++ == 4) {
      msg << " ...";
      break;
    }
    msg << ' ' << name;
  }
  return Status::InvalidArgument(msg.str());
}

/// Serializes one parameter (name, dtype, shape, raw f32 data).
void AppendEntry(std::string* payload, const Parameter& p) {
  AppendU32(payload, static_cast<uint32_t>(p.name.size()));
  AppendBytes(payload, p.name.data(), p.name.size());
  payload->push_back(static_cast<char>(kDtypeF32));
  AppendU32(payload, static_cast<uint32_t>(p.value.shape().size()));
  for (int d : p.value.shape()) {
    const int32_t dim = d;
    AppendBytes(payload, &dim, sizeof(dim));
  }
  AppendBytes(payload, p.value.data(), p.value.size() * sizeof(float));
}

std::string HexU64(uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
  return out.str();
}

}  // namespace

std::vector<Tensor> SnapshotParams(const std::vector<Parameter*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const Parameter* p : params) out.push_back(p->value);
  return out;
}

void RestoreParams(const std::vector<Tensor>& snapshot,
                   const std::vector<Parameter*>& params) {
  BIRNN_CHECK_EQ(snapshot.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    BIRNN_CHECK(snapshot[i].shape() == params[i]->value.shape())
        << "snapshot shape mismatch for " << params[i]->name;
    params[i]->value = snapshot[i];
  }
}

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path, uint64_t* checksum) {
  std::string image(kMagic, sizeof(kMagic));
  AppendU32(&image, kVersionSentinel);
  image.push_back(static_cast<char>(kFormatVersion));
  const size_t header = image.size();
  AppendU32(&image, static_cast<uint32_t>(params.size()));
  for (const Parameter* p : params) AppendEntry(&image, *p);
  const uint64_t sum =
      util::Fnv1a(image.data() + header, image.size() - header);
  AppendBytes(&image, &sum, sizeof(sum));
  BIRNN_RETURN_IF_ERROR(util::WriteFileAtomic(path, image));
  if (checksum != nullptr) *checksum = sum;
  return Status::OK();
}

Status LoadParameters(const std::string& path,
                      const std::vector<Parameter*>& params,
                      uint64_t* checksum) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in) return Status::IoError("read failed: " + path);
  const std::string image = std::move(buffer).str();

  Reader r{image.data(), image.size()};
  char magic[8];
  if (!r.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a BRNNCKPT file: " + path);
  }
  uint32_t sentinel = 0;
  uint8_t version = 0;
  if (!r.ReadU32(&sentinel) || !r.Read(&version, sizeof(version))) {
    return Status::IoError("truncated header: " + path);
  }
  if (sentinel != kVersionSentinel) {
    return Status::InvalidArgument(
        "unsupported checkpoint format (no version sentinel): " + path);
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint format version " +
                                   std::to_string(version) + ": " + path);
  }
  if (r.remaining() < sizeof(uint64_t)) {
    return Status::IoError("truncated checkpoint (no checksum): " + path);
  }
  const size_t payload_size = r.remaining() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, image.data() + r.pos + payload_size, sizeof(stored));
  const uint64_t actual = util::Fnv1a(image.data() + r.pos, payload_size);
  if (stored != actual) {
    return Status::IoError(
        "checkpoint checksum mismatch (truncated or corrupted file): " +
        path + " expected FNV-1a " + HexU64(stored) + ", actual " +
        HexU64(actual));
  }
  Reader payload{image.data() + r.pos, payload_size};
  BIRNN_RETURN_IF_ERROR(ParseEntries(&payload, params, path));
  if (checksum != nullptr) *checksum = actual;
  return Status::OK();
}

}  // namespace birnn::nn
