#ifndef BIRNN_NN_SERIALIZE_H_
#define BIRNN_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/status.h"

namespace birnn::nn {

/// Element dtypes a checkpoint entry can carry. f32 entries are model
/// parameters (or int8 quantization scales); i8 entries are the int8
/// shadow weights (nn/quant.h).
inline constexpr uint8_t kDtypeF32 = 0;
inline constexpr uint8_t kDtypeI8 = 1;

/// Returns the element size for a dtype tag, or 0 if unknown.
size_t DtypeSize(uint8_t dtype);

/// One non-parameter checkpoint entry: a named, typed, shaped raw blob.
/// Carried alongside the fp32 parameters so a bundle can ship pre-quantized
/// weights and make int8 loading zero-cost.
struct TypedEntry {
  std::string name;
  uint8_t dtype = kDtypeF32;
  std::vector<int> shape;
  std::string bytes;  ///< little-endian payload, ShapeSize(shape)*DtypeSize.
};

/// In-memory snapshot of parameter values (the paper's "save the training
/// weights with a callback if the loss improved"). Order matters: restore
/// into the same parameter list.
std::vector<Tensor> SnapshotParams(const std::vector<Parameter*>& params);

/// Writes snapshot values back into the parameters. Shapes must match.
void RestoreParams(const std::vector<Tensor>& snapshot,
                   const std::vector<Parameter*>& params);

/// Binary on-disk checkpoint (the only format read or written):
///   magic "BRNNCKPT"
///   u32  0xFFFFFFFF           version sentinel
///   u8   format version (2)
///   payload: u32 count, then per entry: u32 name length, name bytes,
///            u8 dtype, u32 rank, dims (i32 each), raw element data
///            (dtype-sized)
///   u64  FNV-1a checksum of the payload bytes
/// Little-endian (the only platform we target). The fp32 parameters are
/// written first, then `extras` (typed blobs — the pre-quantized shadow
/// weights). The trailing checksum makes truncated or bit-flipped files
/// fail loudly instead of loading garbage weights. The file is replaced
/// durably (util::WriteFileAtomic); `checksum`, when non-null, receives
/// the trailer so a bundle manifest can bind itself to this exact file.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path,
                      const std::vector<TypedEntry>& extras = {},
                      uint64_t* checksum = nullptr);

/// Loads a checkpoint saved by SaveParameters. Verifies the payload
/// checksum, then matches f32 entries to parameters by name; a missing,
/// shape-mismatched or duplicate entry is an error, and so is an unknown
/// dtype or format version. Non-f32 entries — plus any f32 entry that
/// matches no parameter, i.e. the "__q8s/..." quantization scales — are
/// returned through `extras` when non-null and rejected otherwise, so a
/// checkpoint that does not exactly cover the parameter list is treated as
/// drift, not silently accepted. On success `checksum`, when non-null,
/// receives the verified trailer of the image that was parsed.
Status LoadParameters(const std::string& path,
                      const std::vector<Parameter*>& params,
                      std::vector<TypedEntry>* extras = nullptr,
                      uint64_t* checksum = nullptr);

}  // namespace birnn::nn

#endif  // BIRNN_NN_SERIALIZE_H_
