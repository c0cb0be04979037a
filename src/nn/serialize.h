#ifndef BIRNN_NN_SERIALIZE_H_
#define BIRNN_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/status.h"

namespace birnn::nn {

/// The dtype byte of every checkpoint entry: f32, the only element type
/// written or read.
inline constexpr uint8_t kDtypeF32 = 0;

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
///            u8 dtype (always kDtypeF32), u32 rank, dims (i32 each),
///            raw f32 element data
///   u64  FNV-1a checksum of the payload bytes
/// Little-endian (the only platform we target). The trailing checksum
/// makes truncated or bit-flipped files fail loudly instead of loading
/// garbage weights. The file is replaced durably (util::WriteFileAtomic);
/// `checksum`, when non-null, receives the trailer so a bundle manifest
/// can bind itself to this exact file.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path, uint64_t* checksum = nullptr);

/// Loads a checkpoint saved by SaveParameters. Verifies the payload
/// checksum, then matches entries to parameters by name; a missing,
/// shape-mismatched, duplicate or extra entry is an error, and so is a
/// non-f32 dtype (named in the message) or another format version — a
/// checkpoint that does not exactly cover the parameter list is treated as
/// drift, not silently accepted. On success `checksum`, when non-null,
/// receives the verified trailer of the image that was parsed.
Status LoadParameters(const std::string& path,
                      const std::vector<Parameter*>& params,
                      uint64_t* checksum = nullptr);

}  // namespace birnn::nn

#endif  // BIRNN_NN_SERIALIZE_H_
