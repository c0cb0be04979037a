// Coverage for the checkpoint format (magic + version sentinel + version
// byte + typed entries + FNV-1a payload checksum) and its strict load
// contract: truncation, corruption, shape/coverage mismatches, missing
// parameters and files, duplicate entries, trailing bytes, unknown dtypes,
// and refusal of every layout other than the current version; plus the
// in-memory snapshot/restore round trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "data/dictionary.h"
#include "data/encoding.h"
#include "nn/graph.h"
#include "nn/init.h"
#include "nn/serialize.h"
#include "test_support.h"
#include "util/rng.h"

namespace birnn::nn {
namespace {

using test::ReadFile;
using test::WriteFile;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t Fnv1a(const std::string& data) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// One payload entry: name, dtype byte, rank-1 shape, raw data.
std::string Entry(const std::string& name, const std::vector<float>& values,
                  uint8_t dtype = kDtypeF32) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(name.size()));
  out.append(name);
  out.push_back(static_cast<char>(dtype));
  AppendU32(&out, 1);  // rank
  AppendU32(&out, static_cast<uint32_t>(values.size()));
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(float));
  return out;
}

// A correctly sealed checkpoint image around `entries` (plus `tail` bytes
// inside the checksummed payload), so a load reaches the entry parser.
std::string SealedImage(const std::vector<std::string>& entries,
                        const std::string& tail = "", uint8_t version = 2) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(entries.size()));
  for (const std::string& e : entries) payload += e;
  payload += tail;
  std::string image = "BRNNCKPT";
  AppendU32(&image, 0xFFFFFFFFu);
  image.push_back(static_cast<char>(version));
  image += payload;
  const uint64_t checksum = Fnv1a(payload);
  image.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return image;
}

TEST(CheckpointTest, RoundtripIsBitExact) {
  Rng rng(7);
  Parameter a("enc/w", Tensor(5, 3));
  Parameter b("enc/b", Tensor(std::vector<int>{3}));
  NormalInit(&a.value, 1.0f, &rng);
  NormalInit(&b.value, 1.0f, &rng);
  // Plant awkward values: negative zero, denormal, huge.
  a.value[0] = -0.0f;
  a.value[1] = 1e-40f;
  b.value[0] = 3.0e38f;
  const Tensor a_orig = a.value;
  const Tensor b_orig = b.value;

  const std::string path = TempPath("birnn_ser_roundtrip.bin");
  ASSERT_TRUE(SaveParameters({&a, &b}, path).ok());
  a.value.Fill(0.0f);
  b.value.Fill(0.0f);
  ASSERT_TRUE(LoadParameters(path, {&a, &b}).ok());
  EXPECT_EQ(0, std::memcmp(a.value.data(), a_orig.data(),
                           a_orig.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(b.value.data(), b_orig.data(),
                           b_orig.size() * sizeof(float)));
  std::remove(path.c_str());
}

TEST(CheckpointTest, FileStartsWithMagicSentinelAndVersion) {
  Parameter a("a", Tensor(std::vector<int>{1}));
  a.value[0] = 0.5f;
  const std::string path = TempPath("birnn_ser_header.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  const std::string image = ReadFile(path);
  ASSERT_GE(image.size(), 13u);
  EXPECT_EQ(image.substr(0, 8), "BRNNCKPT");
  uint32_t sentinel = 0;
  std::memcpy(&sentinel, image.data() + 8, sizeof(sentinel));
  EXPECT_EQ(sentinel, 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<uint8_t>(image[12]), 2);  // format version
  // The writer and the hand-built image agree byte for byte.
  EXPECT_EQ(image, SealedImage({Entry("a", {0.5f})}));
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileFails) {
  Rng rng(8);
  Parameter a("a", Tensor(4, 4));
  NormalInit(&a.value, 1.0f, &rng);
  const std::string path = TempPath("birnn_ser_trunc.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  const std::string image = ReadFile(path);

  // Any strict prefix must fail to load — never crash, never half-load.
  for (const size_t keep :
       {image.size() - 1, image.size() - 8, image.size() / 2, size_t{13},
        size_t{10}, size_t{4}, size_t{0}}) {
    WriteFile(path, image.substr(0, keep));
    Parameter fresh("a", Tensor(4, 4));
    EXPECT_FALSE(LoadParameters(path, {&fresh}).ok()) << "prefix " << keep;
  }

  // A sealed entry whose shape claims more floats than the payload holds
  // (2^30 x 2^30, one float of data) fails as truncation before the loader
  // allocates anything for it.
  std::string huge;
  AppendU32(&huge, 1);  // name length
  huge += "a";
  huge.push_back(static_cast<char>(kDtypeF32));
  AppendU32(&huge, 2);  // rank
  AppendU32(&huge, 1u << 30);
  AppendU32(&huge, 1u << 30);
  const float one = 1.0f;
  huge.append(reinterpret_cast<const char*>(&one), sizeof(one));
  WriteFile(path, SealedImage({huge}));
  Parameter fresh("a", Tensor(4, 4));
  const Status st = LoadParameters(path, {&fresh});
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.message();
  EXPECT_NE(st.message().find("truncated"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptedPayloadFailsChecksum) {
  Rng rng(9);
  Parameter a("a", Tensor(8, 8));
  NormalInit(&a.value, 1.0f, &rng);
  const std::string path = TempPath("birnn_ser_corrupt.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  std::string image = ReadFile(path);

  // Flip one bit in the middle of the tensor data.
  image[image.size() / 2] ^= 0x01;
  WriteFile(path, image);
  Parameter fresh("a", Tensor(8, 8));
  const Status st = LoadParameters(path, {&fresh});
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptedChecksumTrailerFails) {
  Parameter a("a", Tensor(2, 2));
  const std::string path = TempPath("birnn_ser_badsum.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  std::string image = ReadFile(path);
  image[image.size() - 3] ^= 0xFF;  // inside the trailing u64 checksum
  WriteFile(path, image);
  Parameter fresh("a", Tensor(2, 2));
  EXPECT_EQ(LoadParameters(path, {&fresh}).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, WrongShapeFails) {
  Parameter a("a", Tensor(2, 3));
  const std::string path = TempPath("birnn_ser_shape.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  Parameter wrong("a", Tensor(3, 2));
  EXPECT_EQ(LoadParameters(path, {&wrong}).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ExtraEntriesFail) {
  Parameter a("a", Tensor(1, 2));
  Parameter b("b", Tensor(1, 2));
  Parameter c("c", Tensor(1, 2));
  const std::string path = TempPath("birnn_ser_extra.bin");
  ASSERT_TRUE(SaveParameters({&a, &b, &c}, path).ok());
  // Loading into a strict subset must fail loudly — silent partial loads
  // hide a model/checkpoint mismatch.
  Parameter only_a("a", Tensor(1, 2));
  const Status st = LoadParameters(path, {&only_a});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("extra"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("b"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, DuplicateEntryFails) {
  const std::string path = TempPath("birnn_ser_dup.bin");
  WriteFile(path, SealedImage({Entry("w", {1.0f}), Entry("w", {1.0f})}));
  Parameter p("w", Tensor(std::vector<int>{1}));
  const Status st = LoadParameters(path, {&p});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("duplicate"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingBytesInsidePayloadFail) {
  const std::string path = TempPath("birnn_ser_trail.bin");
  WriteFile(path, SealedImage({Entry("w", {1.0f})}, "junk"));
  Parameter p("w", Tensor(std::vector<int>{1}));
  const Status st = LoadParameters(path, {&p});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("trailing"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnknownDtypeFailsNamingTheEntry) {
  const std::string path = TempPath("birnn_ser_dtype.bin");
  // Every entry is f32. The retired int8 shadow (dtype 1) and bf16 (dtype 2)
  // entries are refused by name, even beside a complete parameter set.
  const struct {
    const char* name;
    uint8_t dtype;
  } kRefused[] = {{"__q8/w", 1}, {"__bf16/w", 2}};
  for (const auto& refused : kRefused) {
    WriteFile(path, SealedImage({Entry("w", {1.0f}),
                                 Entry(refused.name, {0.0f}, refused.dtype)}));
    Parameter p("w", Tensor(std::vector<int>{1}));
    const Status st = LoadParameters(path, {&p});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << refused.name;
    EXPECT_NE(st.message().find(refused.name), std::string::npos)
        << st.message();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, OtherFormatVersionsFail) {
  const std::string path = TempPath("birnn_ser_version.bin");
  Parameter a("a", Tensor(std::vector<int>{1}));
  // Version 1 (entries without a dtype byte) and a future version 3 are
  // both refused, even when correctly sealed.
  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    WriteFile(path, SealedImage({Entry("a", {1.0f})}, "", version));
    const Status st = LoadParameters(path, {&a});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << int{version};
    EXPECT_NE(st.message().find("version"), std::string::npos)
        << st.message();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LayoutWithoutSentinelFails) {
  // The pre-checksum layout stored the entry count right after the magic.
  std::string image = "BRNNCKPT";
  AppendU32(&image, 1);
  image += Entry("w", {1.0f});
  const std::string path = TempPath("birnn_ser_nosentinel.bin");
  WriteFile(path, image);
  Parameter p("w", Tensor(std::vector<int>{1}));
  const Status st = LoadParameters(path, {&p});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unsupported checkpoint format"),
            std::string::npos)
      << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingParameterFails) {
  Parameter a("a", Tensor(1, 1));
  const std::string path = TempPath("birnn_ser_missing_param.bin");
  ASSERT_TRUE(SaveParameters({&a}, path).ok());
  Parameter other("other", Tensor(1, 1));
  EXPECT_EQ(LoadParameters(path, {&other}).code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(CheckpointTest, NotACheckpointFails) {
  const std::string path = TempPath("birnn_ser_garbage.bin");
  WriteFile(path, "garbage data");
  Parameter a("a", Tensor(1, 1));
  EXPECT_FALSE(LoadParameters(path, {&a}).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  Parameter a("a", Tensor(1, 1));
  EXPECT_EQ(LoadParameters("/nonexistent/dir/x.bin", {&a}).code(),
            StatusCode::kIoError);
}

TEST(CheckpointTest, SnapshotRestoreRoundtrip) {
  Rng rng(1);
  Parameter a("a", Tensor(2, 2));
  NormalInit(&a.value, 1.0f, &rng);
  const std::vector<Tensor> snapshot = SnapshotParams({&a});
  const Tensor original = a.value;
  a.value.Fill(0.0f);
  RestoreParams(snapshot, {&a});
  EXPECT_TRUE(a.value.Equals(original));
}

TEST(HashPinTest, PersistedDigestsAreUnchanged) {
  // Digests that reach disk or the wire: the manifest's char_fingerprint,
  // the memo's content hash and the checkpoint trailer. Recorded from the
  // per-module FNV-1a copies these now share one implementation with.
  const data::CharIndex chars = data::CharIndex::BuildFromStrings(
      {"abcdefghijklmnopqrstuvwxyz0123456789 .-"});
  EXPECT_EQ(chars.Fingerprint(), 0xd6b9d4ceeb194ce4ULL);

  data::EncodedDataset ds;
  ds.max_len = 5;
  ds.vocab = chars.vocab_size();
  ds.n_attrs = 3;
  ds.seqs = {7, 3, 19, 0, 0};
  ds.attrs = {2};
  ds.length_norm = {0.375f};
  ds.labels = {0};
  ds.row_ids = {0};
  EXPECT_EQ(ds.CellContentHash(0), 0x7523d76b32836c6bULL);

  Parameter w("w", Tensor::FromMatrix(2, 3, {0.5f, -1.25f, 3.0f, 0.0f,
                                         1e-3f, -7.5f}));
  const std::string path = TempPath("birnn_hash_pin.ckpt");
  ASSERT_TRUE(SaveParameters({&w}, path).ok());
  const std::string image = ReadFile(path);
  ASSERT_GE(image.size(), sizeof(uint64_t));
  uint64_t trailer = 0;
  std::memcpy(&trailer, image.data() + image.size() - sizeof(trailer),
              sizeof(trailer));
  EXPECT_EQ(trailer, 0x6bb5a3d3aba82d87ULL);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace birnn::nn
