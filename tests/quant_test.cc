// Bundle refusals of the retired low-precision tiers: a corrupted
// checkpoint names the file and both FNV-1a checksums, a checkpoint
// carrying an entry of a removed dtype (the bf16 or int8 shadow weights) is
// refused by name, and a version 4 bundle — the last layout that shipped
// int8 shadow weights — is refused at its manifest's first line.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/model.h"
#include "data/dictionary.h"
#include "nn/tensor.h"
#include "serve/bundle.h"

namespace birnn::nn {
namespace {

core::TrainedDetector MakeTinyTrained() {
  core::TrainedDetector trained;
  trained.chars = data::CharIndex::BuildFromStrings(
      {"abcdefghijklmnopqrstuvwxyz0123456789 ?"});
  core::ModelConfig config;
  config.vocab = trained.chars.vocab_size();
  config.max_len = 10;
  config.n_attrs = 2;
  config.char_emb_dim = 6;
  config.units = 7;
  config.stacks = 2;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 3;
  config.length_dense_dim = 6;
  config.hidden_dense_dim = 6;
  config.seed = 5;
  trained.config = config;
  trained.model = std::make_unique<core::ErrorDetectionModel>(config);
  trained.attr_names = {"a", "b"};
  trained.attr_max_value_len = {8, 10};
  trained.attr_empty_rate = {0.0f, 0.0f};
  trained.attr_error_rate = {0.0f, 0.0f};
  trained.has_frozen_stats = true;
  return trained;
}

std::string TempDir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// FNV-1a over `data` — the checkpoint's payload and the manifest checksum.
uint64_t Fnv1a(const std::string& data) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One raw checkpoint entry of `dtype` (1-byte int8, 2-byte bf16 or
/// 4-byte f32 elements), zero-filled.
std::string RawEntry(const std::string& name, uint8_t dtype,
                     const std::vector<int>& shape) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(name.size()));
  out.append(name);
  out.push_back(static_cast<char>(dtype));
  AppendU32(&out, static_cast<uint32_t>(shape.size()));
  size_t elements = 1;
  for (const int d : shape) {
    AppendU32(&out, static_cast<uint32_t>(d));
    elements *= static_cast<size_t>(d);
  }
  const size_t element_bytes = dtype == 1 ? 1 : dtype == 2 ? 2 : 4;
  out.append(elements * element_bytes, '\0');
  return out;
}

/// Appends `entries` to the checkpoint payload (header: magic, sentinel,
/// version byte; trailer: checksum) and re-seals it, so only the spliced
/// entries can make a load fail.
void SpliceEntries(const std::string& ckpt,
                   const std::vector<std::string>& entries) {
  const std::string image = ReadFile(ckpt);
  constexpr size_t kHeader = 13;
  ASSERT_GT(image.size(), kHeader + 12);
  std::string payload = image.substr(kHeader, image.size() - kHeader - 8);
  uint32_t count = 0;
  std::memcpy(&count, payload.data(), sizeof(count));
  count += static_cast<uint32_t>(entries.size());
  std::memcpy(payload.data(), &count, sizeof(count));
  for (const std::string& e : entries) payload += e;
  const uint64_t checksum = Fnv1a(payload);
  std::string sealed = image.substr(0, kHeader) + payload;
  sealed.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  WriteFile(ckpt, sealed);
}

/// Rewrites the manifest's first line to `header` and re-seals its closing
/// checksum line, so only the header can make a load fail.
void ResealManifest(const std::string& manifest, const std::string& header) {
  const std::string text = ReadFile(manifest);
  const size_t seal = text.rfind("\nchecksum ");
  ASSERT_NE(seal, std::string::npos);
  const std::string body =
      header + text.substr(text.find('\n'), seal + 1 - text.find('\n'));
  WriteFile(manifest, body + "checksum " + std::to_string(Fnv1a(body)) + "\n");
}

/// The first recurrent wx and wh parameters of `model` (name and shape).
void FirstRecurrentKernels(const core::ErrorDetectionModel& model,
                           std::pair<std::string, std::vector<int>>* wx,
                           std::pair<std::string, std::vector<int>>* wh) {
  for (const Parameter* p : model.ConstParams()) {
    const std::string& n = p->name;
    if (wx->first.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wx") {
      *wx = {n, p->value.shape()};
    }
    if (wh->first.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wh") {
      *wh = {n, p->value.shape()};
    }
  }
}

TEST(QuantBundleTest, ChecksumMismatchNamesFileAndChecksums) {
  const std::string dir = TempDir("quant_bundle_corrupt");
  auto trained = MakeTinyTrained();
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  const std::string ckpt = dir + "/weights.ckpt";
  // Flip one payload byte past the header.
  std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(64);
  char byte = 0;
  f.seekg(64);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(64);
  f.write(&byte, 1);
  f.close();

  auto loaded = serve::LoadDetectorBundle(dir);
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().message();
  EXPECT_NE(message.find(ckpt), std::string::npos) << message;
  EXPECT_NE(message.find("expected FNV-1a 0x"), std::string::npos) << message;
  EXPECT_NE(message.find("actual 0x"), std::string::npos) << message;
  std::filesystem::remove_all(dir);
}

TEST(QuantBundleTest, HalfPrecisionEntryFailsLoadNamingIt) {
  auto trained = MakeTinyTrained();
  std::pair<std::string, std::vector<int>> wx, wh;
  FirstRecurrentKernels(*trained.model, &wx, &wh);
  ASSERT_FALSE(wx.first.empty());
  ASSERT_FALSE(wh.first.empty());

  {
    // Bundles once shipped bfloat16 shadow weights as dtype-2 "__bf16/..."
    // entries. A checkpoint carrying one must be refused by name, not
    // half-loaded.
    const std::string dir = TempDir("quant_bundle_half_precision");
    ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());
    SpliceEntries(dir + "/weights.ckpt",
                  {RawEntry("__bf16/" + wx.first, 2, wx.second),
                   RawEntry("__bf16/" + wh.first, 2, wh.second)});
    auto loaded = serve::LoadDetectorBundle(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("__bf16/" + wx.first),
              std::string::npos)
        << loaded.status().message();
    std::filesystem::remove_all(dir);
  }

  // The version 4 layout: every recurrent kernel shipped an int8 shadow
  // "__q8/<param>" (dtype 1, out x in) with its f32 scales "__q8s/<param>",
  // under a version 4 manifest. Its header refuses it first; under a
  // current header the checkpoint still refuses the int8 entry by name.
  const auto transposed = [](const std::vector<int>& shape) {
    return std::vector<int>{shape[1], shape[0]};
  };
  const std::vector<std::string> q8_entries = {
      RawEntry("__q8/" + wx.first, 1, transposed(wx.second)),
      RawEntry("__q8s/" + wx.first, 0, {wx.second[1]}),
      RawEntry("__q8/" + wh.first, 1, transposed(wh.second)),
      RawEntry("__q8s/" + wh.first, 0, {wh.second[1]})};
  for (const bool v4_header : {true, false}) {
    const std::string dir = TempDir("quant_bundle_v4_layout");
    ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());
    SpliceEntries(dir + "/weights.ckpt", q8_entries);
    if (v4_header) {
      ResealManifest(dir + "/manifest.txt", "birnn-detector-bundle 4");
    }
    auto loaded = serve::LoadDetectorBundle(dir);
    ASSERT_FALSE(loaded.ok()) << v4_header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    const std::string want = v4_header ? std::string("detector bundle manifest")
                                       : "__q8/" + wx.first;
    EXPECT_NE(loaded.status().message().find(want), std::string::npos)
        << loaded.status().message();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace birnn::nn
