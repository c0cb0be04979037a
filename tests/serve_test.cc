// serve subsystem tests: bundle save/load round trips, crafted manifests,
// refusals of corrupted checkpoints and of retired low-precision entries,
// seeded loader fuzzing and the crash states of a re-save, the model registry,
// the line protocol, and the TCP server end to end over real sockets. That
// a served detector answers bit-identically to the offline ErrorDetector run
// that produced its bundle is oracle_test's.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/inference.h"
#include "core/model.h"
#include "datagen/datasets.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "test_support.h"
#include "util/file.h"
#include "util/hash.h"
#include "util/rng.h"

namespace birnn::serve {
namespace {

using test::ConnectTo;
using test::MakeTinyDetector;
using test::MakeTinyTrained;
using test::ReadFile;
using test::RoundTrip;
using test::TempDir;
using test::WriteFile;

std::vector<CellQuery> MakeQueries(int n) {
  std::vector<CellQuery> queries;
  for (int i = 0; i < n; ++i) {
    CellQuery q;
    q.attr = i % 3;
    q.value = "cell " + std::to_string(i * 13 % 31);
    queries.push_back(std::move(q));
  }
  return queries;
}

// Replaces the manifest's trailing checksum line with the FNV-1a of the
// bytes above it, as the writer would: an edited manifest then reaches the
// parser instead of failing its integrity check.
std::string ResealManifest(std::string text) {
  const size_t seal = text.rfind("\nchecksum ");
  if (seal != std::string::npos) text.resize(seal + 1);
  if (!text.empty() && text.back() != '\n') text += '\n';
  return text + "checksum " +
         std::to_string(util::Fnv1a(text.data(), text.size())) + "\n";
}

// Recomputes a checkpoint image's FNV-1a trailer over its payload (the
// bytes between the 13-byte header and the 8-byte trailer).
std::string ResealCheckpoint(std::string image) {
  constexpr size_t kHeader = 13;
  if (image.size() < kHeader + sizeof(uint64_t)) return image;
  const size_t payload = image.size() - kHeader - sizeof(uint64_t);
  const uint64_t sum = util::Fnv1a(image.data() + kHeader, payload);
  std::memcpy(image.data() + kHeader + payload, &sum, sizeof(sum));
  return image;
}

// Rewrites the manifest line that starts with `prefix` to `line`, resealed.
void EditManifestLine(const std::string& dir, const std::string& prefix,
                      const std::string& line) {
  std::string text = ReadFile(dir + "/manifest.txt");
  const size_t at = text.find("\n" + prefix + " ");
  ASSERT_NE(at, std::string::npos) << prefix;
  const size_t end = text.find('\n', at + 1);
  text.replace(at + 1, end - at - 1, line);
  WriteFile(dir + "/manifest.txt", ResealManifest(std::move(text)));
}

// p_error of every probe cell, straight through the inference engine.
std::vector<float> ProbeProbs(const LoadedDetector& detector,
                              const data::EncodedDataset& probe) {
  core::InferenceEngine engine(detector.model(), core::InferenceOptions());
  std::vector<float> probs;
  engine.PredictProbs(probe, {}, &probs);
  return probs;
}

std::vector<float> ProbeProbs(const LoadedDetector& detector) {
  auto probe = detector.EncodeQueries(MakeQueries(24));
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  return ProbeProbs(detector, *probe);
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ----------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesDetectRequest) {
  auto req = ParseRequest(
      R"({"id":"r1","model":"m","cells":[{"attr":"city","value":"x"},)"
      R"({"attr":2,"value":"y"}]})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->op, "detect");  // default
  EXPECT_EQ(req->model, "m");
  ASSERT_EQ(req->cells.size(), 2u);
  EXPECT_EQ(req->cells[0].attr_name, "city");
  EXPECT_EQ(req->cells[0].value, "x");
  EXPECT_EQ(req->cells[1].attr, 2);
  EXPECT_EQ(req->cells[1].value, "y");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2,3]").ok());                 // not an object
  EXPECT_FALSE(ParseRequest(R"({"op":"detect"})").ok());      // no cells
  EXPECT_FALSE(ParseRequest(R"({"op":"explode"})").ok());     // unknown op
  EXPECT_FALSE(
      ParseRequest(R"({"cells":[{"value":"x"}]})").ok());     // no attr
  EXPECT_FALSE(
      ParseRequest(R"({"cells":[{"attr":1.5,"value":"x"}]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"cells":[{"attr":1}]})").ok());  // no value
  EXPECT_TRUE(ParseRequest(R"({"op":"ping"})").ok());  // ops need no cells
}

TEST(ProtocolTest, ParsesReloadAndRollbackRequests) {
  auto reload = ParseRequest(
      R"({"id":"a","op":"reload","model":"m","dir":"/tmp/bundle.v2"})");
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload->op, "reload");
  EXPECT_EQ(reload->model, "m");
  EXPECT_EQ(reload->dir, "/tmp/bundle.v2");

  auto rollback = ParseRequest(R"({"op":"rollback"})");
  ASSERT_TRUE(rollback.ok());
  EXPECT_EQ(rollback->op, "rollback");
  EXPECT_TRUE(rollback->dir.empty());

  auto ack = JsonValue::Parse(ReloadResponse("a", "m", 7));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->GetString("status"), "OK");
  EXPECT_EQ(ack->GetString("model"), "m");
  EXPECT_EQ(ack->GetNumber("generation"), 7.0);
}

TEST(ProtocolTest, JsonFloatRoundTripsBits) {
  for (const float v : {0.0f, 1.0f, 0.5f, 0.123456789f, 0.9999999f,
                        1.1754944e-38f, 0.33333334f}) {
    const float back = std::strtof(JsonFloat(v).c_str(), nullptr);
    EXPECT_EQ(0, std::memcmp(&v, &back, sizeof(float))) << JsonFloat(v);
  }
}

TEST(ProtocolTest, ResponsesAreValidJson) {
  const std::vector<CellVerdict> verdicts = {{0.75f, true}, {0.25f, false}};
  auto ok = JsonValue::Parse(OkDetectResponse("r9", verdicts));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  EXPECT_EQ(ok->GetString("id"), "r9");
  ASSERT_TRUE(ok->Find("results")->is_array());
  EXPECT_EQ(ok->Find("results")->items().size(), 2u);

  auto err = JsonValue::Parse(
      ErrorResponse("", Status::Overloaded("queue \"full\"\n")));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->GetString("status"), "OVERLOADED");
  EXPECT_TRUE(err->Find("id")->is_null());
  EXPECT_EQ(err->GetString("message"), "queue \"full\"\n");  // escapes held
}

// ----------------------------------------------------------------- Registry

TEST(RegistryTest, AddGetUnloadNames) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0);
  ASSERT_TRUE(registry.Add("b", MakeTinyDetector()).ok());
  ASSERT_TRUE(registry.Add("a", MakeTinyDetector()).ok());
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(registry.Get("a"), nullptr);
  EXPECT_EQ(registry.Get("missing"), nullptr);

  // A handle taken before Unload keeps the detector alive.
  auto held = registry.Get("a");
  ASSERT_TRUE(registry.Unload("a").ok());
  EXPECT_EQ(registry.Get("a"), nullptr);
  EXPECT_EQ(held->n_attrs(), 3);
  EXPECT_EQ(registry.Unload("a").code(), StatusCode::kNotFound);
}

TEST(RegistryTest, PutReplacesInPlace) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", MakeTinyDetector()).ok());
  const auto before = registry.Get("m");
  auto replacement =
      std::make_shared<const LoadedDetector>(MakeTinyDetector());
  registry.Put("m", replacement);
  EXPECT_EQ(registry.Get("m"), replacement);
  EXPECT_NE(registry.Get("m"), before);
  EXPECT_EQ(registry.size(), 1);
  // Put also creates entries that never existed.
  registry.Put("fresh", replacement);
  EXPECT_EQ(registry.size(), 2);
}

// ------------------------------------------------------------------- Bundle

TEST(BundleTest, SaveLoadRoundTripIsBitExact) {
  const std::string dir = TempDir("birnn_bundle_roundtrip");
  core::TrainedDetector trained = MakeTinyTrained();

  // Predictions of the in-memory detector before any disk round trip.
  const std::vector<CellQuery> queries = MakeQueries(24);
  ASSERT_TRUE(SaveDetectorBundle(trained, dir).ok());
  auto original = MakeLoadedDetector(std::move(trained));
  ASSERT_TRUE(original.ok());
  std::vector<CellVerdict> before;
  {
    MicroBatcher batcher(*original);
    ASSERT_TRUE(test::Detect(&batcher, queries, &before).ok());
  }

  auto loaded = LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->attr_names(), original->attr_names());
  EXPECT_EQ(loaded->config().max_len, original->config().max_len);
  std::vector<CellVerdict> after;
  {
    MicroBatcher batcher(*loaded);
    ASSERT_TRUE(test::Detect(&batcher, queries, &after).ok());
  }
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&before[i].p_error, &after[i].p_error,
                             sizeof(float)))
        << "cell " << i;
    EXPECT_EQ(before[i].is_error, after[i].is_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, MemoPreSizeHintsSurviveTheManifestRoundTrip) {
  // The batcher pre-sizes its verdict memo from the bundle's training-table
  // unique-cell count; both optional manifest keys must round-trip.
  const std::string dir = TempDir("birnn_bundle_presize");
  core::TrainedDetector trained = MakeTinyTrained();
  trained.train_unique_cells = 1234;
  trained.content_fingerprint = 0xDEADBEEFCAFEF00DULL;
  ASSERT_TRUE(SaveDetectorBundle(trained, dir).ok());
  auto loaded = LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(1234, loaded->expected_unique_cells());
  EXPECT_EQ(0xDEADBEEFCAFEF00DULL, loaded->content_fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, LoadFailsCleanlyOnBadInput) {
  EXPECT_FALSE(LoadDetectorBundle("/nonexistent/bundle/dir").ok());

  const std::string dir = TempDir("birnn_bundle_bad");
  std::filesystem::create_directory(dir);
  WriteFile(dir + "/manifest.txt", "not-a-bundle 1\n");
  EXPECT_FALSE(LoadDetectorBundle(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, OutOfRangeIntegerIsRejectedNotNarrowed) {
  // 4294967304 = 2^32 + 8 must not load as units=8.
  const std::string dir = TempDir("birnn_bundle_narrowing");
  ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(), dir).ok());
  EditManifestLine(dir, "units", "units 4294967304");
  const auto loaded = LoadDetectorBundle(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, TrailingBytesAfterANumberAreRejected) {
  const std::string dir = TempDir("birnn_bundle_trailing_bytes");
  ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(), dir).ok());
  EditManifestLine(dir, "attr_stats 2", "attr_stats 2 0 0.0625junk");
  const auto loaded = LoadDetectorBundle(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, ConfigLargerThanItsWeightsIsRejectedBeforeAllocating) {
  // units 200000 would need ~160 GB of recurrent weights: the load must
  // refuse it from the weights file size, not die in the allocator.
  const std::string dir = TempDir("birnn_bundle_oversized");
  ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(), dir).ok());
  EditManifestLine(dir, "units", "units 200000");
  const auto loaded = LoadDetectorBundle(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("parameter bytes"),
            std::string::npos)
      << loaded.status().message();
  std::filesystem::remove_all(dir);
}

// One raw checkpoint entry of `dtype` (1-byte int8, 2-byte bf16 or
// 4-byte f32 elements), zero-filled.
std::string RawEntry(const std::string& name, uint8_t dtype,
                     const std::vector<int>& shape) {
  std::string out;
  const auto append_u32 = [&out](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u32(static_cast<uint32_t>(name.size()));
  out.append(name);
  out.push_back(static_cast<char>(dtype));
  append_u32(static_cast<uint32_t>(shape.size()));
  size_t elements = 1;
  for (const int d : shape) {
    append_u32(static_cast<uint32_t>(d));
    elements *= static_cast<size_t>(d);
  }
  const size_t element_bytes = dtype == 1 ? 1 : dtype == 2 ? 2 : 4;
  out.append(elements * element_bytes, '\0');
  return out;
}

// Appends `entries` to the checkpoint's payload, bumps its entry count and
// re-seals it, so only the spliced entries can make a load fail.
void SpliceEntries(const std::string& ckpt,
                   const std::vector<std::string>& entries) {
  std::string image = ReadFile(ckpt);
  constexpr size_t kHeader = 13;
  ASSERT_GT(image.size(), kHeader + 12);
  uint32_t count = 0;
  std::memcpy(&count, image.data() + kHeader, sizeof(count));
  count += static_cast<uint32_t>(entries.size());
  std::memcpy(image.data() + kHeader, &count, sizeof(count));
  std::string spliced;
  for (const std::string& e : entries) spliced += e;
  image.insert(image.size() - sizeof(uint64_t), spliced);
  WriteFile(ckpt, ResealCheckpoint(std::move(image)));
}

// Rewrites the manifest file's first line to `header`, resealed, so only
// the header can make a load fail.
void ResealManifest(const std::string& manifest, const std::string& header) {
  const std::string text = ReadFile(manifest);
  WriteFile(manifest, ResealManifest(header + text.substr(text.find('\n'))));
}

// The first recurrent wx and wh parameters of `model` (name and shape).
void FirstRecurrentKernels(const core::ErrorDetectionModel& model,
                           std::pair<std::string, std::vector<int>>* wx,
                           std::pair<std::string, std::vector<int>>* wh) {
  for (const nn::Parameter* p : model.ConstParams()) {
    const std::string& n = p->name;
    if (wx->first.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wx") {
      *wx = {n, p->value.shape()};
    }
    if (wh->first.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wh") {
      *wh = {n, p->value.shape()};
    }
  }
}

TEST(BundleTest, ChecksumMismatchNamesFileAndChecksums) {
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

TEST(BundleTest, HalfPrecisionEntryFailsLoadNamingIt) {
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

// One random byte flip, insert or delete, or a truncation, of `bytes`.
std::string MutateBytes(std::string bytes, Rng* rng) {
  const size_t pos =
      bytes.empty() ? 0 : static_cast<size_t>(rng->UniformInt(bytes.size()));
  const char byte = static_cast<char>(rng->UniformInt(256));
  switch (rng->UniformInt(4)) {
    case 0:
      if (!bytes.empty()) bytes[pos] = byte;
      break;
    case 1:
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), byte);
      break;
    case 2:
      if (!bytes.empty()) bytes.erase(pos, 1);
      break;
    default:
      bytes.resize(pos);
      break;
  }
  return bytes;
}

class BundleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BundleFuzzTest, MutantsLoadAsTheOriginalOrFailTyped) {
  // Mutants of a saved bundle's two files. Half re-seal each file's own
  // checksum (the manifest's `checksum` line, the checkpoint trailer) so
  // they reach the parsers; the manifest's `weights_checksum` is never
  // rewritten, so it still names the original checkpoint. Every mutant
  // must fail with a typed status or load exactly the original weights;
  // a mutant that also declares the original encoding must answer the
  // probe bit for bit like the original. A re-sealed manifest can validly
  // declare another encoding (say, an attribute's max length), which is a
  // different bundle, not a corrupt one: those only have to answer.
  const std::string dir = TempDir(
      ("birnn_bundle_fuzz_" + std::to_string(GetParam())).c_str());
  ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(), dir).ok());
  const auto original = LoadDetectorBundle(dir);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const auto probe = original->EncodeQueries(MakeQueries(24));
  ASSERT_TRUE(probe.ok());
  const std::vector<float> expected = ProbeProbs(*original, *probe);
  const std::vector<const nn::Parameter*> weights =
      original->model().ConstParams();
  const std::string manifest_path = dir + "/manifest.txt";
  const std::string weights_path = dir + "/weights.ckpt";
  const std::string manifest = ReadFile(manifest_path);
  const std::string checkpoint = ReadFile(weights_path);

  Rng rng(GetParam());
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    std::string m = manifest;
    std::string w = checkpoint;
    std::string& victim = rng.UniformInt(2) == 0 ? m : w;
    const int64_t rounds = rng.UniformRange(1, 3);
    for (int64_t r = 0; r < rounds; ++r) victim = MutateBytes(victim, &rng);
    if (rng.UniformInt(2) == 0) {
      m = ResealManifest(std::move(m));
      w = ResealCheckpoint(std::move(w));
    }
    WriteFile(manifest_path, m);
    WriteFile(weights_path, w);

    const auto loaded = LoadDetectorBundle(dir);
    if (!loaded.ok()) {
      ++rejected;
      EXPECT_FALSE(loaded.status().message().empty());
      continue;
    }
    const std::vector<const nn::Parameter*> got =
        loaded->model().ConstParams();
    ASSERT_EQ(got.size(), weights.size()) << "mutant " << i;
    for (size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(got[p]->name, weights[p]->name) << "mutant " << i;
      ASSERT_EQ(got[p]->value.shape(), weights[p]->value.shape());
      ASSERT_EQ(0, std::memcmp(got[p]->value.data(), weights[p]->value.data(),
                               weights[p]->value.size() * sizeof(float)))
          << "mutant " << i << " changed " << weights[p]->name;
    }
    const auto encoded = loaded->EncodeQueries(MakeQueries(24));
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    const std::vector<float> probs = ProbeProbs(*loaded, *encoded);
    if (encoded->max_len == probe->max_len && encoded->seqs == probe->seqs &&
        encoded->attrs == probe->attrs &&
        SameBits(encoded->length_norm, probe->length_norm)) {
      EXPECT_TRUE(SameBits(probs, expected)) << "mutant " << i;
    }
  }
  EXPECT_GT(rejected, 0);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BundleFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST(BundleCrashTest, EveryStateTheWriteOrderLeavesLoadsWholeOrFailsTyped) {
  // SaveDetectorBundle renames weights.ckpt into place first and
  // manifest.txt last. Re-saving B over A can therefore stop with: temp
  // files beside A, B's weights beside A's manifest, or all of B.
  const std::string a = TempDir("birnn_crash_a");
  const std::string b = TempDir("birnn_crash_b");
  ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(), a).ok());
  core::TrainedDetector other = MakeTinyTrained();
  other.config.seed = 1234;
  other.model = std::make_unique<core::ErrorDetectionModel>(other.config);
  ASSERT_TRUE(SaveDetectorBundle(other, b).ok());
  const auto a_loaded = LoadDetectorBundle(a);
  const auto b_loaded = LoadDetectorBundle(b);
  ASSERT_TRUE(a_loaded.ok() && b_loaded.ok());
  const std::vector<float> a_probs = ProbeProbs(*a_loaded);
  const std::vector<float> b_probs = ProbeProbs(*b_loaded);
  ASSERT_FALSE(SameBits(a_probs, b_probs));
  const std::string b_weights = ReadFile(b + "/weights.ckpt");

  // Crash before either rename: stray temp files, A intact.
  WriteFile(a + "/weights.ckpt.tmp.1.0", b_weights);
  WriteFile(a + "/manifest.txt.tmp.1.1", ReadFile(b + "/manifest.txt"));
  auto loaded = LoadDetectorBundle(a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameBits(ProbeProbs(*loaded), a_probs));

  // Crash between the renames: B's weights under A's manifest.
  WriteFile(a + "/weights.ckpt", b_weights);
  loaded = LoadDetectorBundle(a);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();

  // Both renames done: all of B.
  WriteFile(a + "/manifest.txt", ReadFile(b + "/manifest.txt"));
  loaded = LoadDetectorBundle(a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameBits(ProbeProbs(*loaded), b_probs));
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(BundleCrashTest, FailedAtomicWriteLeavesNoTempFile) {
  // Renaming a file over a directory fails after the temp file is written.
  const std::string dir = TempDir("birnn_atomic_write_fail");
  std::filesystem::create_directories(dir + "/target");
  const Status st = util::WriteFileAtomic(dir + "/target", "payload");
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "target");
  }
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, EncodeQueriesReplicatesPreparePipeline) {
  const LoadedDetector detector = MakeTinyDetector();
  // "  abc" -> trimmed to "abc"; attr 0's training max length is 8, so
  // length_norm must be 3/8 computed in float.
  CellQuery q;
  q.attr = 0;
  q.value = "  abc";
  auto ds = detector.EncodeQueries({q});
  ASSERT_TRUE(ds.ok());
  EXPECT_FLOAT_EQ(ds->length_norm[0], 3.0f / 8.0f);
  EXPECT_EQ(ds->effective_len(0), 3);

  // By-name resolution and unknown characters mapping to the unknown index.
  CellQuery named;
  named.attr_name = "name";
  named.value = "\x01\x02";
  auto ds2 = detector.EncodeQueries({named});
  ASSERT_TRUE(ds2.ok());
  EXPECT_EQ(ds2->attrs[0], 1);
  // Unknown chars encode to the dedicated unknown id, not pad.
  EXPECT_NE(ds2->seq_at(0, 0), 0);
}

// A detector whose encoder is `frame`'s: the dictionary, padded width and
// per-attribute length_norm denominators EncodeCells and ErrorDetector::Run
// derive from it, plus the prepare options that built it.
LoadedDetector DetectorForFrame(const data::CellFrame& frame,
                                const data::PrepareOptions& prepare) {
  core::TrainedDetector trained = MakeTinyTrained();
  trained.chars = data::CharIndex::Build(frame);
  trained.config.vocab = trained.chars.vocab_size();
  trained.config.max_len = std::max(1, frame.MaxValueLength());
  trained.config.n_attrs = frame.num_attrs();
  trained.model = std::make_unique<core::ErrorDetectionModel>(trained.config);
  trained.attr_names = frame.attr_names();
  const size_t n = static_cast<size_t>(frame.num_attrs());
  trained.attr_max_value_len.assign(n, 0);
  for (const data::CellRecord& cell : frame.cells()) {
    int32_t& mx = trained.attr_max_value_len[static_cast<size_t>(cell.attr)];
    mx = std::max(mx, static_cast<int32_t>(cell.value.size()));
  }
  trained.attr_empty_rate.assign(n, 0.0f);
  trained.attr_error_rate.assign(n, 0.0f);
  trained.prepare = prepare;
  auto loaded = MakeLoadedDetector(std::move(trained));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

// Every raw cell of `dirty`, encoded one at a time by AppendQueryCell and as
// a batch by EncodeQueries, must equal EncodeCells on the prepared frame:
// the same ids, the same length_norm bits, and the prepare accounting
// (prepared_len, empty, oov_chars) must describe the frame's cell.
void ExpectQueryEncodingMatchesFrame(const data::Table& dirty,
                                     const data::PrepareOptions& prepare,
                                     const std::string& what) {
  SCOPED_TRACE(what);
  auto frame = data::PrepareDirtyOnly(dirty, prepare);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const LoadedDetector detector = DetectorForFrame(*frame, prepare);
  int64_t frame_oov = 0;
  const data::EncodedDataset want =
      data::EncodeCells(*frame, detector.chars(), &frame_oov);
  EXPECT_EQ(frame_oov, 0);

  data::EncodedDataset got;
  detector.InitQueryDataset(&got);
  std::vector<CellQuery> queries;
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int a = 0; a < dirty.num_columns(); ++a) {
      EncodedCellInfo info;
      info.oov_chars = -1;
      ASSERT_TRUE(detector.AppendQueryCell(a, dirty.cell(r, a), &got, &info)
                      .ok());
      const data::CellRecord& cell = frame->cell(r, a);
      ASSERT_EQ(info.prepared_len, static_cast<int>(cell.value.size()))
          << "row " << r << " attr " << a;
      ASSERT_EQ(info.empty, cell.empty) << "row " << r << " attr " << a;
      ASSERT_EQ(info.oov_chars, 0) << "row " << r << " attr " << a;
      CellQuery q;
      q.attr = a;
      q.value = dirty.cell(r, a);
      queries.push_back(std::move(q));
    }
  }
  const auto same_encoding = [&want](const data::EncodedDataset& ds) {
    EXPECT_EQ(ds.max_len, want.max_len);
    EXPECT_EQ(ds.vocab, want.vocab);
    EXPECT_EQ(ds.n_attrs, want.n_attrs);
    EXPECT_EQ(ds.seqs, want.seqs);
    EXPECT_EQ(ds.attrs, want.attrs);
    ASSERT_EQ(ds.length_norm.size(), want.length_norm.size());
    for (size_t i = 0; i < ds.length_norm.size(); ++i) {
      ASSERT_EQ(std::memcmp(&ds.length_norm[i], &want.length_norm[i],
                            sizeof(float)),
                0)
          << "cell " << i;
    }
  };
  same_encoding(got);
  auto batch = detector.EncodeQueries(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  same_encoding(*batch);

  // Re-initializing keeps the buffers and forgets the cells.
  const size_t capacity = got.seqs.capacity();
  detector.InitQueryDataset(&got);
  EXPECT_EQ(got.num_cells(), 0);
  EXPECT_TRUE(got.seqs.empty());
  EXPECT_EQ(got.seqs.capacity(), capacity);
}

TEST(BundleTest, QueryEncodingMatchesEncodeCellsOnAllGenerators) {
  datagen::GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 3;
  for (const char* name :
       {"beers", "flights", "hospital", "movies", "rayyan", "tax"}) {
    auto pair = datagen::MakeDataset(name, gen);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    ExpectQueryEncodingMatchesFrame(pair->dirty, data::PrepareOptions{}, name);
  }
}

TEST(BundleTest, QueryEncodingMatchesEncodeCellsOnEdgeValues) {
  data::Table dirty(std::vector<std::string>{"a", "b", "c"});
  const std::vector<std::vector<std::string>> rows = {
      {" lead", "\tlead", "\rlead"},
      {"\nlead", " \t\r\n mixed", "\v\fkept"},
      {"NaN", "nan", " NaN"},
      {"\xc3\xa9t\xc3\xa9", "\xff\x80\x7f", "caf\xc3\xa9 "},
      {"", "   ", "plain"},
      {std::string(40, 'x'), "0123456789abcdefghij", "short"},
  };
  for (const auto& row : rows) ASSERT_TRUE(dirty.AppendRow(row).ok());

  data::PrepareOptions defaults;
  ExpectQueryEncodingMatchesFrame(dirty, defaults, "defaults");
  data::PrepareOptions truncating;
  truncating.max_value_len = 6;  // shorter than several values above
  ExpectQueryEncodingMatchesFrame(dirty, truncating, "max_value_len 6");
  data::PrepareOptions raw;
  raw.trim_leading_whitespace = false;
  raw.treat_nan_as_empty = false;
  ExpectQueryEncodingMatchesFrame(dirty, raw, "no trim, NaN kept");
}

TEST(BundleTest, QueryValuesLongerThanMaxLenKeepTheirFirstMaxLenChars) {
  // A novel value longer than the training frame's padded width: the
  // prepared length (and so length_norm and the statistics) is the
  // max_value_len-truncated one, but only the first max_len characters are
  // encoded and counted.
  data::Table dirty(std::vector<std::string>{"a", "b"});
  ASSERT_TRUE(dirty.AppendRow({"abcd", "xy"}).ok());
  data::PrepareOptions prepare;
  prepare.max_value_len = 9;
  auto frame = data::PrepareDirtyOnly(dirty, prepare);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const LoadedDetector detector = DetectorForFrame(*frame, prepare);
  ASSERT_EQ(detector.config().max_len, 4);

  data::EncodedDataset ds;
  detector.InitQueryDataset(&ds);
  EncodedCellInfo info;
  // "\xfe" and "#" are outside the dictionary; only the "\xfe" lies within
  // the first max_len characters.
  const std::string value = "  \xfe" "dcbaabcd#";
  ASSERT_TRUE(detector.AppendQueryCell(1, value, &ds, &info).ok());
  EXPECT_EQ(info.prepared_len, 9);
  EXPECT_FALSE(info.empty);
  EXPECT_EQ(info.oov_chars, 1);
  EXPECT_EQ(ds.length_norm[0], 9.0f / 2.0f);
  std::vector<int32_t> ids(4);
  int64_t oov = 0;
  detector.chars().EncodeInto("\xfe" "dcb", ids.data(), &oov);
  EXPECT_EQ(ds.seqs, ids);
  EXPECT_EQ(ds.seqs[0], detector.chars().unknown_index());
}

// ------------------------------------------------------------------- Server

TEST(ServerTest, EndToEndOverSockets) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // The same queries answered in-process as the reference.
  const std::vector<CellQuery> queries = MakeQueries(6);
  std::vector<CellVerdict> reference;
  {
    const LoadedDetector detector = MakeTinyDetector();
    MicroBatcher batcher(detector);
    ASSERT_TRUE(test::Detect(&batcher, queries, &reference).ok());
  }

  const int fd = ConnectTo(server.port());

  auto pong = JsonValue::Parse(RoundTrip(fd, R"({"id":"p","op":"ping"})"));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->GetString("status"), "OK");
  EXPECT_EQ(pong->GetString("id"), "p");

  auto models = JsonValue::Parse(RoundTrip(fd, R"({"op":"models"})"));
  ASSERT_TRUE(models.ok());
  ASSERT_TRUE(models->Find("models")->is_array());
  EXPECT_EQ(models->Find("models")->items()[0].as_string(), "tiny");

  // Detect — "model" may be omitted with a single hosted model. The wire
  // p_error must recover the in-process float bit for bit (%.9g encoding).
  std::string request = R"({"id":"d1","cells":[)";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) request += ",";
    request += R"({"attr":)" + std::to_string(queries[i].attr) +
               R"(,"value":")" + queries[i].value + R"("})";
  }
  request += "]}";
  auto detect = JsonValue::Parse(RoundTrip(fd, request));
  ASSERT_TRUE(detect.ok());
  ASSERT_EQ(detect->GetString("status"), "OK");
  const std::vector<JsonValue>& results = detect->Find("results")->items();
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const float wire =
        static_cast<float>(results[i].GetNumber("p_error", -1.0));
    EXPECT_EQ(0, std::memcmp(&wire, &reference[i].p_error, sizeof(float)))
        << "cell " << i << ": wire " << wire << " vs "
        << reference[i].p_error;
    EXPECT_EQ(results[i].Find("error")->as_bool(), reference[i].is_error);
  }

  auto stats = JsonValue::Parse(RoundTrip(fd, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetString("model"), "tiny");
  EXPECT_EQ(stats->GetNumber("cells"), 6.0);

  // Error paths: unknown model, bad JSON (answered with a null id).
  auto notfound = JsonValue::Parse(
      RoundTrip(fd, R"({"op":"detect","model":"nope","cells":[]})"));
  ASSERT_TRUE(notfound.ok());
  EXPECT_EQ(notfound->GetString("status"), "NOT_FOUND");
  auto bad = JsonValue::Parse(RoundTrip(fd, "garbage {"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->GetString("status"), "INVALID_ARGUMENT");
  EXPECT_TRUE(bad->Find("id")->is_null());

  ::close(fd);
  server.Shutdown();
}

TEST(ServerTest, OverCapacityDetectIsShedWithOverloaded) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  ServerOptions options;
  options.batcher.queue_capacity = 2;  // a 3-cell request can never fit
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  auto shed = JsonValue::Parse(RoundTrip(
      fd,
      R"({"id":"s","cells":[{"attr":0,"value":"a"},{"attr":1,"value":"b"},)"
      R"({"attr":2,"value":"c"}]})"));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->GetString("status"), "OVERLOADED");
  EXPECT_EQ(shed->GetString("id"), "s");

  // The connection survives a shed; a within-capacity request succeeds.
  auto ok = JsonValue::Parse(
      RoundTrip(fd, R"({"cells":[{"attr":0,"value":"a"}]})"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  ::close(fd);
  server.Shutdown();
}

TEST(ServerTest, ShutdownWithIdleConnectionsIsGraceful) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  auto server = std::make_unique<Server>(&registry);
  ASSERT_TRUE(server->Start().ok());

  const int fd = ConnectTo(server->port());
  auto pong = JsonValue::Parse(RoundTrip(fd, R"({"op":"ping"})"));
  ASSERT_TRUE(pong.ok());

  // Shutdown with the connection idle: must not hang, and the client sees a
  // clean EOF rather than a reset mid-response.
  server->Shutdown();
  server.reset();
  char c = 0;
  EXPECT_EQ(0, ::read(fd, &c, 1));
  ::close(fd);
}

TEST(ServerTest, StartFailsOnEmptyRegistry) {
  ModelRegistry registry;
  Server server(&registry);
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace birnn::serve
