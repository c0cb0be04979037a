// Low-precision kernel and plumbing tests: int8 GEMM parity against a
// scalar reference (bit-exact — the arithmetic is integer-exact and the
// dequant expression is pinned), quantization-scheme properties,
// engine-level determinism of the quantized sweeps across
// memoize/bucketed/thread modes, and the bundle: it installs int8 shadow
// weights that predict bit-identically to recomputing them, a corrupted
// checkpoint names the file and both FNV-1a checksums, and a checkpoint
// carrying an entry of a removed dtype is refused by name.

#include "nn/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/inference.h"
#include "core/model.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "serve/bundle.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace birnn::nn {
namespace {

Tensor RandomTensor(int rows, int cols, uint64_t seed, float lo = -2.0f,
                    float hi = 2.0f) {
  Tensor t(std::vector<int>{rows, cols});
  Rng rng(seed);
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.UniformFloat(lo, hi);
  return t;
}

/// The documented int8 reference, straight from the quant.h contract:
/// per-row absmax activation quantization with round-to-nearest-even
/// (lrintf under the default rounding mode), exact int32 accumulation, and
/// out[i][j] = float(acc) * (ascale[i] * w.scales[j]).
Tensor ReferenceInt8MatMul(const Tensor& x, const QuantizedMatrix& w) {
  const int n = x.rows();
  const int k = x.cols();
  Tensor out(std::vector<int>{n, w.rows});
  for (int i = 0; i < n; ++i) {
    float absmax = 0.0f;
    for (int c = 0; c < k; ++c) absmax = std::max(absmax, std::fabs(x.at(i, c)));
    const float ascale = absmax / 127.0f;
    const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    std::vector<int32_t> aq(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      long q = std::lrintf(x.at(i, c) * inv);
      q = std::min(127L, std::max(-127L, q));
      aq[static_cast<size_t>(c)] = static_cast<int32_t>(q);
    }
    for (int j = 0; j < w.rows; ++j) {
      int32_t acc = 0;
      for (int c = 0; c < k; ++c) {
        acc += aq[static_cast<size_t>(c)] *
               w.q[static_cast<size_t>(j) * static_cast<size_t>(k) +
                   static_cast<size_t>(c)];
      }
      out.at(i, j) = static_cast<float>(acc) *
                     (ascale * w.scales[static_cast<size_t>(j)]);
    }
  }
  return out;
}

TEST(QuantizeWeightTest, Int8SchemeProperties) {
  const Tensor w = RandomTensor(13, 9, 7);
  const QuantizedMatrix q = QuantizeWeightInt8(w);
  ASSERT_EQ(q.rows, 9);   // output channels
  ASSERT_EQ(q.cols, 13);  // input features
  for (int j = 0; j < q.rows; ++j) {
    float absmax = 0.0f;
    for (int c = 0; c < q.cols; ++c) {
      absmax = std::max(absmax, std::fabs(w.at(c, j)));
    }
    EXPECT_FLOAT_EQ(q.scales[static_cast<size_t>(j)], absmax / 127.0f);
    for (int c = 0; c < q.cols; ++c) {
      const int8_t v =
          q.q[static_cast<size_t>(j) * static_cast<size_t>(q.cols) +
              static_cast<size_t>(c)];
      EXPECT_GE(v, -127);
      EXPECT_LE(v, 127);
      // rint(w / scale), checked through the stored value's reconstruction:
      // within half a quantization step of the source weight.
      const float scale = q.scales[static_cast<size_t>(j)];
      EXPECT_NEAR(static_cast<float>(v) * scale, w.at(c, j), 0.5f * scale);
    }
  }
}

TEST(Int8MatMulTest, BitExactAgainstScalarReference) {
  // Shapes straddle the SIMD widths: 1..67 batch rows, odd k and out dims.
  for (const auto& [n, k, m] : {std::tuple{1, 5, 3}, std::tuple{4, 64, 64},
                               std::tuple{17, 33, 19}, std::tuple{67, 96, 48}}) {
    const Tensor x = RandomTensor(n, k, 11u * static_cast<uint64_t>(n));
    const Tensor wf = RandomTensor(k, m, 13u * static_cast<uint64_t>(m));
    const QuantizedMatrix w = QuantizeWeightInt8(wf);
    Tensor out;
    QuantScratch scratch;
    Int8MatMul(x, w, &out, &scratch);
    const Tensor ref = ReferenceInt8MatMul(x, w);
    ASSERT_EQ(out.rows(), n);
    ASSERT_EQ(out.cols(), m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        EXPECT_EQ(out.at(i, j), ref.at(i, j))
            << "(" << n << "," << k << "," << m << ") at " << i << "," << j;
      }
    }
  }
}

TEST(Int8MatMulTest, QuantizationErrorIsBounded) {
  const Tensor x = RandomTensor(32, 64, 3);
  const Tensor wf = RandomTensor(64, 48, 5);
  Tensor exact;
  MatMul(x, wf, &exact);
  Tensor out;
  QuantScratch scratch;
  Int8MatMul(x, QuantizeWeightInt8(wf), &out, &scratch);
  // Both operands carry <= absmax/254 rounding error per element; with
  // k = 64 terms of magnitude <= 4 the documented bound is ~k * 2 * 4/254.
  // Observed error is far smaller; 0.5 catches regressions loudly without
  // flaking.
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      EXPECT_NEAR(out.at(i, j), exact.at(i, j), 0.5f);
    }
  }
}

TEST(Int8MatMulTest, AccumulateMatchesOverwritePlusBase) {
  const Tensor x = RandomTensor(9, 21, 17);
  const QuantizedMatrix w = QuantizeWeightInt8(RandomTensor(21, 10, 19));
  QuantScratch scratch;
  Tensor product;
  Int8MatMul(x, w, &product, &scratch);
  Tensor acc = RandomTensor(9, 10, 23);
  const Tensor base = acc;
  Int8MatMulAcc(x, w, &acc, &scratch);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_FLOAT_EQ(acc.at(i, j), base.at(i, j) + product.at(i, j));
    }
  }
}

TEST(Int8RnnStepTest, FusedStepMatchesUnfusedComposition) {
  const Tensor x = RandomTensor(8, 12, 29);
  const Tensor h = RandomTensor(8, 9, 31);
  const QuantizedMatrix wx = QuantizeWeightInt8(RandomTensor(12, 9, 37));
  const QuantizedMatrix wh = QuantizeWeightInt8(RandomTensor(9, 9, 41));
  Tensor b(std::vector<int>{9});
  Rng rng(43);
  for (size_t i = 0; i < b.size(); ++i) b[i] = rng.UniformFloat(-0.5f, 0.5f);

  Tensor fused, z_fused;
  QuantScratch s1;
  Int8RnnTanhStep(x, wx, h, wh, b, &fused, &z_fused, &s1);

  QuantScratch s2;
  Tensor z;
  Int8MatMul(x, wx, &z, &s2);
  Int8MatMulAcc(h, wh, &z, &s2);
  Tensor unfused;
  AddBiasTanh(z, b, &unfused);
  ASSERT_EQ(fused.rows(), 8);
  ASSERT_EQ(fused.cols(), 9);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 9; ++j) {
      EXPECT_EQ(fused.at(i, j), unfused.at(i, j));
    }
  }
}

TEST(QuantizedMatrixTest, SerializedPartsRoundTrip) {
  const Tensor wf = RandomTensor(14, 11, 61);
  const QuantizedMatrix w = QuantizeWeightInt8(wf);
  const QuantizedMatrix rebuilt =
      QuantizedMatrixFromParts(w.rows, w.cols, w.q, w.scales);
  EXPECT_EQ(rebuilt.q, w.q);
  EXPECT_EQ(rebuilt.scales, w.scales);
  EXPECT_EQ(rebuilt.packed, w.packed);  // derived layout rebuilt identically
}

// ------------------------------------------------------------ engine level

data::EncodedDataset SmallDataset() {
  data::Table dirty(std::vector<std::string>{"a", "b"});
  data::Table clean(std::vector<std::string>{"a", "b"});
  Rng rng(71);
  for (int i = 0; i < 40; ++i) {
    const std::string v = "item" + std::to_string(i % 9);
    const std::string w(static_cast<size_t>(1 + i % 6), 'y');
    EXPECT_TRUE(
        dirty.AppendRow({rng.Bernoulli(0.3) ? v + "?" : v, w}).ok());
    EXPECT_TRUE(clean.AppendRow({v, w}).ok());
  }
  auto frame = data::PrepareData(dirty, clean);
  EXPECT_TRUE(frame.ok());
  return data::EncodeCells(*frame, data::CharIndex::Build(*frame));
}

core::ModelConfig SmallModelConfig(const data::EncodedDataset& ds) {
  core::ModelConfig config;
  config.vocab = ds.vocab;
  config.max_len = ds.max_len;
  config.n_attrs = ds.n_attrs;
  config.char_emb_dim = 6;
  config.units = 9;  // odd: exercises every SIMD tail
  config.stacks = 2;
  config.bidirectional = true;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 3;
  config.length_dense_dim = 8;
  config.hidden_dense_dim = 6;
  config.seed = 77;
  return config;
}

std::vector<float> SweepProbs(const core::ErrorDetectionModel& model,
                              const data::EncodedDataset& ds,
                              core::InferenceOptions options,
                              ThreadPool* pool = nullptr) {
  core::InferenceEngine engine(model, options, pool);
  std::vector<float> p;
  engine.PredictProbs(ds, {}, &p);
  return p;
}

TEST(QuantizedEngineTest, Int8SweepInvariantAcrossEngineModes) {
  const data::EncodedDataset ds = SmallDataset();
  core::ErrorDetectionModel model(SmallModelConfig(ds));
  model.CalibrateBatchNorm(ds, 64);

  core::InferenceOptions base;
  base.eval_batch = 16;
  base.precision = Precision::kInt8;
  const std::vector<float> reference = SweepProbs(model, ds, base);
  ASSERT_EQ(reference.size(), static_cast<size_t>(ds.num_cells()));

  core::InferenceOptions unmemoized = base;
  unmemoized.memoize = false;
  EXPECT_EQ(SweepProbs(model, ds, unmemoized), reference);

  core::InferenceOptions bucketed = base;
  bucketed.bucketed = true;
  bucketed.bucket_quantum = 4;
  EXPECT_EQ(SweepProbs(model, ds, bucketed), reference);

  ThreadPool pool(2);
  EXPECT_EQ(SweepProbs(model, ds, base, &pool), reference);
}

TEST(QuantizedEngineTest, QuantizedProbsTrackFp32) {
  const data::EncodedDataset ds = SmallDataset();
  core::ErrorDetectionModel model(SmallModelConfig(ds));
  model.CalibrateBatchNorm(ds, 64);

  core::InferenceOptions options;
  options.eval_batch = 16;
  const std::vector<float> fp32 = SweepProbs(model, ds, options);
  options.precision = Precision::kInt8;
  const std::vector<float> int8 = SweepProbs(model, ds, options);

  double int8_err = 0.0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    int8_err += std::fabs(int8[i] - fp32[i]);
  }
  EXPECT_LT(int8_err / static_cast<double>(fp32.size()), 0.05);
}

// ------------------------------------------------------------ bundle level

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

std::vector<float> ServeProbs(const serve::LoadedDetector& det,
                              Precision precision) {
  std::vector<serve::CellQuery> queries;
  for (int i = 0; i < 12; ++i) {
    serve::CellQuery q;
    q.attr = i % 2;
    q.value = "val " + std::to_string(i % 5);
    queries.push_back(std::move(q));
  }
  auto ds = det.EncodeQueries(queries);
  EXPECT_TRUE(ds.ok());
  core::InferenceOptions options;
  options.precision = precision;
  return SweepProbs(det.model(), *ds, options);
}

TEST(QuantBundleTest, V2BundleInstallsShadowWeightsIdenticalToRecompute) {
  const std::string dir = TempDir("quant_bundle_v2");
  auto trained = MakeTinyTrained();
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  auto loaded = serve::LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The shipped payload made int8 ready with zero preparation.
  EXPECT_TRUE(loaded->model().QuantizedInferenceReady(Precision::kInt8));

  // Quantizing the original weights from scratch must agree bit for bit
  // with the blobs the bundle shipped.
  auto original = serve::MakeLoadedDetector(std::move(trained));
  ASSERT_TRUE(original.ok());
  for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
    EXPECT_EQ(ServeProbs(*loaded, p), ServeProbs(*original, p))
        << PrecisionName(p);
  }
  std::filesystem::remove_all(dir);
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

/// FNV-1a over `data` — the checkpoint's payload checksum.
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

TEST(QuantBundleTest, HalfPrecisionEntryFailsLoadNamingIt) {
  // Bundles once shipped bfloat16 shadow weights as dtype-2 "__bf16/..."
  // entries next to the int8 ones. That dtype no longer exists: a
  // checkpoint carrying one must be refused by name, not half-loaded.
  const std::string dir = TempDir("quant_bundle_half_precision");
  auto trained = MakeTinyTrained();
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  std::string wx_name, wh_name;
  std::vector<int> wx_shape, wh_shape;
  for (const Parameter* p : trained.model->ConstParams()) {
    const std::string& n = p->name;
    if (wx_name.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wx") {
      wx_name = n;
      wx_shape = p->value.shape();
    }
    if (wh_name.empty() && n.size() > 3 && n.substr(n.size() - 3) == "/wh") {
      wh_name = n;
      wh_shape = p->value.shape();
    }
  }
  ASSERT_FALSE(wx_name.empty());
  ASSERT_FALSE(wh_name.empty());

  // Splice a complete dtype-2 pair for one cell into the checkpoint
  // payload (header: magic, sentinel, version byte; trailer: checksum) and
  // re-seal it, so only the dtype can make the load fail.
  const std::string ckpt = dir + "/weights.ckpt";
  std::string image;
  {
    std::ifstream in(ckpt, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr size_t kHeader = 13;
  ASSERT_GT(image.size(), kHeader + 12);
  std::string payload = image.substr(kHeader, image.size() - kHeader - 8);
  uint32_t count = 0;
  std::memcpy(&count, payload.data(), sizeof(count));
  count += 2;
  std::memcpy(payload.data(), &count, sizeof(count));
  for (const auto& [name, shape] :
       {std::make_pair(wx_name, wx_shape), std::make_pair(wh_name, wh_shape)}) {
    const std::string entry = "__bf16/" + name;
    AppendU32(&payload, static_cast<uint32_t>(entry.size()));
    payload.append(entry);
    payload.push_back(static_cast<char>(2));  // the removed u16 dtype
    AppendU32(&payload, static_cast<uint32_t>(shape.size()));
    size_t elements = 1;
    for (const int d : shape) {
      AppendU32(&payload, static_cast<uint32_t>(d));
      elements *= static_cast<size_t>(d);
    }
    payload.append(elements * sizeof(uint16_t), '\0');
  }
  const uint64_t checksum = Fnv1a(payload);
  std::string sealed = image.substr(0, kHeader) + payload;
  sealed.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  }

  auto loaded = serve::LoadDetectorBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("__bf16/" + wx_name),
            std::string::npos)
      << loaded.status().message();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace birnn::nn
