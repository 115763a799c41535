// Golden equivalence tests for the image encoder: the engineered feature
// channels (compute_features) and the transformer tokens
// (VisionBackbone::encode) of one crystalline and one amorphous 256²
// slice, per kernel backend and precision. Every hash was recorded from
// the reference encoder (per-head attention gather, unfused
// matmul_nt/scale/softmax/matmul, tap-loop Gaussian blur); an optimized
// encoder must reproduce every feature and token byte. A changed
// constant is a changed encoding — never update one to make a refactor
// pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "zenesis/cache/hash.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/models/backbone.hpp"
#include "zenesis/models/features.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zm = zenesis::models;
namespace zt = zenesis::tensor;
using zenesis::cache::fnv1a_bytes;
using zenesis::cache::fnv1a_value;
using zenesis::cache::kFnvOffset;

namespace {

std::uint64_t hash_image(const zi::ImageF32& img) {
  std::uint64_t h = fnv1a_value(kFnvOffset, img.width());
  h = fnv1a_value(h, img.height());
  return fnv1a_bytes(h, img.pixels().data(), img.pixels().size() * sizeof(float));
}

std::uint64_t hash_tensor(const zt::Tensor& t) {
  std::uint64_t h = fnv1a_value(kFnvOffset, t.numel());
  for (const std::int64_t dim : t.shape()) h = fnv1a_value(h, dim);
  return fnv1a_bytes(h, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

/// Compares against the golden table; on a mismatch prints the entry in
/// table syntax, which names exactly the case that moved.
void expect_golden(const std::map<std::string, std::uint64_t>& golden,
                   const std::string& name, std::uint64_t h) {
  const auto it = golden.find(name);
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxull},", name.c_str(),
                static_cast<unsigned long long>(h));
  if (it == golden.end()) {
    ADD_FAILURE() << "no golden hash for " << line;
    return;
  }
  EXPECT_EQ(h, it->second) << "golden mismatch: " << line;
}

zi::ImageF32 ready_slice(zf::SampleType type) {
  zf::SynthConfig cfg;
  cfg.type = type;
  cfg.width = 256;
  cfg.height = 256;
  cfg.depth = 2;
  cfg.seed = 4242;
  return zi::make_ai_ready(zi::AnyImage(zf::generate_slice(cfg, 1).raw));
}

/// Keyed "<backend>.<precision>.<cry|amo>.<ch0..ch4|tokens>".
const std::map<std::string, std::uint64_t> kEncoderGolden = {
    {"avx2.fp32.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"avx2.fp32.amo.ch1", 0x91130e079d613287ull},
    {"avx2.fp32.amo.ch2", 0x0527ba66decf1fb6ull},
    {"avx2.fp32.amo.ch3", 0xacb556a3ccf0632eull},
    {"avx2.fp32.amo.ch4", 0x6fe417e1e887ad85ull},
    {"avx2.fp32.amo.tokens", 0x783d8052d42fc666ull},
    {"avx2.fp32.cry.ch0", 0x5030a203deea0635ull},
    {"avx2.fp32.cry.ch1", 0x635b4e7adfef0628ull},
    {"avx2.fp32.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"avx2.fp32.cry.ch3", 0xe616addf981ca374ull},
    {"avx2.fp32.cry.ch4", 0xe49fd616e6169ce6ull},
    {"avx2.fp32.cry.tokens", 0xc9a99bc408dc7368ull},
    {"avx2.int8.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"avx2.int8.amo.ch1", 0x91130e079d613287ull},
    {"avx2.int8.amo.ch2", 0x0527ba66decf1fb6ull},
    {"avx2.int8.amo.ch3", 0xacb556a3ccf0632eull},
    {"avx2.int8.amo.ch4", 0x6fe417e1e887ad85ull},
    {"avx2.int8.amo.tokens", 0x048df4d9ecc17081ull},
    {"avx2.int8.cry.ch0", 0x5030a203deea0635ull},
    {"avx2.int8.cry.ch1", 0x635b4e7adfef0628ull},
    {"avx2.int8.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"avx2.int8.cry.ch3", 0xe616addf981ca374ull},
    {"avx2.int8.cry.ch4", 0xe49fd616e6169ce6ull},
    {"avx2.int8.cry.tokens", 0x48884304fafb2cffull},
    {"blocked.fp32.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"blocked.fp32.amo.ch1", 0x91130e079d613287ull},
    {"blocked.fp32.amo.ch2", 0x0527ba66decf1fb6ull},
    {"blocked.fp32.amo.ch3", 0xacb556a3ccf0632eull},
    {"blocked.fp32.amo.ch4", 0x6fe417e1e887ad85ull},
    {"blocked.fp32.amo.tokens", 0x5ab4e63c1c11aee5ull},
    {"blocked.fp32.cry.ch0", 0x5030a203deea0635ull},
    {"blocked.fp32.cry.ch1", 0x635b4e7adfef0628ull},
    {"blocked.fp32.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"blocked.fp32.cry.ch3", 0xe616addf981ca374ull},
    {"blocked.fp32.cry.ch4", 0xe49fd616e6169ce6ull},
    {"blocked.fp32.cry.tokens", 0xf97f04cc6b843713ull},
    {"blocked.int8.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"blocked.int8.amo.ch1", 0x91130e079d613287ull},
    {"blocked.int8.amo.ch2", 0x0527ba66decf1fb6ull},
    {"blocked.int8.amo.ch3", 0xacb556a3ccf0632eull},
    {"blocked.int8.amo.ch4", 0x6fe417e1e887ad85ull},
    {"blocked.int8.amo.tokens", 0xedcf9a350097547eull},
    {"blocked.int8.cry.ch0", 0x5030a203deea0635ull},
    {"blocked.int8.cry.ch1", 0x635b4e7adfef0628ull},
    {"blocked.int8.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"blocked.int8.cry.ch3", 0xe616addf981ca374ull},
    {"blocked.int8.cry.ch4", 0xe49fd616e6169ce6ull},
    {"blocked.int8.cry.tokens", 0x93314b2c996c8918ull},
    {"scalar.fp32.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"scalar.fp32.amo.ch1", 0x91130e079d613287ull},
    {"scalar.fp32.amo.ch2", 0x0527ba66decf1fb6ull},
    {"scalar.fp32.amo.ch3", 0xacb556a3ccf0632eull},
    {"scalar.fp32.amo.ch4", 0x6fe417e1e887ad85ull},
    {"scalar.fp32.amo.tokens", 0x19cd69d8bb565597ull},
    {"scalar.fp32.cry.ch0", 0x5030a203deea0635ull},
    {"scalar.fp32.cry.ch1", 0x635b4e7adfef0628ull},
    {"scalar.fp32.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"scalar.fp32.cry.ch3", 0xe616addf981ca374ull},
    {"scalar.fp32.cry.ch4", 0xe49fd616e6169ce6ull},
    {"scalar.fp32.cry.tokens", 0x9e1f678bd592b3eeull},
    {"scalar.int8.amo.ch0", 0xdd6cbf8fdfdeade2ull},
    {"scalar.int8.amo.ch1", 0x91130e079d613287ull},
    {"scalar.int8.amo.ch2", 0x0527ba66decf1fb6ull},
    {"scalar.int8.amo.ch3", 0xacb556a3ccf0632eull},
    {"scalar.int8.amo.ch4", 0x6fe417e1e887ad85ull},
    {"scalar.int8.amo.tokens", 0xccf3df78ea6ffc25ull},
    {"scalar.int8.cry.ch0", 0x5030a203deea0635ull},
    {"scalar.int8.cry.ch1", 0x635b4e7adfef0628ull},
    {"scalar.int8.cry.ch2", 0x947b4d4871a7f2e1ull},
    {"scalar.int8.cry.ch3", 0xe616addf981ca374ull},
    {"scalar.int8.cry.ch4", 0xe49fd616e6169ce6ull},
    {"scalar.int8.cry.tokens", 0x1f1c95c3f75dc27bull},
};

/// Restores the process-wide backend and precision after each test.
class EncoderGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = zt::backend_name();
    saved_precision_ = zt::quant::precision_name();
  }
  void TearDown() override {
    zt::set_backend(saved_backend_);
    zt::quant::set_precision(saved_precision_);
  }

  std::string saved_backend_;
  std::string saved_precision_;
};

}  // namespace

TEST_F(EncoderGolden, FeaturesAndTokensMatchReference) {
  const zm::VisionBackbone backbone;
  int covered = 0;
  for (const char* backend : {"scalar", "blocked", "avx2"}) {
    if (!zt::backend_available(backend)) continue;  // host lacks it
    for (const char* precision : {"fp32", "int8"}) {
      ASSERT_TRUE(zt::set_backend(backend));
      if (!zt::quant::set_precision(precision)) continue;
      ++covered;
      for (const auto type : {zf::SampleType::kCrystalline, zf::SampleType::kAmorphous}) {
        const std::string prefix = std::string(backend) + "." + precision + "." +
                                   (type == zf::SampleType::kCrystalline ? "cry" : "amo") +
                                   ".";
        const zm::FeatureMaps maps = zm::compute_features(ready_slice(type));
        for (int c = 0; c < zm::kFeatureChannels; ++c) {
          expect_golden(kEncoderGolden, prefix + "ch" + std::to_string(c),
                        hash_image(maps.channels[static_cast<std::size_t>(c)]));
        }
        expect_golden(kEncoderGolden, prefix + "tokens",
                      hash_tensor(backbone.encode(maps).tokens));
      }
    }
  }
  EXPECT_GE(covered, 2);  // scalar and blocked are always compiled in
}
