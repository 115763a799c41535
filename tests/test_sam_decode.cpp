// Golden equivalence tests for the SAM box decoder and the large-window
// median filters it is built on. Every hash below was recorded from the
// reference (full-frame, O(r)-median, serial) decoder; the optimized
// decoder must reproduce every mask byte, every MaskPrediction score and
// the candidate count and order exactly. A changed constant is a changed
// mask — never update one to make a refactor pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "zenesis/cache/hash.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/cv/filters.hpp"
#include "zenesis/cv/morphology.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/parallel/rng.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zc = zenesis::core;
namespace zcv = zenesis::cv;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zm = zenesis::models;
using zenesis::cache::fnv1a_bytes;
using zenesis::cache::fnv1a_value;
using zenesis::cache::kFnvOffset;

namespace {

std::uint64_t hash_mask(std::uint64_t h, const zi::Mask& m) {
  h = fnv1a_value(h, m.width());
  h = fnv1a_value(h, m.height());
  return fnv1a_bytes(h, m.pixels().data(), m.pixels().size());
}

std::uint64_t hash_prediction(std::uint64_t h, const zm::MaskPrediction& p) {
  h = hash_mask(h, p.mask);
  h = fnv1a_value(h, p.confidence);
  h = fnv1a_value(h, p.stability);
  h = fnv1a_value(h, p.homogeneity);
  h = fnv1a_value(h, p.area_fraction);
  h = fnv1a_value(h, p.rim_overlap);
  return fnv1a_value(h, p.polarity);
}

std::uint64_t hash_candidates(const std::vector<zm::MaskPrediction>& cands) {
  std::uint64_t h = fnv1a_value(kFnvOffset, cands.size());
  for (const auto& c : cands) h = hash_prediction(h, c);
  return h;
}

std::uint64_t hash_box(std::uint64_t h, const zi::Box& b) {
  h = fnv1a_value(h, b.x);
  h = fnv1a_value(h, b.y);
  h = fnv1a_value(h, b.w);
  return fnv1a_value(h, b.h);
}

std::uint64_t hash_slice(const zc::SliceResult& r) {
  std::uint64_t h = hash_mask(kFnvOffset, r.mask);
  h = fnv1a_value(h, r.grounding.boxes.size());
  for (const auto& b : r.grounding.boxes) {
    h = hash_box(h, b.box);
    h = fnv1a_value(h, b.score);
  }
  h = fnv1a_value(h, r.box_masks.size());
  for (const auto& p : r.box_masks) h = hash_prediction(h, p);
  h = hash_box(h, r.primary_box);
  return fnv1a_value(h, r.confidence);
}

/// Hash of a float sequence (median outputs, row-major over their ROI).
std::uint64_t hash_values(const std::vector<float>& v) {
  std::uint64_t h = fnv1a_value(kFnvOffset, v.size());
  return fnv1a_bytes(h, v.data(), v.size() * sizeof(float));
}

/// Compares against the golden table; on a mismatch prints the entry in
/// table syntax so a reviewer can see exactly which case moved.
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

zi::ImageF32 ready_slice(zf::SampleType type, std::int64_t size, std::int64_t z) {
  zf::SynthConfig cfg;
  cfg.type = type;
  cfg.width = size;
  cfg.height = size;
  cfg.depth = z + 1;
  cfg.seed = 4242;
  return zi::make_ai_ready(zi::AnyImage(zf::generate_slice(cfg, z).raw));
}

struct NamedBox {
  const char* name;
  zi::Box box;
};

/// The decoder sweep for a `s`×`s` frame: the minimum area, both sides of
/// the coarse-scale threshold (min side 48), every border, the full frame
/// and a box hanging off the image.
std::vector<NamedBox> decode_boxes(std::int64_t s) {
  const std::int64_t t = s / 3;
  return {
      {"area63", {10, 12, 9, 7}},
      {"area64", {10, 12, 8, 8}},
      {"side47", {s / 4, s / 5, 47, 61}},
      {"side48", {s / 4, s / 5, 48, 61}},
      {"left", {0, t, t, t + 9}},
      {"top", {t - 5, 0, t + 4, t}},
      {"right", {s - t, t + 3, t, t}},
      {"bottom", {t, s - t, t + 11, t}},
      {"corner", {s - 50, s - 56, 50, 56}},
      {"full", {0, 0, s, s}},
      {"off_image", {-17, s - 40, 80, 90}},
      {"center", {s / 4, s / 4, s / 2, s / 2}},
  };
}

/// The outline term as the reference decoder computed it: full-frame
/// morphological gradient, edge strength averaged in raster order.
double full_frame_adherence(const zm::SamEncoded& enc, const zi::Mask& mask) {
  const zi::Mask boundary = zcv::boundary_gradient(mask);
  double sum = 0.0;
  std::int64_t count = 0;
  for (std::int64_t y = 0; y < boundary.height(); ++y) {
    for (std::int64_t x = 0; x < boundary.width(); ++x) {
      if (boundary.at(x, y) == 0) continue;
      sum += enc.maps.channels[zm::kEdge].at(x, y);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// Hashes the candidates and checks the box-local outline term of each
/// against the full-frame one, bit for bit.
std::uint64_t check_candidates(const zm::SamModel& sam, const zm::SamEncoded& enc,
                               const zi::Box& box) {
  const std::vector<zm::MaskPrediction> cands = sam.predict_box_candidates(enc, box);
  for (const auto& c : cands) {
    EXPECT_EQ(sam.boundary_adherence(enc, c.mask, box), full_frame_adherence(enc, c.mask));
  }
  return hash_candidates(cands);
}

const char* type_tag(zf::SampleType t) {
  return t == zf::SampleType::kCrystalline ? "cry" : "amo";
}

// ---------------------------------------------------------------------------
// Golden tables
// ---------------------------------------------------------------------------

const std::map<std::string, std::uint64_t> kDecodeGolden = {
    {"amo128.area63.best", 0x16521e488e350d55ull},
    {"amo128.area63.cands", 0xa8c7f832281a39c5ull},
    {"amo128.area64.best", 0xadcd9acdb7f09b29ull},
    {"amo128.area64.cands", 0x7e74e772c1657bd8ull},
    {"amo128.bottom.best", 0xed5367fd0b3459afull},
    {"amo128.bottom.cands", 0x785528acfee76f39ull},
    {"amo128.center.best", 0xe1681461d1161b5full},
    {"amo128.center.cands", 0x0a5648f137c4b6f5ull},
    {"amo128.corner.best", 0x8d617afb794d49abull},
    {"amo128.corner.cands", 0x9275cb2be563b492ull},
    {"amo128.full.best", 0x97b8aefa1627b6fcull},
    {"amo128.full.cands", 0x9aa195e3bbcb501dull},
    {"amo128.left.best", 0xd113d3a15d2db34bull},
    {"amo128.left.cands", 0x147c5f3a615f36b4ull},
    {"amo128.off_image.best", 0xeb175a173d9c14ecull},
    {"amo128.off_image.cands", 0x19ae4a61036e297cull},
    {"amo128.right.best", 0x2873b0881a28427cull},
    {"amo128.right.cands", 0x557dbf23cb548a45ull},
    {"amo128.side47.best", 0x0afc0489a47deb31ull},
    {"amo128.side47.cands", 0x8a00a85ff6fdea74ull},
    {"amo128.side48.best", 0x13be430f82396e1eull},
    {"amo128.side48.cands", 0x5448bb982b543d11ull},
    {"amo128.top.best", 0xa00c9c164c2a984cull},
    {"amo128.top.cands", 0x005aa85a386c1d48ull},
    {"amo256.area63.best", 0xbbb7492096dee0f5ull},
    {"amo256.area63.cands", 0xa8c7f832281a39c5ull},
    {"amo256.area64.best", 0x12360009e4b4de3aull},
    {"amo256.area64.cands", 0x326b522729fac0dbull},
    {"amo256.bottom.best", 0xd29c8d186812e7b0ull},
    {"amo256.bottom.cands", 0x51d40db0f0e4ade0ull},
    {"amo256.center.best", 0xfa5c7d96c7c44507ull},
    {"amo256.center.cands", 0x02d72727c1604e13ull},
    {"amo256.corner.best", 0x2c2434685251c5f4ull},
    {"amo256.corner.cands", 0x5c396d1d2bf98188ull},
    {"amo256.full.best", 0x89e82ce984cdaae1ull},
    {"amo256.full.cands", 0xae27793d34e05ec3ull},
    {"amo256.left.best", 0x4fd8bdabe430fc34ull},
    {"amo256.left.cands", 0xff13b72e6d3ec62full},
    {"amo256.off_image.best", 0x7ae63ef61db91224ull},
    {"amo256.off_image.cands", 0xf6d482e2f33d3865ull},
    {"amo256.right.best", 0xdf141d0c7631c83bull},
    {"amo256.right.cands", 0x991751185adc0cfeull},
    {"amo256.side47.best", 0xa0fb30039e67a9ccull},
    {"amo256.side47.cands", 0x25b73830cc4ffde2ull},
    {"amo256.side48.best", 0x91d9b69a2bcdb319ull},
    {"amo256.side48.cands", 0x531e5bba8fe3aab2ull},
    {"amo256.top.best", 0x5278bf239653957dull},
    {"amo256.top.cands", 0x6ed54382bd526085ull},
    {"cry128.area63.best", 0x16521e488e350d55ull},
    {"cry128.area63.cands", 0xa8c7f832281a39c5ull},
    {"cry128.area64.best", 0x0b8bab82e25359f4ull},
    {"cry128.area64.cands", 0xa458a00136fbd3c5ull},
    {"cry128.bottom.best", 0x16521e488e350d55ull},
    {"cry128.bottom.cands", 0xa8c7f832281a39c5ull},
    {"cry128.center.best", 0x03c00991696ca19eull},
    {"cry128.center.cands", 0xd8507599c452e298ull},
    {"cry128.corner.best", 0xf422122485d608e1ull},
    {"cry128.corner.cands", 0x97192237659e705aull},
    {"cry128.full.best", 0xbb8f72be1b2d2ac7ull},
    {"cry128.full.cands", 0xcc84ef6a8a29b2b8ull},
    {"cry128.left.best", 0x95fd7ddc2049bf54ull},
    {"cry128.left.cands", 0x070af7f40472f5c3ull},
    {"cry128.off_image.best", 0xb751825f9fd35d2aull},
    {"cry128.off_image.cands", 0xbe8c25e3830a9a5eull},
    {"cry128.right.best", 0xadc7de9850b3aa0bull},
    {"cry128.right.cands", 0xb43a94db21b80882ull},
    {"cry128.side47.best", 0x3b5db0e41d1d8b48ull},
    {"cry128.side47.cands", 0xd3681859e54cc3c0ull},
    {"cry128.side48.best", 0xbcb596f818b6b05bull},
    {"cry128.side48.cands", 0xfe51b1367cca14feull},
    {"cry128.top.best", 0x4ca146cf6446cd94ull},
    {"cry128.top.cands", 0xcb27e79c5554a036ull},
    {"cry256.area63.best", 0xbbb7492096dee0f5ull},
    {"cry256.area63.cands", 0xa8c7f832281a39c5ull},
    {"cry256.area64.best", 0xb2ff5dac044ad049ull},
    {"cry256.area64.cands", 0xd06cd26a19e1e212ull},
    {"cry256.bottom.best", 0xb2ff5dac044ad049ull},
    {"cry256.bottom.cands", 0xd8746dbb3dfe0f47ull},
    {"cry256.center.best", 0x73bac453ead97a31ull},
    {"cry256.center.cands", 0xcc420307a9bfae45ull},
    {"cry256.corner.best", 0xb2ff5dac044ad049ull},
    {"cry256.corner.cands", 0xd8746dbb3dfe0f47ull},
    {"cry256.full.best", 0x810e2e786308152dull},
    {"cry256.full.cands", 0xfc18efa31e65bb39ull},
    {"cry256.left.best", 0x109274210e4beb53ull},
    {"cry256.left.cands", 0xc8a8c36aa228e01dull},
    {"cry256.off_image.best", 0x1399bffe7f46322aull},
    {"cry256.off_image.cands", 0x845529d602551788ull},
    {"cry256.right.best", 0x9bfe66ddc0fa92fbull},
    {"cry256.right.cands", 0x7fb9efac417372b0ull},
    {"cry256.side47.best", 0xd6e2153c168a39f6ull},
    {"cry256.side47.cands", 0x1ad4cfd8cc84389cull},
    {"cry256.side48.best", 0xfb08ea7bdc42a862ull},
    {"cry256.side48.cands", 0x7dab0c468626423dull},
    {"cry256.top.best", 0x9a6beaac4b7f553eull},
    {"cry256.top.cands", 0xbe6f4df03af74998ull},
    {"knob.r0.area63", 0xa8c7f832281a39c5ull},
    {"knob.r0.area63.best", 0x16521e488e350d55ull},
    {"knob.r0.area64", 0x967d9d52785bc939ull},
    {"knob.r0.area64.best", 0xc517d85da18b656full},
    {"knob.r0.bottom", 0xc85b83ecd686e123ull},
    {"knob.r0.bottom.best", 0x1e8f54a8a74401ddull},
    {"knob.r0.center", 0x0af367a506389eb2ull},
    {"knob.r0.center.best", 0x8adbbd7f9cf8745dull},
    {"knob.r0.corner", 0x6a18ccfd78278d00ull},
    {"knob.r0.corner.best", 0x7f2753d37df6cc9bull},
    {"knob.r0.full", 0x4f45db487c5b394cull},
    {"knob.r0.full.best", 0xa94f42c1f15a739cull},
    {"knob.r0.left", 0x76a9a462f96331cbull},
    {"knob.r0.left.best", 0xe5ac730472185f4cull},
    {"knob.r0.off_image", 0xd0fda6192c07c7e1ull},
    {"knob.r0.off_image.best", 0xd87d13ac5201ac78ull},
    {"knob.r0.right", 0x9ebab74532011324ull},
    {"knob.r0.right.best", 0x31b506886715a79cull},
    {"knob.r0.side47", 0x868fe69f57d43d96ull},
    {"knob.r0.side47.best", 0xa0cf3b0ef44b5d71ull},
    {"knob.r0.side48", 0xee43b9430b0e2352ull},
    {"knob.r0.side48.best", 0xea024e76d5086c74ull},
    {"knob.r0.top", 0x86a61cbac218b092ull},
    {"knob.r0.top.best", 0xf60843662a11342cull},
    {"knob.r2.area63", 0xa8c7f832281a39c5ull},
    {"knob.r2.area63.best", 0x16521e488e350d55ull},
    {"knob.r2.area64", 0x991b3ae587e1677bull},
    {"knob.r2.area64.best", 0x1603901c3a1be981ull},
    {"knob.r2.bottom", 0x92a51efec53b6b7eull},
    {"knob.r2.bottom.best", 0x8189e4c760c06416ull},
    {"knob.r2.center", 0x330808dc8215871dull},
    {"knob.r2.center.best", 0x54a39de97bc5760eull},
    {"knob.r2.corner", 0x2bf8841a76c0e4e7ull},
    {"knob.r2.corner.best", 0xfa1d1bcc36f5818eull},
    {"knob.r2.full", 0x4912a81ed0646a0dull},
    {"knob.r2.full.best", 0x11750537163be6c1ull},
    {"knob.r2.left", 0xe8f6e48fb46ada18ull},
    {"knob.r2.left.best", 0x8c4ff1fdb6efe426ull},
    {"knob.r2.off_image", 0x4e675a65ad365d06ull},
    {"knob.r2.off_image.best", 0xbe108d663719fad5ull},
    {"knob.r2.right", 0x5d4acdf1a3d84b09ull},
    {"knob.r2.right.best", 0x041e8ed0f95ac3bfull},
    {"knob.r2.side47", 0x6c6d58f5bab0db8aull},
    {"knob.r2.side47.best", 0xd567f9b1937b5e77ull},
    {"knob.r2.side48", 0x9151e21870786571ull},
    {"knob.r2.side48.best", 0xea74b6e5cc9fb9cbull},
    {"knob.r2.top", 0x8ac62ef8d2b67bd5ull},
    {"knob.r2.top.best", 0x5d107b763716a1abull},
    {"knob.r3_noveto.area63", 0xa8c7f832281a39c5ull},
    {"knob.r3_noveto.area63.best", 0x16521e488e350d55ull},
    {"knob.r3_noveto.area64", 0x1d07590009721363ull},
    {"knob.r3_noveto.area64.best", 0xb6ef1c10ffd367d5ull},
    {"knob.r3_noveto.bottom", 0x3e0e241a6774de40ull},
    {"knob.r3_noveto.bottom.best", 0x676c81e4e0440f88ull},
    {"knob.r3_noveto.center", 0x3f7b45b2a2a50daeull},
    {"knob.r3_noveto.center.best", 0x41828773e2021a1eull},
    {"knob.r3_noveto.corner", 0xa12ad850ccc24f1cull},
    {"knob.r3_noveto.corner.best", 0x1decf0b84bee431cull},
    {"knob.r3_noveto.full", 0x763cb8128dcd64f4ull},
    {"knob.r3_noveto.full.best", 0x55d977fd9f3a3d60ull},
    {"knob.r3_noveto.left", 0xb725517804a25fdbull},
    {"knob.r3_noveto.left.best", 0x470eec981883e2c6ull},
    {"knob.r3_noveto.off_image", 0x0d278dee29bc21e4ull},
    {"knob.r3_noveto.off_image.best", 0x8172c97b8c478976ull},
    {"knob.r3_noveto.right", 0xe769a96f345460edull},
    {"knob.r3_noveto.right.best", 0x4a0d0e5522061e70ull},
    {"knob.r3_noveto.side47", 0x6b311f6a2c36e05aull},
    {"knob.r3_noveto.side47.best", 0xf07e85f71d645f0full},
    {"knob.r3_noveto.side48", 0xb52cf47c2da07727ull},
    {"knob.r3_noveto.side48.best", 0x5536697c5462647aull},
    {"knob.r3_noveto.top", 0x80b76175105ee6b8ull},
    {"knob.r3_noveto.top.best", 0xa46a2e9fe1c80163ull},
};

const std::map<std::string, std::uint64_t> kPipelineGolden = {
    {"amo128.box_off_image", 0x689b78053d40731full},
    {"amo128.box_sam", 0x2345ff67ccfaefd6ull},
    {"amo128.box_text", 0x027e9c594d9a64e5ull},
    {"amo128.k1.ready", 0x86ac4310e8aa8477ull},
    {"amo128.k1.ready_other", 0x1d002bda749c4a74ull},
    {"amo128.k6.ready", 0x86ac4310e8aa8477ull},
    {"amo128.k6.ready_other", 0x1d002bda749c4a74ull},
    {"amo256.box_off_image", 0x043705032b6a408full},
    {"amo256.box_sam", 0xce7b99c0d67e8d29ull},
    {"amo256.box_text", 0xebe2bcaf46a344ccull},
    {"amo256.k1.ready", 0x30aaf90fbd53536full},
    {"amo256.k1.ready_other", 0xbfa9f92cdef801a7ull},
    {"amo256.k6.ready", 0x7d0ce2154b6c135aull},
    {"amo256.k6.ready_other", 0xbfa9f92cdef801a7ull},
    {"cry128.box_off_image", 0x95e916f05ec614f6ull},
    {"cry128.box_sam", 0xe53387e5f343116bull},
    {"cry128.box_text", 0x37cdf4a40ce19493ull},
    {"cry128.k1.ready", 0x38ee16b44ad5fc75ull},
    {"cry128.k1.ready_other", 0xb842ca742b5ba579ull},
    {"cry128.k6.ready", 0x38ee16b44ad5fc75ull},
    {"cry128.k6.ready_other", 0xb842ca742b5ba579ull},
    {"cry256.box_off_image", 0xbdf054831b5c139cull},
    {"cry256.box_sam", 0x56d23cfc970a3c70ull},
    {"cry256.box_text", 0x8ed8683660df27e6ull},
    {"cry256.k1.ready", 0x01aa6fcf78dfa2c3ull},
    {"cry256.k1.ready_other", 0x5769c149b914db54ull},
    {"cry256.k6.ready", 0x01aa6fcf78dfa2c3ull},
    {"cry256.k6.ready_other", 0xb84ae603ca719613ull},
};

const std::map<std::string, std::uint64_t> kMedianGolden = {
    {"50x131.r1.bottom", 0x54bfda9aa8fe42f3ull},
    {"50x131.r1.corner", 0xc555e10c708754a4ull},
    {"50x131.r1.full", 0x0755a337175e761full},
    {"50x131.r1.interior", 0xae429b1f8521a1f1ull},
    {"50x131.r1.left", 0x16f4d75055bb2e0bull},
    {"50x131.r1.masked_bottom", 0xc622529384bef20dull},
    {"50x131.r1.masked_corner", 0xa46fadc49589dbd0ull},
    {"50x131.r1.masked_full", 0xabd5caf3601f9a6aull},
    {"50x131.r1.masked_interior", 0x99effa0f5be9c09full},
    {"50x131.r1.masked_left", 0x1c6ff92e1112b834ull},
    {"50x131.r1.masked_overhang", 0xbb9f7fc61d0a56c2ull},
    {"50x131.r1.masked_right", 0xf8ae52d51f74702bull},
    {"50x131.r1.masked_thin_row", 0x34b50e0632c86d2full},
    {"50x131.r1.masked_top", 0x8e0f1dd68c08f235ull},
    {"50x131.r1.overhang", 0xb5f0d70a315dc026ull},
    {"50x131.r1.right", 0xb147f594656047c1ull},
    {"50x131.r1.thin_row", 0x8a1c935e942ad7c8ull},
    {"50x131.r1.top", 0x7fbbfe3a222ce46cull},
    {"50x131.r20.bottom", 0x02913ffb2b0fc0feull},
    {"50x131.r20.corner", 0x070b1c1b64a70648ull},
    {"50x131.r20.full", 0x05530012862ff101ull},
    {"50x131.r20.interior", 0xaec5205eb8280cc4ull},
    {"50x131.r20.left", 0x7fb98fe7d9b655baull},
    {"50x131.r20.masked_bottom", 0xe4a65197f7eb8f6bull},
    {"50x131.r20.masked_corner", 0x4e0b4f2a724e7403ull},
    {"50x131.r20.masked_full", 0x72d91ee192602d54ull},
    {"50x131.r20.masked_interior", 0x85aa9b10577d25baull},
    {"50x131.r20.masked_left", 0xcdedb001232f5b4eull},
    {"50x131.r20.masked_overhang", 0x8d6f8c60083f7ed1ull},
    {"50x131.r20.masked_right", 0x84fd46e2fe35cc72ull},
    {"50x131.r20.masked_thin_row", 0xdb1d218256f47e6cull},
    {"50x131.r20.masked_top", 0xaf07cb545f994e8full},
    {"50x131.r20.overhang", 0xe27a78222fa6f3f9ull},
    {"50x131.r20.right", 0xefa7d9f5e7c88f0eull},
    {"50x131.r20.thin_row", 0x8995691fc4f27c95ull},
    {"50x131.r20.top", 0xaeee30c0dffd328bull},
    {"50x131.r400.bottom", 0xf2782ac4ab9f6c12ull},
    {"50x131.r400.corner", 0xadfd72fce3cd7c7aull},
    {"50x131.r400.full", 0xf29211cb511c7250ull},
    {"50x131.r400.interior", 0x5e81ec25a82dfeeaull},
    {"50x131.r400.left", 0x2cab78a88a6225baull},
    {"50x131.r400.masked_bottom", 0xe4b1ac49e34359c2ull},
    {"50x131.r400.masked_corner", 0x0429577ff7220e5aull},
    {"50x131.r400.masked_full", 0xc3e74b00ac48cab4ull},
    {"50x131.r400.masked_interior", 0x376b59b132b90d79ull},
    {"50x131.r400.masked_left", 0xbbab41e8433d1da9ull},
    {"50x131.r400.masked_overhang", 0xea99fccbf92c9d6full},
    {"50x131.r400.masked_right", 0x2ca91cf61100b91eull},
    {"50x131.r400.masked_thin_row", 0xb2a9735c8e8912abull},
    {"50x131.r400.masked_top", 0xfaaf02274d62259cull},
    {"50x131.r400.overhang", 0x57afa6b837e3b933ull},
    {"50x131.r400.right", 0x7c269bb37f38fd26ull},
    {"50x131.r400.thin_row", 0x1a2d9eff9e75aabfull},
    {"50x131.r400.top", 0xd33d7701591b4113ull},
    {"50x131.r48.bottom", 0x78f716dcfc1a1902ull},
    {"50x131.r48.corner", 0x1e4140f54738012cull},
    {"50x131.r48.full", 0x857f3939f359b941ull},
    {"50x131.r48.interior", 0x8902a179e1e0aab8ull},
    {"50x131.r48.left", 0x9e69c674bec8f546ull},
    {"50x131.r48.masked_bottom", 0xebaf7933f1868f52ull},
    {"50x131.r48.masked_corner", 0x397fd42b18dcce16ull},
    {"50x131.r48.masked_full", 0x89fbd06a72fa6009ull},
    {"50x131.r48.masked_interior", 0x73a150f709c15086ull},
    {"50x131.r48.masked_left", 0xb4c13a408dc3d2dcull},
    {"50x131.r48.masked_overhang", 0xaddc5419cf52cc21ull},
    {"50x131.r48.masked_right", 0x0e2e186f70f1b85eull},
    {"50x131.r48.masked_thin_row", 0xa182d0ff7ccd450full},
    {"50x131.r48.masked_top", 0xd64103119bc3d6d7ull},
    {"50x131.r48.overhang", 0x070118482082fd9full},
    {"50x131.r48.right", 0xaf8eb3b940c68b9eull},
    {"50x131.r48.thin_row", 0xe3c007e588b6651bull},
    {"50x131.r48.top", 0x8ad18fe2f6486b05ull},
    {"50x131.r8.bottom", 0x772629fb54edfcefull},
    {"50x131.r8.corner", 0x337156fb049f3d14ull},
    {"50x131.r8.full", 0xa652ca366fb14624ull},
    {"50x131.r8.interior", 0x194adff2d7907dc8ull},
    {"50x131.r8.left", 0x410e387650b644acull},
    {"50x131.r8.masked_bottom", 0x39ad55ae1ed4621full},
    {"50x131.r8.masked_corner", 0x960c26504505a75aull},
    {"50x131.r8.masked_full", 0x60649f6099a2825eull},
    {"50x131.r8.masked_interior", 0xdc551691fb66eb2dull},
    {"50x131.r8.masked_left", 0xb52e18fb3c255da8ull},
    {"50x131.r8.masked_overhang", 0x264c47e8bfdbfc8full},
    {"50x131.r8.masked_right", 0x181ffbeff3f62822ull},
    {"50x131.r8.masked_thin_row", 0x56419c87848477b0ull},
    {"50x131.r8.masked_top", 0xb481c981430a7714ull},
    {"50x131.r8.overhang", 0xb4186d27c2047b0dull},
    {"50x131.r8.right", 0x6ee1ad7beed4ae5eull},
    {"50x131.r8.thin_row", 0x1e9940a49651779aull},
    {"50x131.r8.top", 0x26e07730ca848c38ull},
    {"50x131.r96.bottom", 0x8c037d0476ce6de2ull},
    {"50x131.r96.corner", 0x339792a925a575e2ull},
    {"50x131.r96.full", 0x8ac27f21d87e99fcull},
    {"50x131.r96.interior", 0xa48dfeb6d3664df2ull},
    {"50x131.r96.left", 0x4560fdfeda5ba941ull},
    {"50x131.r96.masked_bottom", 0x3586536cd914f452ull},
    {"50x131.r96.masked_corner", 0x378c26d881ed5fbaull},
    {"50x131.r96.masked_full", 0x54a1862f73ba4efcull},
    {"50x131.r96.masked_interior", 0xad39cef057fe2f10ull},
    {"50x131.r96.masked_left", 0xabd6210d698f7606ull},
    {"50x131.r96.masked_overhang", 0xd26ad9f772e54463ull},
    {"50x131.r96.masked_right", 0xe7ac0f7a891a8e2aull},
    {"50x131.r96.masked_thin_row", 0xb2a9735c8e8912abull},
    {"50x131.r96.masked_top", 0xd99853ff2a6ba7ddull},
    {"50x131.r96.overhang", 0x20509dc30c58e88bull},
    {"50x131.r96.right", 0xb85551a26092b8faull},
    {"50x131.r96.thin_row", 0x1a2d9eff9e75aabfull},
    {"50x131.r96.top", 0x1574cba90c5be2fdull},
    {"96x64.r1.bottom", 0xf3d3c8975a4418fdull},
    {"96x64.r1.corner", 0x3a42dc773641c23aull},
    {"96x64.r1.full", 0xd56b85ac91a57752ull},
    {"96x64.r1.interior", 0x531d45bc592bd5f6ull},
    {"96x64.r1.left", 0x7322454257eb4e23ull},
    {"96x64.r1.masked_bottom", 0x593eb8b9731029e3ull},
    {"96x64.r1.masked_corner", 0x5c2238edf87982d7ull},
    {"96x64.r1.masked_full", 0x6711559f4c7af3e4ull},
    {"96x64.r1.masked_interior", 0xc797253f71ceb2fbull},
    {"96x64.r1.masked_left", 0x1df3aaca0951fb3full},
    {"96x64.r1.masked_overhang", 0x87b0a3942df51a84ull},
    {"96x64.r1.masked_right", 0x6dd644b247646b18ull},
    {"96x64.r1.masked_thin_row", 0x24c45fde1dbe5a18ull},
    {"96x64.r1.masked_top", 0x4a2590278181a653ull},
    {"96x64.r1.overhang", 0x94103fd118c06d81ull},
    {"96x64.r1.right", 0x31f4355fec4e68deull},
    {"96x64.r1.thin_row", 0xd6282527952e1c52ull},
    {"96x64.r1.top", 0x0b84da339a55d142ull},
    {"96x64.r20.bottom", 0xf9d844b3f54c8927ull},
    {"96x64.r20.corner", 0xe634af22876665c9ull},
    {"96x64.r20.full", 0xe285116bf97bd571ull},
    {"96x64.r20.interior", 0xf668e6a6ad6d9a90ull},
    {"96x64.r20.left", 0x871f31002b2afa3cull},
    {"96x64.r20.masked_bottom", 0x6578f3ed1f75961dull},
    {"96x64.r20.masked_corner", 0x60cc2fbf0fc8cf6bull},
    {"96x64.r20.masked_full", 0x7dc9ddc4a8dd66e5ull},
    {"96x64.r20.masked_interior", 0x0bb338b21c37db76ull},
    {"96x64.r20.masked_left", 0x1f2e1a6ca3029d3cull},
    {"96x64.r20.masked_overhang", 0x6eacf1f0e6ba66bbull},
    {"96x64.r20.masked_right", 0x7c151b7bb36af92eull},
    {"96x64.r20.masked_thin_row", 0x236ed1ed055bd21bull},
    {"96x64.r20.masked_top", 0x53e2d002d3a971cdull},
    {"96x64.r20.overhang", 0x094572856ccf3e43ull},
    {"96x64.r20.right", 0x0d719a489582df54ull},
    {"96x64.r20.thin_row", 0x3037bc6ef0e564f0ull},
    {"96x64.r20.top", 0x74355f9a8fe7184full},
    {"96x64.r400.bottom", 0xb969d2cd9384e182ull},
    {"96x64.r400.corner", 0x309157ab62c3bfdaull},
    {"96x64.r400.full", 0xfc01aa25f23c453dull},
    {"96x64.r400.interior", 0x500cbd3b4ab15ce8ull},
    {"96x64.r400.left", 0xa6834e98a72bb498ull},
    {"96x64.r400.masked_bottom", 0x27bbe6fce2fca8c2ull},
    {"96x64.r400.masked_corner", 0x92fe060f90af2adaull},
    {"96x64.r400.masked_full", 0xe8b241e84618653dull},
    {"96x64.r400.masked_interior", 0x1a5510ed0d92529dull},
    {"96x64.r400.masked_left", 0x57a901310cd2c7cdull},
    {"96x64.r400.masked_overhang", 0x31b64fbeed96cca8ull},
    {"96x64.r400.masked_right", 0xa024874b8048671eull},
    {"96x64.r400.masked_thin_row", 0x566787f362a4a64dull},
    {"96x64.r400.masked_top", 0x22d5b860a5af2738ull},
    {"96x64.r400.overhang", 0xea0f475e0bd99c28ull},
    {"96x64.r400.right", 0x615950e39a62705eull},
    {"96x64.r400.thin_row", 0xa5ce07354a67638dull},
    {"96x64.r400.top", 0x2336fef3363db4adull},
    {"96x64.r48.bottom", 0xceee2a91b3182504ull},
    {"96x64.r48.corner", 0x9bf2b58425e2692full},
    {"96x64.r48.full", 0xc18cc8efcbef3e84ull},
    {"96x64.r48.interior", 0x682c2538998f6e10ull},
    {"96x64.r48.left", 0xce3548e837e6456cull},
    {"96x64.r48.masked_bottom", 0x40994eeb20561166ull},
    {"96x64.r48.masked_corner", 0xc7feff7ca0ddfb7eull},
    {"96x64.r48.masked_full", 0x2c20994fe5aa7ff4ull},
    {"96x64.r48.masked_interior", 0x94be70c83a18b58full},
    {"96x64.r48.masked_left", 0x736ad32d8286513aull},
    {"96x64.r48.masked_overhang", 0xce386fa808bf2a65ull},
    {"96x64.r48.masked_right", 0x58632f9aafa47ba2ull},
    {"96x64.r48.masked_thin_row", 0x001b23fc31a8ed38ull},
    {"96x64.r48.masked_top", 0xd4ed8bc51f75087bull},
    {"96x64.r48.overhang", 0xdb416003eb9d56cfull},
    {"96x64.r48.right", 0xf47ab7fd978044dcull},
    {"96x64.r48.thin_row", 0xe736b8e054a49f71ull},
    {"96x64.r48.top", 0x34bb70c041638059ull},
    {"96x64.r8.bottom", 0x1c533fb222fb11b1ull},
    {"96x64.r8.corner", 0x8be9224072942cf0ull},
    {"96x64.r8.full", 0xbda1b79aed8c0c9full},
    {"96x64.r8.interior", 0xe92b5c322be67c60ull},
    {"96x64.r8.left", 0x95585cb8876d8c7aull},
    {"96x64.r8.masked_bottom", 0x1162fe67e6747b35ull},
    {"96x64.r8.masked_corner", 0xef6a83199e5fb9ccull},
    {"96x64.r8.masked_full", 0x343f72cd66373672ull},
    {"96x64.r8.masked_interior", 0x54f4864497f5488cull},
    {"96x64.r8.masked_left", 0xe1bbee6544f6a3acull},
    {"96x64.r8.masked_overhang", 0x256e1cdd0bc7b659ull},
    {"96x64.r8.masked_right", 0x8ecce468397218bbull},
    {"96x64.r8.masked_thin_row", 0xb1b8d65a0f1a29cdull},
    {"96x64.r8.masked_top", 0x504340db8e9f5dd4ull},
    {"96x64.r8.overhang", 0xd2082fc6b47a14dcull},
    {"96x64.r8.right", 0x02efd2841e58c819ull},
    {"96x64.r8.thin_row", 0x9dff576a4f67e3a1ull},
    {"96x64.r8.top", 0xb7a10540d5466855ull},
    {"96x64.r96.bottom", 0xb969d2cd9384e182ull},
    {"96x64.r96.corner", 0x309157ab62c3bfdaull},
    {"96x64.r96.full", 0xfc01aa25f23c453dull},
    {"96x64.r96.interior", 0x500cbd3b4ab15ce8ull},
    {"96x64.r96.left", 0xa6834e98a72bb498ull},
    {"96x64.r96.masked_bottom", 0x27bbe6fce2fca8c2ull},
    {"96x64.r96.masked_corner", 0x92fe060f90af2adaull},
    {"96x64.r96.masked_full", 0xe8b241e84618653dull},
    {"96x64.r96.masked_interior", 0x1a5510ed0d92529dull},
    {"96x64.r96.masked_left", 0x57a901310cd2c7cdull},
    {"96x64.r96.masked_overhang", 0x31b64fbeed96cca8ull},
    {"96x64.r96.masked_right", 0xa024874b8048671eull},
    {"96x64.r96.masked_thin_row", 0x566787f362a4a64dull},
    {"96x64.r96.masked_top", 0x22d5b860a5af2738ull},
    {"96x64.r96.overhang", 0xea0f475e0bd99c28ull},
    {"96x64.r96.right", 0x615950e39a62705eull},
    {"96x64.r96.thin_row", 0xa5ce07354a67638dull},
    {"96x64.r96.top", 0x2336fef3363db4adull},
};

/// Selects the scalar backend in fp32 for one scope and restores the
/// previous process-wide selection on exit.
class ScalarFp32Scope {
 public:
  ScalarFp32Scope()
      : backend_(zenesis::tensor::backend_name()),
        precision_(zenesis::tensor::quant::precision_name()) {
    zenesis::tensor::set_backend("scalar");
    zenesis::tensor::quant::set_precision("fp32");
  }
  ~ScalarFp32Scope() {
    zenesis::tensor::set_backend(backend_);
    zenesis::tensor::quant::set_precision(precision_);
  }
  ScalarFp32Scope(const ScalarFp32Scope&) = delete;
  ScalarFp32Scope& operator=(const ScalarFp32Scope&) = delete;

 private:
  std::string backend_;
  std::string precision_;
};

}  // namespace

TEST(SamDecodeGolden, CandidatesAndSelectionMatchReference) {
  for (const auto type : {zf::SampleType::kCrystalline, zf::SampleType::kAmorphous}) {
    for (const std::int64_t size : {128, 256}) {
      const zi::ImageF32 ready = ready_slice(type, size, 1);
      zc::ZenesisPipeline pipe;
      const auto enc = pipe.encode_cached(ready);
      const std::string prefix =
          std::string(type_tag(type)) + std::to_string(size) + ".";
      for (const NamedBox& nb : decode_boxes(size)) {
        expect_golden(kDecodeGolden, prefix + nb.name + ".cands",
                      check_candidates(pipe.sam(), *enc, nb.box));
        expect_golden(kDecodeGolden, prefix + nb.name + ".best",
                      hash_prediction(kFnvOffset, pipe.sam().predict_box(*enc, nb.box)));
      }
    }
  }
}

TEST(SamDecodeGolden, CleanupAndVetoKnobsMatchReference) {
  // The box-local ROI margin depends on morph_radius; the veto and the
  // speckle filter are optional stages.
  const zi::ImageF32 ready = ready_slice(zf::SampleType::kAmorphous, 128, 2);
  struct Knob {
    const char* name;
    int morph_radius;
    std::int64_t min_area;
    float veto;
  };
  for (const Knob k : {Knob{"r0", 0, 16, 1.0f}, Knob{"r2", 2, 16, 1.0f},
                       Knob{"r3_noveto", 3, 0, 0.0f}}) {
    zm::SamConfig cfg;
    cfg.morph_radius = k.morph_radius;
    cfg.min_component_area = k.min_area;
    cfg.coarse_veto_weight = k.veto;
    const zm::SamModel sam(cfg);
    const zm::SamEncoded enc = sam.encode(ready);
    for (const NamedBox& nb : decode_boxes(128)) {
      const std::string tag = std::string("knob.") + k.name + "." + nb.name;
      expect_golden(kDecodeGolden, tag, check_candidates(sam, enc, nb.box));
      expect_golden(kDecodeGolden, tag + ".best",
                    hash_prediction(kFnvOffset, sam.predict_box(enc, nb.box)));
    }
  }
}

TEST(SamDecodeGolden, SegmentReadyAndWithBoxMatchReference) {
  // Text grounding scores differ across kernel backends by rounding, so
  // the end-to-end hashes pin the scalar reference backend in fp32.
  const ScalarFp32Scope scalar_fp32;
  const zc::PipelineConfig base;
  for (const auto type : {zf::SampleType::kCrystalline, zf::SampleType::kAmorphous}) {
    for (const std::int64_t size : {128, 256}) {
      const zi::ImageF32 ready = ready_slice(type, size, 3);
      const std::string prefix =
          std::string(type_tag(type)) + std::to_string(size) + ".";
      const std::string prompt = zf::default_prompt(type);
      for (const int max_boxes : {1, 6}) {
        zc::PipelineConfig cfg = base;
        cfg.max_boxes = max_boxes;
        zc::ZenesisPipeline pipe(cfg);
        const std::string tag = prefix + "k" + std::to_string(max_boxes) + ".";
        expect_golden(kPipelineGolden, tag + "ready",
                      hash_slice(pipe.segment_ready(ready, prompt)));
        expect_golden(kPipelineGolden, tag + "ready_other",
                      hash_slice(pipe.segment_ready(ready, "dark background")));
      }
      zc::ZenesisPipeline pipe(base);
      const zi::Box box{size / 5, size / 6, size / 2, size / 2 + 7};
      zc::BoxPromptOptions opts;
      opts.prompt = prompt;
      expect_golden(kPipelineGolden, prefix + "box_text",
                    hash_slice(pipe.segment_with_box(ready, box, opts)));
      expect_golden(kPipelineGolden, prefix + "box_sam",
                    hash_slice(pipe.segment_with_box(ready, box)));
      expect_golden(kPipelineGolden, prefix + "box_off_image",
                    hash_slice(pipe.segment_with_box(ready, {-9, size - 60, 70, 90}, opts)));
    }
  }
}

TEST(Pipeline, SegmentReadyLooksUpEncodingOnce) {
  const ScalarFp32Scope scalar_fp32;
  const zi::ImageF32 ready = ready_slice(zf::SampleType::kCrystalline, 128, 3);
  const std::string prompt = zf::default_prompt(zf::SampleType::kCrystalline);
  {
    // Default config: DINO and SAM share a backbone config, so grounding
    // and decode use one encoding, looked up once.
    const zc::ZenesisPipeline pipe;
    (void)pipe.segment_ready(ready, prompt);
    const zenesis::cache::FeatureCacheStats st = pipe.cache_stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits + st.disk_hits, 0u);
  }
  // Differing backbones need one encoding each: exactly two misses. The
  // hash was recorded when assemble looked the SAM encoding up itself.
  zc::PipelineConfig cfg;
  cfg.sam.backbone.seed += 1;
  const zc::ZenesisPipeline pipe(cfg);
  const std::uint64_t h = hash_slice(pipe.segment_ready(ready, prompt));
  const zenesis::cache::FeatureCacheStats st = pipe.cache_stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits + st.disk_hits, 0u);
  EXPECT_EQ(h, 0x38ee16b44ad5fc75ull) << std::hex << h;
}

namespace {

/// Smooth gradient + blobs + noise, values spilling slightly outside
/// [0, 1] so the bin clamp is exercised.
zi::ImageF32 median_input(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  zenesis::parallel::Rng rng(seed);
  zi::ImageF32 img(w, h, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const double g = 0.15 + 0.6 * static_cast<double>(x + 2 * y) /
                                  static_cast<double>(w + 2 * h);
      const double blob = ((x / 11 + y / 7) % 3 == 0) ? 0.25 : 0.0;
      img.at(x, y) = static_cast<float>(g + blob + rng.normal(0.0, 0.12));
    }
  }
  return img;
}

/// Exclusion mask: a solid block (windows inside it fall below the
/// quarter-valid rule and hit the fallback) plus sparse speckle.
zi::Mask median_exclude(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  zenesis::parallel::Rng rng(seed);
  zi::Mask m(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const bool block = x >= w / 5 && x < (4 * w) / 5 && y >= h / 6 && y < (2 * h) / 3;
      m.at(x, y) = (block || rng.uniform() < 0.1) ? 1 : 0;
    }
  }
  return m;
}

std::vector<float> full_values(const zi::ImageF32& out) {
  return {out.pixels().begin(), out.pixels().end()};
}

/// Median over `roi` (clipped to the image), as ROI values in row-major
/// order.
std::vector<float> roi_median(const zi::ImageF32& img, int r, const zi::Box& roi) {
  return full_values(zcv::median_filter_large(img, r, roi));
}

std::vector<float> roi_masked_median(const zi::ImageF32& img, int r,
                                     const zi::Mask& exclude, const zi::Box& roi,
                                     bool precomputed_fallback) {
  const zi::ImageF32 fb = zcv::median_filter_large(img, r, roi);
  return full_values(zcv::median_filter_large_masked(
      img, r, exclude, {0, 0}, roi, precomputed_fallback ? &fb : nullptr));
}

}  // namespace

TEST(MedianGolden, FullRoiAndMaskedMatchReference) {
  struct Shape {
    std::int64_t w, h;
  };
  for (const Shape s : {Shape{96, 64}, Shape{50, 131}}) {
    const zi::ImageF32 img = median_input(s.w, s.h, 77 + static_cast<std::uint64_t>(s.w));
    const zi::Mask exclude = median_exclude(s.w, s.h, 5 + static_cast<std::uint64_t>(s.h));
    const std::string shape = std::to_string(s.w) + "x" + std::to_string(s.h) + ".";
    const std::vector<NamedBox> rois = {
        {"interior", {9, 7, 23, 19}},
        {"left", {0, 10, 17, 21}},
        {"top", {12, 0, 19, 13}},
        {"right", {s.w - 14, 5, 14, 30}},
        {"bottom", {3, s.h - 9, 40, 9}},
        {"corner", {s.w - 20, s.h - 20, 20, 20}},
        {"overhang", {-6, -4, s.w + 30, 25}},
        {"thin_row", {4, s.h / 2, s.w - 8, 1}},
    };
    for (const int r : {1, 8, 20, 48, 96, 400 /* wider than the image */}) {
      const std::string rtag = shape + "r" + std::to_string(r) + ".";
      expect_golden(kMedianGolden, rtag + "full",
                    hash_values(full_values(zcv::median_filter_large(img, r))));
      expect_golden(kMedianGolden, rtag + "masked_full",
                    hash_values(full_values(
                        zcv::median_filter_large_masked(img, r, exclude))));
      for (const NamedBox& nb : rois) {
        expect_golden(kMedianGolden, rtag + nb.name,
                      hash_values(roi_median(img, r, nb.box)));
        expect_golden(kMedianGolden, rtag + "masked_" + nb.name,
                      hash_values(roi_masked_median(img, r, exclude, nb.box, false)));
        // A precomputed fallback must change nothing.
        expect_golden(kMedianGolden, rtag + "masked_" + nb.name,
                      hash_values(roi_masked_median(img, r, exclude, nb.box, true)));
      }
    }
  }
}
