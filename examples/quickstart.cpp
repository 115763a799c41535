// Quickstart: segment one raw 16-bit FIB-SEM slice with a text prompt.
//
//   ./quickstart [input.tif] ["prompt"]
//
// Without arguments it generates a synthetic crystalline slice, so the
// example runs out of the box. With a TIFF path it segments your data —
// the exact Mode A flow of the platform:
//   raw image → data readiness → GroundingDINO boxes → SAM mask →
//   overlay + metrics on stdout.
// A missing or corrupt TIFF prints the reader's error to stderr and
// exits with status 2.
#include <cstdio>
#include <string>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/io/pnm.hpp"
#include "zenesis/io/tiff.hpp"

int main(int argc, char** argv) {
  using namespace zenesis;

  const std::string prompt =
      argc > 2 ? argv[2] : "bright needle-like crystalline catalyst";

  image::AnyImage raw;
  if (argc > 1) {
    std::printf("loading %s ...\n", argv[1]);
    try {
      raw = io::read_tiff(argv[1]).pages.at(0);
    } catch (const io::TiffError& e) {
      std::fprintf(stderr, "quickstart: %s\n", e.what());
      return 2;
    }
  } else {
    std::printf("no input given — generating a synthetic crystalline "
                "FIB-SEM slice\n");
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    raw = fibsem::generate_slice(cfg, 0).raw;
  }

  std::printf("input: %lldx%lld, %d-bit\n",
              static_cast<long long>(image::width_of(raw)),
              static_cast<long long>(image::height_of(raw)),
              image::bit_depth(raw));
  std::printf("prompt: \"%s\"\n", prompt.c_str());

  core::Session session;
  const core::SliceResult res = session.mode_a_segment(raw, prompt);

  std::printf("grounding: %zu box(es)\n", res.grounding.boxes.size());
  for (const auto& b : res.grounding.boxes) {
    std::printf("  box [%lld,%lld %lldx%lld] confidence %.3f\n",
                static_cast<long long>(b.box.x), static_cast<long long>(b.box.y),
                static_cast<long long>(b.box.w), static_cast<long long>(b.box.h),
                b.score);
  }
  std::printf("mask: %lld foreground pixels (%.1f%% of the image)\n",
              static_cast<long long>(image::mask_area(res.mask)),
              100.0 * image::mask_fraction(res.mask));

  io::write_ppm("quickstart_overlay.ppm",
                image::overlay_mask(res.ai_ready, res.mask));
  std::printf("wrote quickstart_overlay.ppm\n");
  return 0;
}
