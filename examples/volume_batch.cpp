// Mode B example: batch-segment a multi-page TIFF volume with temporal
// refinement, evaluate against ground truth when available, and export
// the dashboard.
//
//   ./volume_batch [volume.tif] ["prompt"]
//
// Without arguments it generates a synthetic amorphous 10-slice volume
// (with ground truth, so Mode C metrics are reported too), writes it to
// volume_batch_input.tif, then runs the batch pipeline on it. A missing
// or corrupt TIFF prints the reader's error to stderr and exits with
// status 2.
#include <cstdio>
#include <string>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/io/pnm.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/volume3d/heuristic.hpp"

int main(int argc, char** argv) {
  using namespace zenesis;
  const std::string prompt =
      argc > 2 ? argv[2] : "bright amorphous catalyst particles";

  fibsem::SyntheticVolume synthetic;
  image::VolumeU16 volume;
  bool have_gt = false;
  if (argc > 1) {
    std::printf("loading %s ...\n", argv[1]);
    try {
      volume = io::read_volume_tiff_u16(argv[1]);
    } catch (const io::TiffError& e) {
      std::fprintf(stderr, "volume_batch: %s\n", e.what());
      return 2;
    }
  } else {
    std::printf("no input given — generating a synthetic amorphous volume\n");
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kAmorphous;
    synthetic = fibsem::generate_volume(cfg);
    volume = synthetic.volume;
    have_gt = true;
    io::write_volume_tiff("volume_batch_input.tif", volume);
    std::printf("wrote volume_batch_input.tif (%lld slices)\n",
                static_cast<long long>(volume.depth()));
  }

  core::Session session;
  const core::VolumeResult res =
      session.mode_b_segment_volume(core::VolumeRequest::view(volume, prompt));

  std::printf("segmented %zu slices; heuristic refinement replaced %d "
              "outlier box(es)\n", res.slices.size(), res.replaced_count);
  const double consistency = volume3d::slice_consistency(res.masks());
  std::printf("slice-to-slice mask consistency (mean IoU): %.3f\n", consistency);

  if (have_gt) {
    for (std::int64_t z = 0; z < volume.depth(); ++z) {
      session.mode_c_evaluate(
          "amorphous", "zenesis", z, res.slices[static_cast<std::size_t>(z)].mask,
          synthetic.ground_truth[static_cast<std::size_t>(z)]);
    }
    session.publish_runtime_stats();
    std::printf("%s", session.dashboard().render().c_str());
  }

  io::write_ppm("volume_batch_slice0.ppm",
                image::overlay_mask(res.slices[0].ai_ready, res.slices[0].mask));
  std::printf("wrote volume_batch_slice0.ppm\n");
  return 0;
}
