#include "zenesis/tensor/init.hpp"

#include <cmath>
#include <stdexcept>

#include "zenesis/parallel/rng.hpp"

namespace zenesis::tensor {

Tensor xavier_uniform(std::int64_t out, std::int64_t in, std::uint64_t seed,
                      std::uint64_t layer_id) {
  Tensor w({out, in});
  parallel::Rng rng(seed, layer_id);
  const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
  for (float& v : w.flat()) {
    v = static_cast<float>(rng.uniform(-limit, limit));
  }
  return w;
}

Tensor zeros(std::int64_t n) { return Tensor({n}); }

Tensor ones(std::int64_t n) {
  Tensor t({n});
  t.fill(1.0f);
  return t;
}

Tensor sinusoidal_positions(std::int64_t length, std::int64_t dim) {
  if (dim % 2 != 0) {
    throw std::invalid_argument("sinusoidal_positions: dim must be even");
  }
  Tensor p({length, dim});
  for (std::int64_t pos = 0; pos < length; ++pos) {
    for (std::int64_t i = 0; i < dim / 2; ++i) {
      const double freq =
          std::pow(10000.0, -2.0 * static_cast<double>(i) / static_cast<double>(dim));
      const double angle = static_cast<double>(pos) * freq;
      p.at(pos, 2 * i) = static_cast<float>(std::sin(angle));
      p.at(pos, 2 * i + 1) = static_cast<float>(std::cos(angle));
    }
  }
  return p;
}

Tensor sinusoidal_positions_2d(std::int64_t h, std::int64_t w,
                               std::int64_t dim) {
  if (dim % 4 != 0) {
    throw std::invalid_argument("sinusoidal_positions_2d: dim must be divisible by 4");
  }
  const std::int64_t half = dim / 2;
  Tensor py = sinusoidal_positions(h, half);
  Tensor px = sinusoidal_positions(w, half);
  Tensor p({h * w, dim});
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      for (std::int64_t i = 0; i < half; ++i) {
        p.at(y * w + x, i) = py.at(y, i);
        p.at(y * w + x, half + i) = px.at(x, i);
      }
    }
  }
  return p;
}

}  // namespace zenesis::tensor
