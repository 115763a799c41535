#pragma once
// Deterministic weight construction for the surrogate foundation models.
//
// The paper uses pretrained GroundingDINO/SAM checkpoints; we have no
// AI-ready weights, so each layer's parameters are generated procedurally
// from a (seed, layer-id) pair. Xavier scaling keeps activations well
// conditioned so the surrogate transformers behave like initialized (and
// feature-engineered, see models/) networks rather than noise amplifiers.

#include <cstdint>

#include "zenesis/tensor/tensor.hpp"

namespace zenesis::tensor {

/// Xavier/Glorot-uniform init for a [out, in] linear weight.
Tensor xavier_uniform(std::int64_t out, std::int64_t in, std::uint64_t seed,
                      std::uint64_t layer_id);

/// Zero bias of length n.
Tensor zeros(std::int64_t n);

/// All-ones vector of length n (layernorm gain).
Tensor ones(std::int64_t n);

/// Sinusoidal positional embeddings [length, dim] (transformer standard).
Tensor sinusoidal_positions(std::int64_t length, std::int64_t dim);

/// 2-D sinusoidal positional embeddings for an h x w patch grid → [h*w, dim].
/// dim must be divisible by 4.
Tensor sinusoidal_positions_2d(std::int64_t h, std::int64_t w,
                               std::int64_t dim);

}  // namespace zenesis::tensor
