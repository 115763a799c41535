// Numeric kernel tests: matmul, softmax, layernorm, attention, bilinear
// resize et al.
#include <gtest/gtest.h>

#include <cmath>

#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zt = zenesis::tensor;

TEST(Matmul, SmallKnownProduct) {
  zt::Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  zt::Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  zt::Tensor c = zt::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNeutral) {
  zt::Tensor a({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  zt::Tensor eye({3, 3});
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  zt::Tensor c = zt::matmul(a, eye);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(c.at(i, j), a.at(i, j));
  }
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  zt::Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(zt::matmul(a, b), std::invalid_argument);
}

TEST(MatmulNt, AgreesWithExplicitTranspose) {
  zt::Tensor a = zt::xavier_uniform(5, 7, 1, 1);
  zt::Tensor b = zt::xavier_uniform(4, 7, 1, 2);
  zt::Tensor direct = zt::matmul_nt(a, b);
  zt::Tensor via_t = zt::matmul(a, zt::transpose(b));
  ASSERT_EQ(direct.shape(), via_t.shape());
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct.flat()[static_cast<std::size_t>(i)],
                via_t.flat()[static_cast<std::size_t>(i)], 1e-5f);
  }
}

TEST(Linear, AddsBias) {
  zt::Tensor x({1, 2}, {1.0f, 1.0f});
  zt::Tensor w({3, 2}, {1, 0, 0, 1, 1, 1});
  zt::Tensor b({3}, {10.0f, 20.0f, 30.0f});
  zt::Tensor y = zt::linear(x, w, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 32.0f);
}

TEST(SoftmaxRows, RowsSumToOne) {
  zt::Tensor a = zt::xavier_uniform(10, 32, 3, 3);
  zt::softmax_rows(a);
  for (std::int64_t i = 0; i < 10; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 32; ++j) {
      EXPECT_GE(a.at(i, j), 0.0f);
      sum += a.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxRows, InvariantToRowShift) {
  zt::Tensor a({1, 3}, {1.0f, 2.0f, 3.0f});
  zt::Tensor b({1, 3}, {101.0f, 102.0f, 103.0f});
  zt::softmax_rows(a);
  zt::softmax_rows(b);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.at(0, j), b.at(0, j), 1e-6f);
}

TEST(SoftmaxRows, LargeValuesDoNotOverflow) {
  zt::Tensor a({1, 2}, {1000.0f, 999.0f});
  zt::softmax_rows(a);
  EXPECT_TRUE(std::isfinite(a.at(0, 0)));
  EXPECT_GT(a.at(0, 0), a.at(0, 1));
}

TEST(LayernormRows, ProducesZeroMeanUnitVar) {
  zt::Tensor a = zt::xavier_uniform(4, 64, 5, 5);
  zt::scale_inplace(a, 10.0f);
  zt::layernorm_rows(a, zt::ones(64), zt::zeros(64));
  for (std::int64_t i = 0; i < 4; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (std::int64_t j = 0; j < 64; ++j) mean += a.at(i, j);
    mean /= 64.0f;
    for (std::int64_t j = 0; j < 64; ++j) {
      var += (a.at(i, j) - mean) * (a.at(i, j) - mean);
    }
    var /= 64.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayernormRows, GainAndBiasApply) {
  zt::Tensor a({1, 2}, {-1.0f, 1.0f});
  zt::Tensor g({2}, {2.0f, 2.0f});
  zt::Tensor b({2}, {5.0f, 5.0f});
  zt::layernorm_rows(a, g, b);
  EXPECT_NEAR(a.at(0, 0), 5.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(a.at(0, 1), 5.0f + 2.0f, 1e-3f);
}

TEST(Gelu, KnownValues) {
  zt::Tensor a({1, 3}, {0.0f, 100.0f, -100.0f});
  zt::gelu_inplace(a);
  EXPECT_NEAR(a.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(a.at(0, 1), 100.0f, 1e-3f);
  EXPECT_NEAR(a.at(0, 2), 0.0f, 1e-3f);
}

TEST(Attention, UniformKeysYieldMeanOfValues) {
  // All keys identical → softmax uniform → output = mean of values.
  zt::Tensor q({1, 4}, {1, 0, 0, 0});
  zt::Tensor k({3, 4});  // all zero keys → identical logits
  zt::Tensor v({3, 2}, {0, 0, 3, 3, 6, 6});
  zt::Tensor o = zt::attention(q, k, v);
  EXPECT_NEAR(o.at(0, 0), 3.0f, 1e-5f);
  EXPECT_NEAR(o.at(0, 1), 3.0f, 1e-5f);
}

TEST(Attention, SharpKeySelectsItsValue) {
  zt::Tensor q({1, 2}, {50.0f, 0.0f});
  zt::Tensor k({2, 2}, {1.0f, 0.0f, -1.0f, 0.0f});
  zt::Tensor v({2, 1}, {7.0f, -7.0f});
  zt::Tensor o = zt::attention(q, k, v);
  EXPECT_NEAR(o.at(0, 0), 7.0f, 1e-3f);
}

TEST(MultiheadAttention, SingleHeadMatchesPlainAttention) {
  zt::Tensor q = zt::xavier_uniform(5, 8, 7, 1);
  zt::Tensor k = zt::xavier_uniform(6, 8, 7, 2);
  zt::Tensor v = zt::xavier_uniform(6, 8, 7, 3);
  zt::Tensor a = zt::attention(q, k, v);
  zt::Tensor m = zt::multihead_attention(q, k, v, 1);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.flat()[static_cast<std::size_t>(i)],
                m.flat()[static_cast<std::size_t>(i)], 1e-5f);
  }
}

TEST(MultiheadAttention, OutputShape) {
  zt::Tensor q = zt::xavier_uniform(5, 8, 7, 1);
  zt::Tensor k = zt::xavier_uniform(6, 8, 7, 2);
  zt::Tensor v = zt::xavier_uniform(6, 8, 7, 3);
  zt::Tensor m = zt::multihead_attention(q, k, v, 4);
  EXPECT_EQ(m.dim(0), 5);
  EXPECT_EQ(m.dim(1), 8);
}

TEST(MeanRows, AveragesColumns) {
  zt::Tensor a({2, 2}, {1, 2, 3, 4});
  zt::Tensor m = zt::mean_rows(a);
  EXPECT_FLOAT_EQ(m.at(0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1), 3.0f);
}

TEST(Init, XavierDeterministicPerLayerId) {
  zt::Tensor a = zt::xavier_uniform(4, 4, 42, 1);
  zt::Tensor b = zt::xavier_uniform(4, 4, 42, 1);
  zt::Tensor c = zt::xavier_uniform(4, 4, 42, 2);
  EXPECT_EQ(a.flat()[0], b.flat()[0]);
  EXPECT_NE(a.flat()[0], c.flat()[0]);
}

TEST(Init, SinusoidalPositionsBounded) {
  zt::Tensor p = zt::sinusoidal_positions(16, 8);
  for (float v : p.flat()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Init, Sinusoidal2dDistinguishesPositions) {
  zt::Tensor p = zt::sinusoidal_positions_2d(4, 4, 16);
  // (0,0) and (3,3) must differ.
  float diff = 0.0f;
  for (std::int64_t j = 0; j < 16; ++j) {
    diff += std::fabs(p.at(0, j) - p.at(15, j));
  }
  EXPECT_GT(diff, 0.1f);
}

TEST(ResizeBilinear, ConstantImageStaysConstant) {
  zt::Tensor in({1, 4, 4});
  in.fill(2.5f);
  zt::Tensor out = zt::resize_bilinear(in, 9, 7);
  EXPECT_EQ(out.dim(1), 9);
  EXPECT_EQ(out.dim(2), 7);
  for (float v : out.flat()) EXPECT_NEAR(v, 2.5f, 1e-6f);
}

TEST(ResizeBilinear, UpscalePreservesGradientDirection) {
  zt::Tensor in({1, 1, 3}, {0.0f, 1.0f, 2.0f});
  zt::Tensor out = zt::resize_bilinear(in, 1, 9);
  for (std::int64_t x = 1; x < 9; ++x) {
    EXPECT_GE(out.at(0, 0, x), out.at(0, 0, x - 1) - 1e-6f);
  }
}

TEST(ResizeBilinear, IdentitySizeIsExact) {
  zt::Tensor in({2, 5, 6});
  float ramp = 0.0f;
  for (float& x : in.flat()) x = ramp++;
  zt::Tensor out = zt::resize_bilinear(in, 5, 6);
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    EXPECT_NEAR(out.flat()[static_cast<std::size_t>(i)],
                in.flat()[static_cast<std::size_t>(i)], 1e-5f);
  }
}
