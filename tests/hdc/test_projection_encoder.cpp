#include "src/hdc/projection_encoder.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "test_util.hpp"

namespace memhd::hdc {
namespace {

ProjectionEncoderConfig make_config(std::size_t f = 32, std::size_t d = 256,
                                    std::uint64_t seed = 1) {
  ProjectionEncoderConfig cfg;
  cfg.num_features = f;
  cfg.dim = d;
  cfg.seed = seed;
  return cfg;
}

std::vector<float> random_features(std::size_t f, common::Rng& rng) {
  std::vector<float> x(f);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  return x;
}

TEST(ProjectionEncoder, OutputShape) {
  const ProjectionEncoder enc(make_config());
  common::Rng rng(2);
  const auto hv = enc.encode(random_features(32, rng));
  EXPECT_EQ(hv.size(), 256u);
}

TEST(ProjectionEncoder, DeterministicAcrossInstances) {
  const ProjectionEncoder a(make_config(32, 256, 77));
  const ProjectionEncoder b(make_config(32, 256, 77));
  common::Rng rng(3);
  const auto x = random_features(32, rng);
  EXPECT_TRUE(a.encode(x) == b.encode(x));
  EXPECT_TRUE(a.basis().em_tile(0, 32, 0, 256) ==
              b.basis().em_tile(0, 32, 0, 256));
}

TEST(ProjectionEncoder, SeedChangesMatrix) {
  const ProjectionEncoder a(make_config(32, 256, 1));
  const ProjectionEncoder b(make_config(32, 256, 2));
  EXPECT_FALSE(a.basis().em_tile(0, 32, 0, 256) ==
               b.basis().em_tile(0, 32, 0, 256));
}

TEST(ProjectionEncoder, SignMatrixRoughlyBalanced) {
  const ProjectionEncoder enc(make_config(64, 1024));
  const double density =
      static_cast<double>(enc.basis().em_tile(0, 64, 0, 1024).popcount()) /
      (64.0 * 1024.0);
  EXPECT_NEAR(density, 0.5, 0.02);
}

TEST(ProjectionEncoder, SampleMeanBinarizationBalancesBits) {
  // Thresholding at the per-sample mean keeps roughly half the bits set,
  // which is what makes binary dot similarity informative.
  const ProjectionEncoder enc(make_config(64, 2048));
  common::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto hv = enc.encode(random_features(64, rng));
    const double density = static_cast<double>(hv.popcount()) / 2048.0;
    EXPECT_NEAR(density, 0.5, 0.1);
  }
}

TEST(ProjectionEncoder, ProjectMatchesManualMvm) {
  const auto cfg = make_config(8, 16);
  const ProjectionEncoder enc(cfg);
  common::Rng rng(7);
  const auto x = random_features(8, rng);
  const auto h = enc.project(x);
  ASSERT_EQ(h.size(), 16u);
  const auto signs = enc.basis().em_tile(0, 8, 0, 16);  // cell (f, d)
  for (std::size_t d = 0; d < 16; ++d) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < 8; ++i)
      acc += (signs.get(i, d) ? 1.0f : -1.0f) * x[i];
    EXPECT_EQ(h[d], acc);
  }
}

TEST(ProjectionEncoder, SimilarInputsGetSimilarCodes) {
  const ProjectionEncoder enc(make_config(64, 1024));
  common::Rng rng(9);
  const auto x = random_features(64, rng);
  auto near = x;
  for (auto& v : near) v += 0.01f * static_cast<float>(rng.normal());
  auto far = random_features(64, rng);
  const auto hx = enc.encode(x);
  EXPECT_LT(hx.hamming(enc.encode(near)), hx.hamming(enc.encode(far)));
}

TEST(ProjectionEncoder, EncodeDatasetMatchesPerSampleEncode) {
  const auto split = testing::tiny_separable();
  ProjectionEncoderConfig cfg;
  cfg.num_features = split.train.num_features();
  cfg.dim = 128;
  const ProjectionEncoder enc(cfg);
  const auto encoded = enc.encode_dataset(split.train);
  ASSERT_EQ(encoded.size(), split.train.size());
  EXPECT_EQ(encoded.dim, 128u);
  EXPECT_EQ(encoded.num_classes, split.train.num_classes());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(encoded.hypervectors[i] == enc.encode(split.train.sample(i)));
    EXPECT_EQ(encoded.labels[i], split.train.label(i));
  }
}

TEST(ProjectionEncoder, MemoryBitsIsTableOneFormula) {
  const ProjectionEncoder enc(make_config(784, 10240));
  EXPECT_EQ(enc.memory_bits(), 784u * 10240u);
}

TEST(ProjectionEncoder, ZeroThresholdMode) {
  auto cfg = make_config(16, 64);
  cfg.binarize = BinarizeMode::kZeroThreshold;
  const ProjectionEncoder enc(cfg);
  common::Rng rng(11);
  const auto x = random_features(16, rng);
  const auto h = enc.project(x);
  const auto hv = enc.encode(x);
  for (std::size_t d = 0; d < 64; ++d) EXPECT_EQ(hv.get(d), h[d] > 0.0f);
}

}  // namespace
}  // namespace memhd::hdc
