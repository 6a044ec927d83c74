// Ultra-high-D smoke test: a rematerialized encoder makes D = 262144
// practical — the materialized plane for 32 features at that D would keep
// 1 MB of packed signs resident; the rematerialized one holds a seed.
// Exercises the full fit + predict path, not just the encoder.
#include <gtest/gtest.h>

#include "src/core/model.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

TEST(LargeDim, RematFitAndPredictAtQuarterMillionD) {
  const auto split = testing::tiny_separable();
  MemhdConfig cfg;
  cfg.dim = 262144;
  cfg.columns = 6;
  // Random-sampling init: K-means over quarter-million-bit vectors is
  // training-machine work, not unit-test work.
  cfg.init = InitMethod::kRandomSampling;
  cfg.epochs = 1;
  cfg.basis = hdc::BasisKind::kRematerialized;
  cfg.seed = 3;

  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  EXPECT_LE(model.encoder().resident_bytes(), 64u);
  EXPECT_EQ(model.memory_bits(),
            split.train.num_features() * cfg.dim + cfg.columns * cfg.dim);

  model.fit(split.train);
  // Trivially separable task at huge D: anything short of near-perfect
  // accuracy means the encoder plane is broken, not that tuning is off.
  EXPECT_GE(model.evaluate(split.test), 0.9);
}

}  // namespace
}  // namespace memhd::core
