#include "src/core/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/model.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

namespace fs = std::filesystem;

MemhdConfig small_config() {
  MemhdConfig cfg;
  cfg.dim = 128;
  cfg.columns = 12;
  cfg.epochs = 5;
  cfg.kmeans_max_iterations = 8;
  cfg.seed = 11;
  return cfg;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const auto split = testing::tiny_multimodal();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  const std::string path = testing::temp_path("memhd_roundtrip.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());

  // Bit-exact deployment: identical binary AM, owners, and predictions.
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t col = 0; col < model.am().columns(); ++col)
    EXPECT_EQ(loaded.am().owner(col), model.am().owner(col));
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(loaded.predict(split.test.sample(i)),
              model.predict(split.test.sample(i)));
}

TEST(Serialize, RoundTripPreservesConfig) {
  const auto split = testing::tiny_separable();
  auto cfg = small_config();
  cfg.initial_ratio = 0.65;
  cfg.learning_rate = 0.07f;
  cfg.normalization = NormalizationMode::kL2;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = testing::temp_path("memhd_config.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.config().dim, cfg.dim);
  EXPECT_EQ(loaded.config().columns, cfg.columns);
  EXPECT_DOUBLE_EQ(loaded.config().initial_ratio, 0.65);
  EXPECT_FLOAT_EQ(loaded.config().learning_rate, 0.07f);
  EXPECT_EQ(loaded.config().normalization, NormalizationMode::kL2);
  EXPECT_EQ(loaded.config().seed, cfg.seed);
  EXPECT_EQ(loaded.num_features(), split.train.num_features());
  EXPECT_EQ(loaded.num_classes(), split.train.num_classes());
}

TEST(Serialize, RoundTripPreservesFpShadow) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = testing::temp_path("memhd_fp.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.am().fp() == model.am().fp());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model("/nonexistent/missing.model"), std::runtime_error);
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = testing::temp_path("memhd_badmagic.model");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAMODELFILE_________";
  }
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string path = testing::temp_path("memhd_trunc.model");
  model.save(path);
  // Chop the file in half.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RematRoundTripPreservesEverything) {
  const auto split = testing::tiny_multimodal();
  auto cfg = small_config();
  cfg.basis = hdc::BasisKind::kRematerialized;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);

  const std::string path = testing::temp_path("memhd_remat.model");
  model.save(path);
  const MemhdModel loaded = MemhdModel::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.config().basis, hdc::BasisKind::kRematerialized);
  // The loaded encoder plane is seed-only, not a resident matrix.
  EXPECT_LE(loaded.encoder().resident_bytes(), 64u);
  EXPECT_TRUE(loaded.am().binary() == model.am().binary());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(loaded.predict(split.test.sample(i)),
              model.predict(split.test.sample(i)));

  // And the rematerialized model is interchangeable with a materialized
  // one trained identically (bit-identical encodings → identical AM).
  auto mcfg = cfg;
  mcfg.basis = hdc::BasisKind::kMaterialized;
  MemhdModel mat(mcfg, split.train.num_features(),
                 split.train.num_classes());
  mat.fit(split.train);
  EXPECT_TRUE(mat.am().binary() == loaded.am().binary());
}

std::string saved_bytes(const MemhdModel& model) {
  std::ostringstream out(std::ios::binary);
  save_model(model, out);
  return out.str();
}

void expect_load_error(const std::string& bytes, const std::string& needle) {
  testing::expect_load_error(bytes, needle,
                             [](auto& source) { load_model(source); });
}

TEST(Serialize, RetiredRevisionsThrowNamingTheRevision) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string bytes = saved_bytes(model);
  for (const std::string magic : {"MEMHD001", "MEMHD002"}) {
    std::string retired = bytes;
    retired.replace(0, 8, magic);
    expect_load_error(retired, "unsupported container revision " + magic);
  }
}

TEST(Serialize, DerivationByteOtherThanCounterStreamThrows) {
  // Offset 79 is the basis kind, 80 the derivation: 1 was the retired
  // sequential stream, anything above it was never written.
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  std::string bytes = saved_bytes(model);
  ASSERT_EQ(bytes[80], 0);
  bytes[80] = 1;
  expect_load_error(bytes, "unsupported basis derivation");
  bytes[80] = 2;
  expect_load_error(bytes, "corrupt basis bytes");
}

// Hex of the first `n` bytes a save_model call writes.
std::string header_hex(const MemhdModel& model, std::size_t n) {
  std::ostringstream out(std::ios::binary);
  save_model(model, out);
  return testing::hex_prefix(out.str(), n);
}

// The MEMHD003 header (magic through the cascade block, 115 bytes) is a
// function of the config and shape alone, so these pins are the same on
// every kernel backend and thread count. A change here breaks every saved
// model.
TEST(SerializeLayout, Memhd003HeaderWithCascadeOff) {
  const auto split = testing::tiny_separable();
  MemhdModel model(small_config(), split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string want =
      "4d454d4844303033"  // magic "MEMHD003"
      "8000000000000000"  // u64 dim 128
      "0c00000000000000"  // u64 columns 12
      "2000000000000000"  // u64 num_features 32
      "0300000000000000"  // u64 num_classes 3
      "0500000000000000"  // u64 epochs 5
      "0800000000000000"  // u64 kmeans_iters 8
      "0b00000000000000"  // u64 seed 11
      "cdccccccccccec3f"  // f64 initial_ratio 0.9
      "cdcc4c3d"          // f32 learning_rate 0.05
      "000002"            // u8 init, allocation, normalization (z-score)
      "0000"              // u8 basis (materialized), derivation (counter)
      "0001"              // u8 cascade enabled 0, mode 1 (threshold)
      "000000000000c03f"  // f64 sample_fraction 0.125
      "4000000000000000"  // u64 shortlist 64
      "0000000000000000"  // u64 early_exit_margin 0
      "deca050c00000000";  // u64 cascade seed 0xC05CADE
  EXPECT_EQ(header_hex(model, 115), want);
}

TEST(SerializeLayout, Memhd003HeaderWithThresholdCascade) {
  const auto split = testing::tiny_separable();
  auto cfg = small_config();
  cfg.cascade.enabled = true;
  cfg.cascade.sample_fraction = 0.375;
  cfg.cascade.shortlist = 9;
  cfg.cascade.early_exit_margin = 5;
  cfg.cascade.seed = 0xFEEDULL;
  MemhdModel model(cfg, split.train.num_features(),
                   split.train.num_classes());
  model.fit(split.train);
  const std::string want =
      "4d454d4844303033"  // magic "MEMHD003"
      "8000000000000000"  // u64 dim 128
      "0c00000000000000"  // u64 columns 12
      "2000000000000000"  // u64 num_features 32
      "0300000000000000"  // u64 num_classes 3
      "0500000000000000"  // u64 epochs 5
      "0800000000000000"  // u64 kmeans_iters 8
      "0b00000000000000"  // u64 seed 11
      "cdccccccccccec3f"  // f64 initial_ratio 0.9
      "cdcc4c3d"          // f32 learning_rate 0.05
      "000002"            // u8 init, allocation, normalization (z-score)
      "0000"              // u8 basis (materialized), derivation (counter)
      "0101"              // u8 cascade enabled 1, mode 1 (threshold)
      "000000000000d83f"  // f64 sample_fraction 0.375
      "0900000000000000"  // u64 shortlist 9
      "0500000000000000"  // u64 early_exit_margin 5
      "edfe000000000000";  // u64 cascade seed 0xFEED
  EXPECT_EQ(header_hex(model, 115), want);
}

TEST(Serialize, SaveUnfittedModelDies) {
  MemhdModel model(small_config(), 16, 4);
  EXPECT_DEATH(model.save(testing::temp_path("never.model")), "precondition");
}

}  // namespace
}  // namespace memhd::core
