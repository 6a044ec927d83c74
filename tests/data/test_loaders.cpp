#include "src/data/loaders.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "src/common/rng.hpp"
#include "test_util.hpp"

namespace memhd::data {
namespace {

namespace fs = std::filesystem;

void write_be_u32(std::ofstream& out, std::uint32_t v) {
  const unsigned char b[4] = {
      static_cast<unsigned char>(v >> 24), static_cast<unsigned char>(v >> 16),
      static_cast<unsigned char>(v >> 8), static_cast<unsigned char>(v)};
  out.write(reinterpret_cast<const char*>(b), 4);
}

void write_idx_images(const fs::path& path, std::uint32_t n,
                      std::uint32_t rows, std::uint32_t cols) {
  std::ofstream out(path, std::ios::binary);
  write_be_u32(out, 0x00000803);
  write_be_u32(out, n);
  write_be_u32(out, rows);
  write_be_u32(out, cols);
  for (std::uint32_t i = 0; i < n * rows * cols; ++i) {
    const unsigned char px = static_cast<unsigned char>(i % 256);
    out.write(reinterpret_cast<const char*>(&px), 1);
  }
}

void write_idx_labels(const fs::path& path, std::uint32_t n) {
  std::ofstream out(path, std::ios::binary);
  write_be_u32(out, 0x00000801);
  write_be_u32(out, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const unsigned char l = static_cast<unsigned char>(i % 10);
    out.write(reinterpret_cast<const char*>(&l), 1);
  }
}

class LoadersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::temp_path("memhd_loader_test");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(LoadersTest, IdxImageRoundTrip) {
  const auto path = dir_ / "imgs";
  write_idx_images(path, 3, 2, 2);
  const auto m = load_idx_images(path.string());
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 1.0f / 255.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 4.0f / 255.0f);
}

TEST_F(LoadersTest, IdxLabelRoundTrip) {
  const auto path = dir_ / "labels";
  write_idx_labels(path, 12);
  const auto labels = load_idx_labels(path.string());
  ASSERT_EQ(labels.size(), 12u);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[11], 1);
}

TEST_F(LoadersTest, IdxBadMagicThrows) {
  const auto path = dir_ / "bad";
  std::ofstream out(path, std::ios::binary);
  write_be_u32(out, 0xDEADBEEF);
  write_be_u32(out, 0);
  write_be_u32(out, 0);
  write_be_u32(out, 0);
  out.close();
  EXPECT_THROW(load_idx_images(path.string()), std::runtime_error);
  EXPECT_THROW(load_idx_labels(path.string()), std::runtime_error);
}

TEST_F(LoadersTest, IdxTruncatedThrows) {
  const auto path = dir_ / "trunc";
  {
    std::ofstream out(path, std::ios::binary);
    write_be_u32(out, 0x00000803);
    write_be_u32(out, 5);
    write_be_u32(out, 28);
    write_be_u32(out, 28);
    // no pixel data
  }
  EXPECT_THROW(load_idx_images(path.string()), std::runtime_error);
}

TEST_F(LoadersTest, MnistDirectoryLayout) {
  write_idx_images(dir_ / "train-images-idx3-ubyte", 4, 2, 2);
  write_idx_labels(dir_ / "train-labels-idx1-ubyte", 4);
  write_idx_images(dir_ / "t10k-images-idx3-ubyte", 2, 2, 2);
  write_idx_labels(dir_ / "t10k-labels-idx1-ubyte", 2);
  const auto split = load_mnist_dir(dir_.string(), "mnist");
  EXPECT_EQ(split.train.size(), 4u);
  EXPECT_EQ(split.test.size(), 2u);
  EXPECT_EQ(split.train.num_classes(), 10u);
}

TEST_F(LoadersTest, IsoletCsv) {
  {
    std::ofstream out(dir_ / "isolet1+2+3+4.data");
    out << "0.1,0.2,0.3,1.\n0.4,0.5,0.6,26.\n";
  }
  {
    std::ofstream out(dir_ / "isolet5.data");
    out << "0.7,0.8,0.9,2.\n";
  }
  const auto split = load_isolet_dir(dir_.string());
  EXPECT_EQ(split.train.size(), 2u);
  EXPECT_EQ(split.train.num_features(), 3u);
  EXPECT_EQ(split.train.label(0), 0);   // 1-based -> 0-based
  EXPECT_EQ(split.train.label(1), 25);
  EXPECT_EQ(split.test.label(0), 1);
  EXPECT_FLOAT_EQ(split.test.features()(0, 2), 0.9f);
}

TEST_F(LoadersTest, RealDataAvailabilityProbe) {
  EXPECT_FALSE(real_data_available("mnist", dir_.string()));
  write_idx_images(dir_ / "train-images-idx3-ubyte", 1, 1, 1);
  write_idx_images(dir_ / "t10k-images-idx3-ubyte", 1, 1, 1);
  EXPECT_TRUE(real_data_available("mnist", dir_.string()));
  EXPECT_FALSE(real_data_available("unknown", dir_.string()));
  EXPECT_FALSE(real_data_available("mnist", ""));
}

TEST_F(LoadersTest, FallsBackToSyntheticWhenMissing) {
  common::Rng rng(1);
  const auto split = load_or_synthesize("isolet", Scale::kBench, rng,
                                        (dir_ / "empty").string());
  EXPECT_EQ(split.train.num_classes(), 26u);
  EXPECT_EQ(split.train.num_features(), 617u);
}

}  // namespace
}  // namespace memhd::data
