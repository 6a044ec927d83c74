#include "test_util.hpp"

#include <unistd.h>

#include <filesystem>

#include "src/common/rng.hpp"

namespace memhd::testing {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

data::TrainTestSplit tiny_multimodal(std::uint64_t seed,
                                     std::size_t train_per_class,
                                     std::size_t test_per_class) {
  data::SyntheticConfig cfg;
  cfg.name = "tiny-multimodal";
  cfg.num_classes = 4;
  cfg.num_features = 64;
  cfg.latent_dim = 8;
  cfg.modes_per_class = 3;
  cfg.class_separation = 5.0;
  cfg.mode_spread = 3.0;
  cfg.within_mode_stddev = 0.8;
  cfg.train_per_class = train_per_class;
  cfg.test_per_class = test_per_class;
  common::Rng rng(seed);
  return data::generate_synthetic(cfg, rng);
}

data::TrainTestSplit tiny_hard_multimodal(std::uint64_t seed,
                                          std::size_t train_per_class,
                                          std::size_t test_per_class) {
  data::SyntheticConfig cfg;
  cfg.name = "tiny-hard-multimodal";
  cfg.num_classes = 4;
  cfg.num_features = 64;
  cfg.latent_dim = 10;
  cfg.modes_per_class = 4;
  cfg.class_separation = 1.2;   // centers nearly coincide ...
  cfg.mode_spread = 4.5;        // ... while modes scatter far
  cfg.within_mode_stddev = 0.7;
  cfg.train_per_class = train_per_class;
  cfg.test_per_class = test_per_class;
  common::Rng rng(seed);
  return data::generate_synthetic(cfg, rng);
}

data::TrainTestSplit tiny_separable(std::uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.name = "tiny-separable";
  cfg.num_classes = 3;
  cfg.num_features = 32;
  cfg.latent_dim = 6;
  cfg.modes_per_class = 1;
  cfg.class_separation = 8.0;
  cfg.mode_spread = 0.5;
  cfg.within_mode_stddev = 0.5;
  cfg.train_per_class = 40;
  cfg.test_per_class = 20;
  common::Rng rng(seed);
  return data::generate_synthetic(cfg, rng);
}

hdc::EncodedDataset random_encoded(std::size_t n, std::size_t dim,
                                   std::size_t num_classes,
                                   std::uint64_t seed) {
  common::Rng rng(seed);
  hdc::EncodedDataset ds;
  ds.dim = dim;
  ds.num_classes = num_classes;
  ds.hypervectors.reserve(n);
  ds.labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ds.hypervectors.push_back(common::BitVector::random(dim, rng));
    ds.labels.push_back(static_cast<data::Label>(i % num_classes));
  }
  return ds;
}

hdc::EncodedDataset clustered_encoded(std::size_t per_class, std::size_t dim,
                                      std::size_t num_classes,
                                      std::size_t modes,
                                      std::size_t noise_bits,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  hdc::EncodedDataset ds;
  ds.dim = dim;
  ds.num_classes = num_classes;

  std::vector<common::BitVector> prototypes;
  prototypes.reserve(num_classes * modes);
  for (std::size_t c = 0; c < num_classes * modes; ++c)
    prototypes.push_back(common::BitVector::random(dim, rng));

  for (std::size_t c = 0; c < num_classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t mode = rng.uniform_index(modes);
      common::BitVector hv = prototypes[c * modes + mode];
      for (std::size_t b = 0; b < noise_bits; ++b)
        hv.flip(rng.uniform_index(dim));
      ds.hypervectors.push_back(std::move(hv));
      ds.labels.push_back(static_cast<data::Label>(c));
    }
  }
  return ds;
}

std::string hex_prefix(const std::string& bytes, std::size_t n) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::size_t i = 0; i < n && i < bytes.size(); ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

}  // namespace memhd::testing
