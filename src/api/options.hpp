// One options struct for every model the registry can build.
//
// api::ModelOptions subsumes core::MemhdConfig and baselines::BaselineConfig
// so that benches, examples, and tests configure any of the five models from
// one code path (`api::make(name, features, classes, opts)`). Fields a model
// does not consume are ignored, mirroring BaselineConfig's contract.
#pragma once

#include <cstdint>
#include <cstddef>

#include "src/baselines/baseline.hpp"
#include "src/core/config.hpp"

namespace memhd::api {

struct ModelOptions {
  // Shared by every model.
  std::size_t dim = 1024;          // D: hypervector dimensionality
  std::size_t epochs = 20;         // training epochs (0 = single-pass only)
  float learning_rate = 0.05f;
  std::uint64_t seed = 1;
  /// Projection models (MEMHD / BasicHDC): keep the encoder plane resident
  /// (kMaterialized) or regenerate it from the seed with O(1) memory
  /// (kRematerialized). Bit-identical outputs either way; ID-Level models
  /// ignore it.
  hdc::BasisKind basis = hdc::BasisKind::kMaterialized;

  // MEMHD only.
  std::size_t columns = 0;         // C: total centroids; 0 = square (C = D)
  double initial_ratio = 0.9;      // R
  core::InitMethod init = core::InitMethod::kClustering;
  core::AllocationPolicy allocation = core::AllocationPolicy::kProportional;
  core::NormalizationMode normalization = core::NormalizationMode::kZScore;
  std::size_t kmeans_max_iterations = 25;

  // MEMHD coarse-to-fine search cascade (src/search/README.md). Off by
  // default; when on, predict/predict_batch prune the C-centroid search
  // to a prescreened shortlist, trading exact identity for speed.
  bool cascade = false;
  double cascade_sample_fraction = 0.125;  // share of words prescreened
  std::size_t cascade_shortlist = 64;      // stage-2 rescore budget
  std::size_t cascade_early_exit_margin = 0;  // bits; 0 = no early exit

  // ID-Level encoders (QuantHD / SearcHD / LeHDC).
  std::size_t num_levels = 256;    // L

  // SearcHD only.
  std::size_t n_models = 64;       // N

  core::MemhdConfig memhd() const {
    core::MemhdConfig cfg;
    cfg.dim = dim;
    cfg.columns = columns == 0 ? dim : columns;
    cfg.initial_ratio = initial_ratio;
    cfg.init = init;
    cfg.allocation = allocation;
    cfg.normalization = normalization;
    cfg.epochs = epochs;
    cfg.learning_rate = learning_rate;
    cfg.kmeans_max_iterations = kmeans_max_iterations;
    cfg.seed = seed;
    cfg.basis = basis;
    cfg.cascade.enabled = cascade;
    cfg.cascade.sample_fraction = cascade_sample_fraction;
    cfg.cascade.shortlist = cascade_shortlist;
    cfg.cascade.early_exit_margin = cascade_early_exit_margin;
    // Word sampling derives from the model seed (and is persisted), so two
    // models built from the same options prescreen the same words.
    cfg.cascade.seed = seed ^ 0xCA5CADEULL;
    return cfg;
  }

  baselines::BaselineConfig baseline() const {
    baselines::BaselineConfig cfg;
    cfg.dim = dim;
    cfg.epochs = epochs;
    cfg.learning_rate = learning_rate;
    cfg.num_levels = num_levels;
    cfg.n_models = n_models;
    cfg.seed = seed;
    cfg.basis = basis;
    return cfg;
  }
};

}  // namespace memhd::api
