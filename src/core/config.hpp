// Configuration types shared across the MEMHD core.
#pragma once

#include <cstdint>
#include <cstddef>

#include "src/hdc/basis_provider.hpp"
#include "src/search/cascade_config.hpp"

namespace memhd::core {

/// Per-centroid renormalization applied between the FP update and the
/// binary refresh (paper §III-C step 4: "ensures an even distribution of
/// learning influence across multiple class vectors within the same class").
/// The paper does not pin down the operator; z-score is the library default
/// and the choice is ablated in bench_ablation_normalization.
enum class NormalizationMode {
  kNone,    // skip (pure QuantHD behaviour)
  kL2,      // each centroid scaled to unit L2 norm
  kZScore,  // each centroid centred and scaled to unit variance (default)
};

/// How the cluster-allocation loop (paper §III-A-2) hands out the remaining
/// C(1-R) columns each validation round.
enum class AllocationPolicy {
  /// Distribute the whole remainder proportionally to per-class error
  /// counts each round (few rounds; the default).
  kProportional,
  /// One column per round to the single worst class (the most literal
  /// reading of the paper; many rounds, ablated).
  kGreedyOne,
  /// No confusion-driven allocation: spread the remaining columns evenly
  /// (ablation control).
  kEven,
};

/// Initial centroid placement (paper Fig. 5 compares these).
enum class InitMethod {
  kClustering,      // class-wise K-means (the contribution)
  kRandomSampling,  // random sample hypervectors as centroids (baseline)
};

/// Top-level MEMHD hyperparameters. "DxC" in the paper maps to
/// {dim} x {columns} here; columns is the total number of centroids and is
/// chosen to equal the IMC array's column count for full utilization.
struct MemhdConfig {
  std::size_t dim = 128;          // D: hypervector dimensionality
  std::size_t columns = 128;      // C: total centroids across all classes
  double initial_ratio = 0.9;     // R: share of columns placed by clustering
  InitMethod init = InitMethod::kClustering;
  AllocationPolicy allocation = AllocationPolicy::kProportional;
  NormalizationMode normalization = NormalizationMode::kZScore;
  std::size_t epochs = 100;       // QAT epochs after initialization
  float learning_rate = 0.05f;    // paper: 0.01 - 0.1 depending on dataset
  std::size_t kmeans_max_iterations = 25;
  std::uint64_t seed = 1;
  /// Where the encoder's sign plane lives: resident (packed bits) or
  /// rematerialized on the fly from the seed with O(1) memory.
  /// Never changes model outputs — see src/hdc/basis_provider.hpp.
  hdc::BasisKind basis = hdc::BasisKind::kMaterialized;
  /// Coarse-to-fine associative search (src/search/): when enabled, batch
  /// and single-query prediction route through a two-stage cascade —
  /// bit-sampled prescreen, exact rescore of the shortlist — instead of
  /// exhaustive scoring of all C centroids. Persisted in MEMHD003
  /// containers; disabled is the pre-cascade behaviour.
  search::CascadeConfig cascade;
};

}  // namespace memhd::core
