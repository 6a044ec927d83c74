// K-means with a pluggable assignment metric.
//
// MEMHD's clustering-based initialization (paper §III-A-1) runs K-means on
// each class's encoded hypervectors with *dot similarity* as the assignment
// metric — the same metric the associative search uses — so that the
// resulting centroids are optimized for the search that will consume them.
// Euclidean and cosine metrics are provided for comparison and tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/matrix.hpp"

namespace memhd::common {
class Rng;
}

namespace memhd::clustering {

enum class Metric {
  kDotSimilarity,  // assign to argmax c . x     (paper's choice)
  kEuclidean,      // assign to argmin |c - x|^2
  kCosine,         // assign to argmax (c . x)/(|c||x|)
};

enum class Seeding {
  kRandomSamples,  // k distinct samples
  kKMeansPlusPlus, // D^2-weighted (distance proxy: squared Euclidean)
};

struct KMeansConfig {
  std::size_t k = 8;
  Metric metric = Metric::kDotSimilarity;
  Seeding seeding = Seeding::kKMeansPlusPlus;
  std::size_t max_iterations = 50;
  /// Stop when fewer than `min_reassigned` samples change cluster.
  std::size_t min_reassigned = 1;
};

struct KMeansResult {
  common::Matrix centroids;             // k x dim
  std::vector<std::uint32_t> assignment;  // per sample, in [0, k)
  std::vector<std::size_t> cluster_sizes;
  /// Sum of squared Euclidean distances to assigned centroid (reported for
  /// every metric; it is the quantity k-means monotonically reduces under
  /// the Euclidean metric and a useful convergence proxy otherwise).
  double inertia = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Runs Lloyd's algorithm on the rows of `points`.
/// Requires points.rows() >= config.k >= 1.
/// Empty clusters are reseeded with the sample farthest from its centroid.
KMeansResult kmeans(const common::Matrix& points, const KMeansConfig& config,
                    common::Rng& rng);

/// Assignment step only: index of the best centroid for `x` under `metric`.
std::size_t assign_point(const common::Matrix& centroids,
                         std::span<const float> x, Metric metric);

/// Blocked batch assignment step: out[i] = assign_point(centroids,
/// points.row(i), metric) for every row of `points`. Centroids are
/// repacked into dimension-major lane tiles scored with one independent
/// accumulator per centroid lane — the same tile structure as the batched
/// AM search. Four points share each tile pass, and blocks of four fan out
/// across the thread pool even for clouds of a few hundred points. Every
/// lane reproduces the scalar kernel's float summation order and the
/// centroids are compared in ascending order with a strict-greater,
/// first-wins argmax, so the result is bit-identical to the per-point
/// loop regardless of thread count. `out.size()` must equal
/// points.rows(). This is the assignment kernel clustering::kmeans — and
/// through it every per-class clustering job in core::initializer — runs.
void assign_batch(const common::Matrix& centroids,
                  const common::Matrix& points, Metric metric,
                  std::span<std::uint32_t> out);

namespace detail {

/// D^2-weighted sampling pick for k-means++ seeding: smallest index whose
/// running cumulative weight reaches `r` (over positive-weight entries).
/// When floating-point residue leaves r positive after the full scan — the
/// caller draws r = u * total with total accumulated in the same order,
/// but re-subtraction rounds differently — the pick falls back to the
/// *last* index with positive weight. (The pre-fix code silently returned
/// index 0 in that branch, selecting a point regardless of its distance —
/// typically one coinciding with an existing centroid, i.e. weight 0.)
std::size_t weighted_pick(std::span<const double> weights, double r);

}  // namespace detail

}  // namespace memhd::clustering
