#include "src/clustering/kmeans.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"

namespace memhd::clustering {

namespace {

using common::Matrix;
using common::Rng;

double point_score(std::span<const float> centroid, std::span<const float> x,
                   Metric metric) {
  switch (metric) {
    case Metric::kDotSimilarity:
      return common::dot(centroid, x);
    case Metric::kEuclidean:
      return -static_cast<double>(common::squared_distance(centroid, x));
    case Metric::kCosine: {
      const float nc = common::norm(centroid);
      const float nx = common::norm(x);
      if (nc == 0.0f || nx == 0.0f) return -1.0;
      return common::dot(centroid, x) / (static_cast<double>(nc) * nx);
    }
  }
  return 0.0;
}

Matrix seed_random(const Matrix& points, std::size_t k, Rng& rng) {
  const auto idx = rng.sample_without_replacement(points.rows(), k);
  Matrix centroids(k, points.cols());
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = points.row(idx[c]);
    std::copy(src.begin(), src.end(), centroids.row(c).begin());
  }
  return centroids;
}

Matrix seed_kmeanspp(const Matrix& points, std::size_t k, Rng& rng) {
  const std::size_t n = points.rows();
  Matrix centroids(k, points.cols());
  // First centroid: uniform.
  std::size_t first = static_cast<std::size_t>(rng.uniform_index(n));
  {
    const auto src = points.row(first);
    std::copy(src.begin(), src.end(), centroids.row(0).begin());
  }
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  for (std::size_t c = 1; c < k; ++c) {
    // Refresh distances against the newest centroid.
    const auto latest = centroids.row(c - 1);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d =
          static_cast<double>(common::squared_distance(points.row(i), latest));
      d2[i] = std::min(d2[i], d);
      total += d2[i];
    }
    std::size_t chosen = 0;
    if (total <= 0.0) {
      chosen = static_cast<std::size_t>(rng.uniform_index(n));
    } else {
      chosen = detail::weighted_pick(d2, rng.uniform() * total);
    }
    const auto src = points.row(chosen);
    std::copy(src.begin(), src.end(), centroids.row(c).begin());
  }
  return centroids;
}

}  // namespace

std::size_t assign_point(const Matrix& centroids, std::span<const float> x,
                         Metric metric) {
  MEMHD_EXPECTS(centroids.rows() > 0);
  std::size_t best = 0;
  double best_score = point_score(centroids.row(0), x, metric);
  for (std::size_t c = 1; c < centroids.rows(); ++c) {
    const double s = point_score(centroids.row(c), x, metric);
    if (s > best_score) {
      best_score = s;
      best = c;
    }
  }
  return best;
}

void assign_batch(const Matrix& centroids, const Matrix& points,
                  Metric metric, std::span<std::uint32_t> out) {
  MEMHD_EXPECTS(centroids.rows() > 0);
  MEMHD_EXPECTS(centroids.cols() == points.cols());
  MEMHD_EXPECTS(out.size() == points.rows());
  const std::size_t n = points.rows();
  const std::size_t k = centroids.rows();
  const std::size_t dim = centroids.cols();

  // The scalar kernels (common::dot / squared_distance) are serial float
  // reductions — one dependent add per dimension, which the compiler must
  // not reorder. The batch path instead tiles the centroids kLanes at a
  // time in dimension-major (transposed) layout and keeps one independent
  // float accumulator per lane: every lane reproduces the scalar kernel's
  // summation order exactly (same float adds, same sequence), so the
  // scores — and the strict-greater, ascending-centroid argmax — are
  // bit-identical to assign_point. kPointBlock points share each tile
  // pass with their own lanes, so the dimension loop carries kPointBlock
  // independent add chains per centroid lane instead of one.
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kPointBlock = 4;
  // kLanes floats with lane-wise IEEE arithmetic (a GNU vector, like the
  // rest of the library's GCC/Clang-only code). Spelled as a vector so the
  // compiler vectorizes across lanes: with plain per-lane arrays it
  // vectorized the dimension loop as an in-order reduction instead, no
  // faster than the scalar kernel.
  typedef float LaneVec
      __attribute__((vector_size(kLanes * sizeof(float)), aligned(4)));
  const std::size_t tiles = (k + kLanes - 1) / kLanes;
  std::vector<float> tiled(tiles * dim * kLanes, 0.0f);
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = centroids.row(c);
    const std::size_t t = c / kLanes;
    const std::size_t lane = c % kLanes;
    for (std::size_t j = 0; j < dim; ++j)
      tiled[(t * dim + j) * kLanes + lane] = row[j];
  }
  // Cosine hoists the per-centroid norms out of the pair loop; norm() is
  // deterministic, so the per-pair values are unchanged.
  std::vector<float> centroid_norm;
  if (metric == Metric::kCosine) {
    centroid_norm.resize(k);
    for (std::size_t c = 0; c < k; ++c)
      centroid_norm[c] = common::norm(centroids.row(c));
  }

  // Point blocks are independent (each writes only its own out[i]), so
  // they fan out across the pool from two blocks up: a per-class cloud of
  // a few hundred points is still split. Results do not depend on the
  // split.
  const std::size_t blocks = (n + kPointBlock - 1) / kPointBlock;
  common::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t i0 = b * kPointBlock;
        const std::size_t count = std::min(kPointBlock, n - i0);
        // A short last block re-scores its final point in the spare slots;
        // only the first `count` slots are read back.
        std::array<const float*, kPointBlock> x;
        std::array<float, kPointBlock> x_norm{};
        for (std::size_t p = 0; p < kPointBlock; ++p) {
          const auto row = points.row(i0 + std::min(p, count - 1));
          x[p] = row.data();
          if (metric == Metric::kCosine) x_norm[p] = common::norm(row);
        }
        LaneVec acc[kPointBlock] = {};
        std::array<double, kPointBlock> best_score{};
        std::array<std::size_t, kPointBlock> best{};
        for (std::size_t t = 0; t < tiles; ++t) {
          const LaneVec* tile =
              reinterpret_cast<const LaneVec*>(tiled.data() + t * dim * kLanes);
          for (auto& a : acc) a = LaneVec{};
          if (metric == Metric::kEuclidean) {
            for (std::size_t j = 0; j < dim; ++j) {
              for (std::size_t p = 0; p < kPointBlock; ++p) {
                const LaneVec d = tile[j] - x[p][j];
                acc[p] += d * d;
              }
            }
          } else {
            for (std::size_t j = 0; j < dim; ++j)
              for (std::size_t p = 0; p < kPointBlock; ++p)
                acc[p] += tile[j] * x[p][j];
          }
          const std::size_t lanes = std::min(kLanes, k - t * kLanes);
          for (std::size_t p = 0; p < count; ++p) {
            for (std::size_t l = 0; l < lanes; ++l) {
              const std::size_t c = t * kLanes + l;
              double s = 0.0;
              switch (metric) {
                case Metric::kDotSimilarity:
                  s = acc[p][l];
                  break;
                case Metric::kEuclidean:
                  s = -static_cast<double>(acc[p][l]);
                  break;
                case Metric::kCosine: {
                  const float nc = centroid_norm[c];
                  s = (nc == 0.0f || x_norm[p] == 0.0f)
                          ? -1.0
                          : acc[p][l] / (static_cast<double>(nc) * x_norm[p]);
                  break;
                }
              }
              if (c == 0 || s > best_score[p]) {
                best_score[p] = s;
                best[p] = c;
              }
            }
          }
        }
        for (std::size_t p = 0; p < count; ++p)
          out[i0 + p] = static_cast<std::uint32_t>(best[p]);
      },
      /*grain=*/2);
}

namespace detail {

std::size_t weighted_pick(std::span<const double> weights, double r) {
  MEMHD_EXPECTS(!weights.empty());
  std::size_t last_positive = 0;
  bool seen_positive = false;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      last_positive = i;
      seen_positive = true;
      r -= weights[i];
      if (r <= 0.0) return i;
    }
  }
  // Floating-point residue left r positive after every weight was
  // subtracted (or every weight was zero): fall back to the last
  // positive-weight entry, never a zero-weight one.
  return seen_positive ? last_positive : weights.size() - 1;
}

}  // namespace detail

KMeansResult kmeans(const Matrix& points, const KMeansConfig& config,
                    Rng& rng) {
  MEMHD_EXPECTS(config.k >= 1);
  MEMHD_EXPECTS(points.rows() >= config.k);
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  const std::size_t k = config.k;

  KMeansResult result;
  result.centroids = config.seeding == Seeding::kKMeansPlusPlus
                         ? seed_kmeanspp(points, k, rng)
                         : seed_random(points, k, rng);
  result.assignment.assign(n, 0);
  result.cluster_sizes.assign(k, 0);

  std::vector<std::uint32_t> previous(n, std::numeric_limits<std::uint32_t>::max());

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step — blocked batch argmin over centroids (bit-identical
    // to the per-point assign_point loop, one cache pass per point block).
    assign_batch(result.centroids, points, config.metric, result.assignment);
    std::size_t reassigned = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (result.assignment[i] != previous[i]) ++reassigned;

    // Update step: arithmetic mean of members.
    result.centroids.fill(0.0f);
    std::fill(result.cluster_sizes.begin(), result.cluster_sizes.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = result.assignment[i];
      ++result.cluster_sizes[c];
      auto dst = result.centroids.row(c);
      const auto src = points.row(i);
      for (std::size_t j = 0; j < dim; ++j) dst[j] += src[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (result.cluster_sizes[c] == 0) continue;
      const float inv = 1.0f / static_cast<float>(result.cluster_sizes[c]);
      for (auto& v : result.centroids.row(c)) v *= inv;
    }

    // Empty-cluster repair: reseed with the sample farthest from its own
    // centroid (max squared distance), which both fills the cluster and
    // peels off the worst-represented point.
    for (std::size_t c = 0; c < k; ++c) {
      if (result.cluster_sizes[c] != 0) continue;
      std::size_t worst = 0;
      double worst_d = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(common::squared_distance(
            points.row(i), result.centroids.row(result.assignment[i])));
        if (d > worst_d && result.cluster_sizes[result.assignment[i]] > 1) {
          worst_d = d;
          worst = i;
        }
      }
      const auto src = points.row(worst);
      std::copy(src.begin(), src.end(), result.centroids.row(c).begin());
      --result.cluster_sizes[result.assignment[worst]];
      result.assignment[worst] = static_cast<std::uint32_t>(c);
      result.cluster_sizes[c] = 1;
    }

    previous = result.assignment;
    if (reassigned < config.min_reassigned && iter > 0) {
      result.converged = true;
      break;
    }
  }

  // Final inertia (squared Euclidean to assigned centroid).
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    result.inertia += static_cast<double>(common::squared_distance(
        points.row(i), result.centroids.row(result.assignment[i])));

  return result;
}

}  // namespace memhd::clustering
