#include "src/clustering/kmeans.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/common/rng.hpp"

namespace memhd::clustering {
namespace {

using common::Matrix;
using common::Rng;

/// Three tight blobs far apart in 2D; n per blob.
Matrix three_blobs(std::size_t per_blob, Rng& rng) {
  Matrix pts(per_blob * 3, 2);
  const float centers[3][2] = {{0.0f, 0.0f}, {20.0f, 0.0f}, {0.0f, 20.0f}};
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      pts(r, 0) = centers[b][0] + static_cast<float>(rng.normal(0.0, 0.5));
      pts(r, 1) = centers[b][1] + static_cast<float>(rng.normal(0.0, 0.5));
    }
  return pts;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(3);
  const Matrix pts = three_blobs(40, rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.metric = Metric::kEuclidean;
  const auto result = kmeans(pts, cfg, rng);

  // Every blob must be pure: all 40 members share one cluster id.
  for (std::size_t b = 0; b < 3; ++b) {
    std::set<std::uint32_t> ids;
    for (std::size_t i = 0; i < 40; ++i)
      ids.insert(result.assignment[b * 40 + i]);
    EXPECT_EQ(ids.size(), 1u) << "blob " << b << " split across clusters";
  }
  // And the three blobs use three distinct clusters.
  std::set<std::uint32_t> all(result.assignment.begin(),
                              result.assignment.end());
  EXPECT_EQ(all.size(), 3u);
}

TEST(KMeans, AssignmentsAndSizesConsistent) {
  Rng rng(5);
  const Matrix pts = three_blobs(20, rng);
  KMeansConfig cfg;
  cfg.k = 4;
  const auto result = kmeans(pts, cfg, rng);
  ASSERT_EQ(result.assignment.size(), pts.rows());
  ASSERT_EQ(result.cluster_sizes.size(), 4u);
  std::vector<std::size_t> recount(4, 0);
  for (const auto a : result.assignment) {
    ASSERT_LT(a, 4u);
    ++recount[a];
  }
  EXPECT_EQ(recount, result.cluster_sizes);
}

TEST(KMeans, NoEmptyClustersAfterRepair) {
  Rng rng(7);
  // Fewer natural clusters than k forces the empty-cluster path.
  const Matrix pts = three_blobs(10, rng);
  KMeansConfig cfg;
  cfg.k = 8;
  const auto result = kmeans(pts, cfg, rng);
  for (const auto s : result.cluster_sizes) EXPECT_GT(s, 0u);
}

TEST(KMeans, KEqualsOneGivesCentroidAtMean) {
  Rng rng(9);
  Matrix pts(50, 3);
  for (std::size_t i = 0; i < 50; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      pts(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
  KMeansConfig cfg;
  cfg.k = 1;
  const auto result = kmeans(pts, cfg, rng);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 50; ++i) mean += pts(i, j);
    mean /= 50.0;
    EXPECT_NEAR(result.centroids(0, j), mean, 1e-4);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(11);
  const Matrix pts = three_blobs(30, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1u, 3u, 9u}) {
    Rng local(11);
    KMeansConfig cfg;
    cfg.k = k;
    cfg.metric = Metric::kEuclidean;
    const auto result = kmeans(pts, cfg, local);
    EXPECT_LT(result.inertia, prev + 1e-9) << "k=" << k;
    prev = result.inertia;
  }
}

TEST(KMeans, DotMetricAssignsByDotSimilarity) {
  Matrix centroids(2, 2);
  centroids(0, 0) = 1.0f; centroids(0, 1) = 0.0f;
  centroids(1, 0) = 0.0f; centroids(1, 1) = 1.0f;
  const std::vector<float> x = {0.9f, 0.1f};
  EXPECT_EQ(assign_point(centroids, x, Metric::kDotSimilarity), 0u);
  const std::vector<float> y = {0.1f, 2.0f};
  EXPECT_EQ(assign_point(centroids, y, Metric::kDotSimilarity), 1u);
}

TEST(KMeans, CosineMetricIgnoresMagnitude) {
  Matrix centroids(2, 2);
  centroids(0, 0) = 10.0f; centroids(0, 1) = 0.0f;   // large norm, along x
  centroids(1, 0) = 0.1f;  centroids(1, 1) = 0.1f;   // small norm, diagonal
  const std::vector<float> diag = {1.0f, 1.0f};
  EXPECT_EQ(assign_point(centroids, diag, Metric::kCosine), 1u);
  // Dot similarity would pick the large centroid instead.
  EXPECT_EQ(assign_point(centroids, diag, Metric::kDotSimilarity), 0u);
}

TEST(KMeans, DeterministicGivenSeed) {
  Rng ra(21), rb(21);
  Rng gen(13);
  const Matrix pts = three_blobs(20, gen);
  KMeansConfig cfg;
  cfg.k = 3;
  const auto a = kmeans(pts, cfg, ra);
  const auto b = kmeans(pts, cfg, rb);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_TRUE(a.centroids == b.centroids);
}

TEST(KMeans, ConvergesOnStableData) {
  Rng rng(15);
  const Matrix pts = three_blobs(30, rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.max_iterations = 100;
  const auto result = kmeans(pts, cfg, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100u);
}

class KMeansMetricSweep : public ::testing::TestWithParam<Metric> {};

TEST_P(KMeansMetricSweep, ProducesValidPartition) {
  Rng rng(17);
  const Matrix pts = three_blobs(15, rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.metric = GetParam();
  const auto result = kmeans(pts, cfg, rng);
  std::size_t total = 0;
  for (const auto s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, pts.rows());
  for (const auto a : result.assignment) EXPECT_LT(a, 3u);
}

INSTANTIATE_TEST_SUITE_P(Metrics, KMeansMetricSweep,
                         ::testing::Values(Metric::kDotSimilarity,
                                           Metric::kEuclidean,
                                           Metric::kCosine));

class KMeansSeedingSweep : public ::testing::TestWithParam<Seeding> {};

TEST_P(KMeansSeedingSweep, BlobsRecoveredUnderBothSeedings) {
  Rng rng(19);
  const Matrix pts = three_blobs(25, rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.metric = Metric::kEuclidean;
  cfg.seeding = GetParam();
  const auto result = kmeans(pts, cfg, rng);
  std::set<std::uint32_t> all(result.assignment.begin(),
                              result.assignment.end());
  EXPECT_EQ(all.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Seedings, KMeansSeedingSweep,
                         ::testing::Values(Seeding::kRandomSamples,
                                           Seeding::kKMeansPlusPlus));

// --- k-means++ D^2-sampling fallback (regression) ------------------------
//
// seed_kmeanspp draws r = u * total and walks the weights subtracting each
// d2; floating-point residue can leave r > 0 after the full scan. The
// pre-fix code then silently kept `chosen = 0` — picking point 0 regardless
// of its distance, typically a point coinciding with an existing centroid
// (weight exactly 0), i.e. a duplicated centroid. The fallback must land on
// the *last positive-weight* point instead.

TEST(WeightedPick, ResidueFallsBackToLastPositiveWeight) {
  // r beyond the total weight models the rounding-residue branch. Index 0
  // has zero weight (a point sitting on an existing centroid): the pre-fix
  // behavior returned it; the fix must return index 2 — the last entry
  // with positive weight — and never the zero-weight entries 0 or 3.
  const std::vector<double> weights = {0.0, 2.0, 3.0, 0.0};
  EXPECT_EQ(detail::weighted_pick(weights, 10.0), 2u);
}

TEST(WeightedPick, ResidueFallbackSkipsTrailingZeroRun) {
  const std::vector<double> weights = {0.5, 0.0, 0.0, 0.0};
  EXPECT_EQ(detail::weighted_pick(weights, 2.0), 0u);
}

TEST(WeightedPick, InRangeDrawsSelectByCumulativeWeight) {
  const std::vector<double> weights = {1.0, 2.0, 0.0, 3.0};
  EXPECT_EQ(detail::weighted_pick(weights, 0.5), 0u);
  EXPECT_EQ(detail::weighted_pick(weights, 1.0), 0u);   // boundary: r <= cum
  EXPECT_EQ(detail::weighted_pick(weights, 2.5), 1u);
  EXPECT_EQ(detail::weighted_pick(weights, 3.5), 3u);   // skips zero weight
  EXPECT_EQ(detail::weighted_pick(weights, 6.0), 3u);
}

TEST(WeightedPick, ZeroDrawNeverPicksZeroWeightPoint) {
  // u == 0 gives r == 0; the pick must still land on a positive weight,
  // not on a leading zero-weight (duplicate-centroid) entry.
  const std::vector<double> weights = {0.0, 0.0, 4.0};
  EXPECT_EQ(detail::weighted_pick(weights, 0.0), 2u);
}

TEST(KMeansPlusPlus, NeverDuplicatesTheFirstCentroidOnTinyClouds) {
  // Two distinct points, k = 2: the second pick's weight vector is exactly
  // {0, d} or {d, 0}; any fallback or boundary slip that picks the
  // zero-distance point duplicates the first centroid. Sweep seeds so the
  // uniform draw covers the [0, total) boundary region densely.
  Matrix pts(2, 2);
  pts(0, 0) = 0.0f; pts(0, 1) = 0.0f;
  pts(1, 0) = 3.0f; pts(1, 1) = 4.0f;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    KMeansConfig cfg;
    cfg.k = 2;
    cfg.seeding = Seeding::kKMeansPlusPlus;
    cfg.max_iterations = 1;
    const auto result = kmeans(pts, cfg, rng);
    // Both points end up in singleton clusters => both centroids distinct.
    EXPECT_EQ(result.cluster_sizes[0], 1u) << "seed=" << seed;
    EXPECT_EQ(result.cluster_sizes[1], 1u) << "seed=" << seed;
  }
}

// --- blocked batch assignment --------------------------------------------

TEST(AssignBatch, BitIdenticalToPerPointAssignAcrossMetricsAndShapes) {
  Rng rng(31);
  for (const auto metric :
       {Metric::kDotSimilarity, Metric::kEuclidean, Metric::kCosine}) {
    // Shapes straddle the 8-lane centroid tiles (k = 8, 9, 16, 17, 33) and
    // the 4-point blocks (n = 3, 4, 5, 9), with n below the thread pool's
    // worker count (n = 1, 2, 3) and per-class-cloud sizes the pool splits.
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {1, 1, 3},     {2, 9, 4},     {3, 2, 7},   {4, 8, 1},
        {5, 17, 6},    {7, 3, 5},     {9, 16, 65}, {128, 16, 8},
        {129, 17, 8},  {150, 5, 200}, {300, 33, 12}};
    for (const auto& [n, k, dim] : shapes) {
      Matrix pts = Matrix::random_normal(n, dim, rng);
      Matrix centroids = Matrix::random_normal(k, dim, rng);
      std::vector<std::uint32_t> batch(n);
      assign_batch(centroids, pts, metric, batch);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(batch[i], assign_point(centroids, pts.row(i), metric))
            << "n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(AssignBatch, TiesResolveToFirstCentroidLikeAssignPoint) {
  // Duplicate centroids force exact score ties; both paths must pick the
  // first occurrence.
  Matrix centroids(3, 2);
  centroids(0, 0) = 1.0f; centroids(0, 1) = 0.0f;
  centroids(1, 0) = 1.0f; centroids(1, 1) = 0.0f;  // duplicate of 0
  centroids(2, 0) = 0.0f; centroids(2, 1) = 1.0f;
  Matrix pts(2, 2);
  pts(0, 0) = 2.0f; pts(0, 1) = 0.1f;
  pts(1, 0) = 0.1f; pts(1, 1) = 2.0f;
  std::vector<std::uint32_t> out(2);
  assign_batch(centroids, pts, Metric::kDotSimilarity, out);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(assign_point(centroids, pts.row(0), Metric::kDotSimilarity), 0u);
}

}  // namespace
}  // namespace memhd::clustering
