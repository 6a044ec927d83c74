#include "src/core/initializer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "test_util.hpp"

namespace memhd::core {
namespace {

MemhdConfig small_config(std::size_t dim = 256, std::size_t columns = 16) {
  MemhdConfig cfg;
  cfg.dim = dim;
  cfg.columns = columns;
  cfg.initial_ratio = 0.75;
  cfg.kmeans_max_iterations = 10;
  cfg.seed = 3;
  return cfg;
}

TEST(InitialClustersFormula, MatchesPaperEquation) {
  // n = max(1, floor(C*R/k))
  EXPECT_EQ(initial_clusters_per_class(512, 10, 0.8), 40u);   // 409.6/10
  EXPECT_EQ(initial_clusters_per_class(128, 10, 0.9), 11u);   // 115.2/10
  EXPECT_EQ(initial_clusters_per_class(128, 26, 1.0), 4u);    // 128/26
  EXPECT_EQ(initial_clusters_per_class(64, 26, 0.1), 1u);     // floor->0 => 1
  EXPECT_EQ(initial_clusters_per_class(26, 26, 1.0), 1u);
}

TEST(InitialClustersFormula, NeverExceedsEvenShare) {
  // n * k <= C must always hold so phase 1 fits.
  for (const std::size_t c : {26u, 64u, 100u, 128u}) {
    const std::size_t n = initial_clusters_per_class(c, 26, 1.0);
    EXPECT_LE(n * 26, c);
  }
}

TEST(ClusteringInit, ProducesFullyAssignedAM) {
  const auto train = testing::clustered_encoded(30, 256, 4, 3, 15);
  InitializerReport report;
  const auto am = initialize_clustering(train, small_config(), &report);
  EXPECT_TRUE(am.fully_assigned());
  EXPECT_EQ(am.columns(), 16u);
  const std::size_t total = std::accumulate(
      report.centroids_per_class.begin(), report.centroids_per_class.end(),
      std::size_t{0});
  EXPECT_EQ(total, 16u);
}

TEST(ClusteringInit, EveryClassGetsAtLeastOneCentroid) {
  const auto train = testing::clustered_encoded(20, 128, 5, 2, 10);
  const auto am = initialize_clustering(train, small_config(128, 12), nullptr);
  for (data::Label c = 0; c < 5; ++c)
    EXPECT_GE(am.centroids_per_class(c), 1u) << "class " << c;
}

TEST(ClusteringInit, ReportTracksAllocationRounds) {
  const auto train = testing::clustered_encoded(30, 128, 4, 3, 15);
  auto cfg = small_config(128, 20);
  cfg.initial_ratio = 0.5;  // leaves half the columns to allocation
  InitializerReport report;
  initialize_clustering(train, cfg, &report);
  EXPECT_EQ(report.initial_columns, 4u * 2u);  // floor(20*0.5/4)=2 per class
  EXPECT_GE(report.allocation_rounds, 1u);
  EXPECT_EQ(report.round_accuracy.size(), report.allocation_rounds);
}

TEST(ClusteringInit, RatioOneSkipsAllocation) {
  const auto train = testing::clustered_encoded(30, 128, 4, 2, 10);
  auto cfg = small_config(128, 16);
  cfg.initial_ratio = 1.0;  // 16/4 = 4 per class, nothing left
  InitializerReport report;
  const auto am = initialize_clustering(train, cfg, &report);
  EXPECT_TRUE(am.fully_assigned());
  EXPECT_EQ(report.allocation_rounds, 0u);
  for (data::Label c = 0; c < 4; ++c)
    EXPECT_EQ(am.centroids_per_class(c), 4u);
}

TEST(ClusteringInit, InitialAccuracyBeatsRandomSampling) {
  // The paper's Fig. 5 claim in miniature: clustering-based initialization
  // starts at a higher accuracy than random sampling.
  const auto train = testing::clustered_encoded(
      /*per_class=*/60, /*dim=*/256, /*num_classes=*/5, /*modes=*/3,
      /*noise_bits=*/25);
  auto cfg = small_config(256, 20);

  cfg.init = InitMethod::kClustering;
  const auto clustered = initialize(train, cfg, nullptr);
  const double acc_cluster = evaluate_binary(clustered, train);

  cfg.init = InitMethod::kRandomSampling;
  const auto random = initialize(train, cfg, nullptr);
  const double acc_random = evaluate_binary(random, train);

  EXPECT_GT(acc_cluster, acc_random);
}

TEST(RandomSamplingInit, EvenColumnSplit) {
  const auto train = testing::clustered_encoded(20, 128, 4, 2, 10);
  InitializerReport report;
  const auto am =
      initialize_random_sampling(train, small_config(128, 10), &report);
  EXPECT_TRUE(am.fully_assigned());
  // 10 columns over 4 classes: 3,3,2,2.
  std::vector<std::size_t> per_class;
  for (data::Label c = 0; c < 4; ++c)
    per_class.push_back(am.centroids_per_class(c));
  EXPECT_EQ(per_class, (std::vector<std::size_t>{3, 3, 2, 2}));
}

TEST(AllocationPolicies, AllProduceFullUtilization) {
  const auto train = testing::clustered_encoded(25, 128, 4, 3, 12);
  for (const auto policy :
       {AllocationPolicy::kProportional, AllocationPolicy::kGreedyOne,
        AllocationPolicy::kEven}) {
    auto cfg = small_config(128, 18);
    cfg.initial_ratio = 0.5;
    cfg.allocation = policy;
    const auto am = initialize_clustering(train, cfg, nullptr);
    EXPECT_TRUE(am.fully_assigned());
    std::size_t total = 0;
    for (data::Label c = 0; c < 4; ++c) total += am.centroids_per_class(c);
    EXPECT_EQ(total, 18u);
  }
}

TEST(ClusteringInit, DeterministicGivenSeed) {
  const auto train = testing::clustered_encoded(20, 128, 3, 2, 10);
  const auto a = initialize_clustering(train, small_config(128, 9), nullptr);
  const auto b = initialize_clustering(train, small_config(128, 9), nullptr);
  EXPECT_TRUE(a.binary() == b.binary());
}

TEST(ClusteringInit, TinyClassesStillFullyUtilize) {
  // Classes with fewer samples than their column budget force the
  // duplication path; the invariant (C assigned slots) must survive.
  const auto train = testing::clustered_encoded(/*per_class=*/3, 64, 3, 1, 4);
  auto cfg = small_config(64, 12);  // 4 columns per class > 3 samples
  cfg.initial_ratio = 1.0;
  const auto am = initialize_clustering(train, cfg, nullptr);
  EXPECT_TRUE(am.fully_assigned());
}

// Golden values of core::initialize: the deployed binary plane, the slot
// owners and the allocation report, recorded from the per-row FP
// validation and single-threaded k-means assignment that preceded the
// batched kernels. Integer outputs only; any change to the float
// arithmetic of validation or clustering that alters a single centroid
// shows up here.
struct InitGolden {
  std::vector<std::size_t> centroids_per_class;
  std::vector<data::Label> owners;
  std::vector<std::uint64_t> binary_words;  // row-major, words_per_row each
};

void expect_golden(const hdc::EncodedDataset& train, const MemhdConfig& cfg,
                   std::size_t rounds, const InitGolden& golden) {
  InitializerReport report;
  const auto am = initialize(train, cfg, &report);
  EXPECT_EQ(report.allocation_rounds, rounds);
  EXPECT_EQ(report.centroids_per_class, golden.centroids_per_class);
  std::vector<data::Label> owners(am.columns());
  for (std::size_t c = 0; c < am.columns(); ++c) owners[c] = am.owner(c);
  EXPECT_EQ(owners, golden.owners);
  const auto& plane = am.binary();
  std::vector<std::uint64_t> words;
  for (std::size_t r = 0; r < plane.rows(); ++r)
    words.insert(words.end(), plane.row(r),
                 plane.row(r) + plane.words_per_row());
  EXPECT_EQ(words, golden.binary_words);
}

MemhdConfig golden_config(std::size_t dim, std::size_t columns, double ratio,
                          AllocationPolicy allocation) {
  MemhdConfig cfg;
  cfg.dim = dim;
  cfg.columns = columns;
  cfg.initial_ratio = ratio;
  cfg.allocation = allocation;
  cfg.kmeans_max_iterations = 10;
  cfg.seed = 3;
  return cfg;
}

TEST(ClusteringInitGolden, ProportionalOverThreeRounds) {
  const auto train = testing::clustered_encoded(60, 128, 4, 4, 56);
  expect_golden(
      train, golden_config(128, 20, 0.5, AllocationPolicy::kProportional), 3,
      {
        {6, 4, 4, 6},
        {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3},
        {
            0x08dc7170ca5fe709ULL, 0x8e3221774d2625d8ULL,
            0x88beec9b8864aa3fULL, 0xc7047e4061e77988ULL,
            0xa748b1cce0bbbbaeULL, 0xd2513e20de9739e5ULL,
            0xc9954178ce70cfe9ULL, 0x9b62115a4da224ccULL,
            0x613efe18aae52a3fULL, 0xef0c624067e73988ULL,
            0x84075c919f18e249ULL, 0xc8c60fc84867a983ULL,
            0x529a17b9e429cbe6ULL, 0xbd848b72762d3c00ULL,
            0x5cdf3f7b1836677bULL, 0x420768dd8023d5c2ULL,
            0x9057e00c957f239fULL, 0xdf31c02ae49d4ba0ULL,
            0x1f8f5ffbc427cdb3ULL, 0x4546339d42c44463ULL,
            0x2a470c1d669f17e5ULL, 0x53519b291b0039d4ULL,
            0x791ffe1e4050c062ULL, 0xb850737f45b37eadULL,
            0x7e1cdece7035c0f0ULL, 0xe0d87f3b0592368fULL,
            0x0ea171f4673e62c5ULL, 0xe4c060e01756a8e2ULL,
            0xab5a178a23758ffeULL, 0xd08722cdcf08ba16ULL,
            0xec2d97551713b2eaULL, 0x1fab076f91882f79ULL,
            0x6b52174a6b53f73eULL, 0xd1c622ccd968b236ULL,
            0x2f2d9c664649afc0ULL, 0xdb231625f9097f72ULL,
            0x9d2f3a2aad8175b3ULL, 0xdc9047bbbe7d52f9ULL,
            0x9d2f1a29abac7486ULL, 0xdf901782be4e52f5ULL,
        }
      });
}

TEST(ClusteringInitGolden, GreedyOne) {
  const auto train = testing::clustered_encoded(60, 128, 4, 4, 56);
  expect_golden(
      train, golden_config(128, 14, 0.6, AllocationPolicy::kGreedyOne), 6,
      {
        {4, 3, 3, 4},
        {0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3},
        {
            0xc9d55178ca54cf69ULL, 0x9a62115a4d2624d8ULL,
            0x0740b1cce0bbbbaeULL, 0xd2513e20de9339c5ULL,
            0x84075c919f18e249ULL, 0xc8c60fc84867a983ULL,
            0xa0beec1a8a64aa3fULL, 0xcf04764061e77988ULL,
            0x1053e02c957f239fULL, 0xdf31c0aae49d4ba0ULL,
            0x5a9e17b9ec29cfe6ULL, 0xbd848b72772d3c00ULL,
            0x1fdf5ffb5077e733ULL, 0x400762dd024644e3ULL,
            0x1ea171f4673e62c5ULL, 0xe4c060e01756a8e2ULL,
            0x7b1ede0e4070c060ULL, 0xb850733f0503768fULL,
            0xae470c5d6f9f57e5ULL, 0xd3539b291b0039d4ULL,
            0xaa5a178a2375eeeeULL, 0xd08720cfcf0cba16ULL,
            0x9d2f1a2aa98975b3ULL, 0xdd90479abe4e52f1ULL,
            0x4b52164a6353d73eULL, 0xd306a2cdd968b236ULL,
            0x2d2d9d45470bb3e2ULL, 0xdf230727b9887f78ULL,
        }
      });
}

TEST(ClusteringInitGolden, DimAndColumnsOffWordAndTileBoundaries) {
  // D = 100 is not a multiple of 64 and C = 13 not a multiple of 16.
  const auto train = testing::clustered_encoded(20, 100, 3, 3, 45);
  expect_golden(
      train, golden_config(100, 13, 0.5, AllocationPolicy::kProportional), 2,
      {
        {3, 5, 5},
        {0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2},
        {
            0x8648bacc342bba5aULL, 0x00000004cafbb387ULL,
            0x00e5b110a094af28ULL, 0x0000000a6d403bd8ULL,
            0xda575cf8de54ef69ULL, 0x0000000f0d67a08fULL,
            0x9877ac3a9d70ea9fULL, 0x000000077fff7da9ULL,
            0xb3fefdbbeee3e2bfULL, 0x00000005ba6fbf0eULL,
            0xff935db93235e5a0ULL, 0x0000000dc486164bULL,
            0x1ccf3d6a92e60eebULL, 0x00000008912bc95aULL,
            0x5c4d3c5b54f617b9ULL, 0x00000009906e453fULL,
            0x5ada14b96d29c1eeULL, 0x00000006766d7d48ULL,
            0xeed8665f679f57ffULL, 0x00000001bb4031eaULL,
            0xda192cad4daf93a5ULL, 0x0000000b97507bf0ULL,
            0x9257e62c95af63d6ULL, 0x00000002ee2d2ba0ULL,
            0x2e6449d96acd07a5ULL, 0x000000095be079d6ULL,
        }
      });
}

}  // namespace
}  // namespace memhd::core
