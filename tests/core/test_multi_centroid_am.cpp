#include "src/core/multi_centroid_am.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/hdc/fp_search.hpp"
#include "test_util.hpp"

namespace memhd::core {
namespace {

using common::BitVector;
using common::Rng;

std::vector<float> constant_row(std::size_t dim, float v) {
  return std::vector<float>(dim, v);
}

// The per-row FP search the batched kernel replaced (the former
// MultiCentroidAM::scores_fp and predict_fp's argmax), kept verbatim as the
// reference: every slot re-summed per query with one branch per query bit.
std::vector<float> reference_fp_scores(const common::Matrix& fp,
                                       const BitVector& query) {
  std::vector<float> out(fp.rows());
  for (std::size_t col = 0; col < fp.rows(); ++col) {
    const auto row = fp.row(col);
    float set_sum = 0.0f;
    float total = 0.0f;
    for (std::size_t j = 0; j < fp.cols(); ++j) {
      total += row[j];
      if (query.get(j)) set_sum += row[j];
    }
    out[col] = 2.0f * set_sum - total;
  }
  return out;
}

// First strict maximum from -inf over the assigned slots; slot 0 when none
// beats -inf.
std::size_t reference_fp_slot(const std::vector<float>& scores,
                              const std::vector<bool>& assigned) {
  std::size_t best = 0;
  float best_score = -std::numeric_limits<float>::infinity();
  for (std::size_t col = 0; col < scores.size(); ++col) {
    if (!assigned[col]) continue;
    if (scores[col] > best_score) {
      best_score = scores[col];
      best = col;
    }
  }
  return best;
}

std::vector<bool> assigned_slots(const MultiCentroidAM& am) {
  std::vector<bool> assigned(am.columns(), false);
  for (data::Label c = 0; c < am.num_classes(); ++c)
    for (const std::size_t col : am.centroids_of_class(c)) assigned[col] = true;
  return assigned;
}

// The batched kernel picks the reference's slot for every query (checked
// at slot level through hdc::fp_bipolar_argmax, and as labels through
// predict_fp_batch and predict_fp), and the per-row helper reproduces the
// reference scores bit for bit.
void expect_fp_search_matches_reference(const MultiCentroidAM& am,
                                        const std::vector<BitVector>& queries) {
  const auto assigned = assigned_slots(am);
  std::vector<std::uint32_t> rows;
  for (std::size_t col = 0; col < am.columns(); ++col)
    if (assigned[col]) rows.push_back(static_cast<std::uint32_t>(col));
  std::vector<std::uint32_t> slots(queries.size());
  hdc::fp_bipolar_argmax(am.fp(), rows, queries, slots);
  const auto labels = am.predict_fp_batch(queries);
  ASSERT_EQ(labels.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto scores = reference_fp_scores(am.fp(), queries[q]);
    const std::size_t want = reference_fp_slot(scores, assigned);
    ASSERT_EQ(slots[q], want) << "query " << q;
    ASSERT_EQ(labels[q], am.owner(want)) << "query " << q;
    ASSERT_EQ(am.predict_fp(queries[q]), am.owner(want)) << "query " << q;
    for (std::size_t col = 0; col < am.columns(); ++col)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(
                    hdc::fp_bipolar_dot(am.fp().row(col), queries[q])),
                std::bit_cast<std::uint32_t>(scores[col]))
          << "query " << q << " slot " << col;
  }
}

// `columns` slots over `classes` classes (owner = slot % classes). Entries
// span six decades, so a sum taken in another order rounds differently,
// and every odd slot copies the slot before it with one entry nudged, so
// many winners are decided in the last bits.
MultiCentroidAM random_fp_am(std::size_t classes, std::size_t dim,
                             std::size_t columns, Rng& rng) {
  MultiCentroidAM am(classes, dim, columns);
  std::vector<float> row(dim);
  for (std::size_t col = 0; col < columns; ++col) {
    if (col % 2 == 0) {
      for (auto& v : row)
        v = static_cast<float>(
            rng.normal() *
            std::pow(10.0, static_cast<double>(rng.uniform_index(7)) - 3.0));
    } else {
      row[rng.uniform_index(dim)] += 1e-3f;
    }
    am.set_centroid(col, static_cast<data::Label>(col % classes), row);
  }
  return am;
}

std::vector<BitVector> random_queries(std::size_t n, std::size_t dim,
                                      Rng& rng) {
  std::vector<BitVector> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(BitVector::random(dim, rng));
  return out;
}

TEST(MultiCentroidAM, OwnershipBookkeeping) {
  MultiCentroidAM am(3, 16, 8);
  EXPECT_FALSE(am.fully_assigned());
  am.set_centroid(0, 1, constant_row(16, 0.5f));
  am.set_centroid(1, 1, constant_row(16, -0.5f));
  am.set_centroid(2, 0, constant_row(16, 0.1f));
  EXPECT_EQ(am.owner(0), 1);
  EXPECT_EQ(am.centroids_per_class(1), 2u);
  EXPECT_EQ(am.centroids_per_class(0), 1u);
  EXPECT_EQ(am.centroids_per_class(2), 0u);
  EXPECT_EQ(am.centroids_of_class(1), (std::vector<std::size_t>{0, 1}));
}

TEST(MultiCentroidAM, ReassignmentMovesSlot) {
  MultiCentroidAM am(2, 8, 4);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(0, 1, constant_row(8, 2.0f));  // reassign slot 0
  EXPECT_EQ(am.owner(0), 1);
  EXPECT_EQ(am.centroids_per_class(0), 0u);
  EXPECT_EQ(am.centroids_per_class(1), 1u);
  EXPECT_FLOAT_EQ(am.fp()(0, 3), 2.0f);
}

TEST(MultiCentroidAM, FullyAssignedDetection) {
  MultiCentroidAM am(2, 8, 3);
  am.set_centroid(0, 0, constant_row(8, 0.0f));
  am.set_centroid(1, 1, constant_row(8, 0.0f));
  EXPECT_FALSE(am.fully_assigned());
  am.set_centroid(2, 0, constant_row(8, 0.0f));
  EXPECT_TRUE(am.fully_assigned());
}

TEST(MultiCentroidAM, BinarizeThresholdIsGlobalMean) {
  MultiCentroidAM am(2, 2, 2);
  am.set_centroid(0, 0, std::vector<float>{4.0f, 0.0f});
  am.set_centroid(1, 1, std::vector<float>{0.0f, 0.0f});  // mean = 1.0
  am.binarize();
  EXPECT_TRUE(am.binary().get(0, 0));
  EXPECT_FALSE(am.binary().get(0, 1));
  EXPECT_FALSE(am.binary().get(1, 0));
}

TEST(MultiCentroidAM, NormalizeL2MakesUnitRows) {
  MultiCentroidAM am(2, 4, 2);
  am.set_centroid(0, 0, std::vector<float>{3.0f, 4.0f, 0.0f, 0.0f});
  am.set_centroid(1, 1, std::vector<float>{0.0f, 0.0f, 0.0f, 0.0f});  // zero row unchanged
  am.normalize(NormalizationMode::kL2);
  EXPECT_NEAR(common::norm(am.fp().row(0)), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(am.fp()(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(am.fp()(1, 0), 0.0f);
}

TEST(MultiCentroidAM, NormalizeZScoreCentersRows) {
  MultiCentroidAM am(2, 4, 2);
  am.set_centroid(0, 0, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  am.set_centroid(1, 1, std::vector<float>{5.0f, 5.0f, 5.0f, 5.0f});  // zero variance -> zeros
  am.normalize(NormalizationMode::kZScore);
  double mean = 0.0, var = 0.0;
  for (const float v : am.fp().row(0)) mean += v;
  mean /= 4.0;
  for (const float v : am.fp().row(0)) var += (v - mean) * (v - mean);
  EXPECT_NEAR(mean, 0.0, 1e-6);
  EXPECT_NEAR(std::sqrt(var / 4.0), 1.0, 1e-5);
  for (const float v : am.fp().row(1)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(MultiCentroidAM, NormalizeNoneIsIdentity) {
  MultiCentroidAM am(2, 2, 2);
  am.set_centroid(0, 0, std::vector<float>{7.0f, -3.0f});
  am.set_centroid(1, 1, std::vector<float>{1.0f, 2.0f});
  am.normalize(NormalizationMode::kNone);
  EXPECT_FLOAT_EQ(am.fp()(0, 0), 7.0f);
}

TEST(MultiCentroidAM, BestCentroidSelection) {
  MultiCentroidAM am(2, 64, 4);
  Rng rng(3);
  // Two centroids per class with known prototypes.
  std::vector<BitVector> protos;
  std::vector<float> bip;
  for (std::size_t i = 0; i < 4; ++i) {
    protos.push_back(BitVector::random(64, rng));
    bip.clear();
    protos.back().to_bipolar(bip);
    am.set_centroid(i, static_cast<data::Label>(i / 2), bip);
  }
  am.binarize();

  std::vector<std::uint32_t> scores;
  am.scores_binary(protos[3], scores);
  // Eq. 4: global best is the matching slot.
  EXPECT_EQ(am.best_centroid(scores), 3u);
  // Eq. 5: within-class best for class 0 must be one of slots {0, 1}.
  const std::size_t within = am.best_centroid_of_class(scores, 0);
  EXPECT_TRUE(within == 0 || within == 1);
  EXPECT_EQ(am.predict_binary(protos[3]), 1);
}

TEST(MultiCentroidAM, PredictFpSkipsUnassignedSlots) {
  MultiCentroidAM am(2, 8, 4);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(1, 1, constant_row(8, -1.0f));
  // Slots 2, 3 unassigned; predict_fp must not return garbage.
  BitVector q(8);
  q.fill(true);
  EXPECT_EQ(am.predict_fp(q), 0);
  EXPECT_EQ(am.predict_fp_batch(std::vector<BitVector>{q, q}),
            (std::vector<data::Label>{0, 0}));

  // Free slots before, between and after the assigned ones hold the
  // highest-scoring FP rows; they still never compete.
  Rng rng(12);
  MultiCentroidAM gaps(2, 70, 6);
  gaps.set_centroid(1, 1, constant_row(70, -1.0f));
  gaps.set_centroid(4, 0, constant_row(70, 1.0f));
  for (const std::size_t free_col : {0, 2, 3, 5})
    for (auto& v : gaps.fp().row(free_col)) v = 100.0f;
  auto queries = random_queries(2 * hdc::kFpQueryBlock + 3, 70, rng);
  BitVector ones(70);
  ones.fill(true);
  queries.push_back(ones);
  queries.push_back(BitVector(70));
  expect_fp_search_matches_reference(gaps, queries);
  EXPECT_EQ(gaps.predict_fp(ones), 0);
}

TEST(MultiCentroidAM, PredictFpBatchMatchesPerRowLoopAcrossShapes) {
  Rng rng(41);
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 1000u}) {
    for (const std::size_t columns : {2u, 17u, 33u}) {
      SCOPED_TRACE(::testing::Message() << "D=" << dim << " C=" << columns);
      const auto am = random_fp_am(2, dim, columns, rng);
      expect_fp_search_matches_reference(
          am, random_queries(2 * hdc::kFpQueryBlock + 5, dim, rng));
    }
  }
}

TEST(MultiCentroidAM, PredictFpDuplicateCentroidsFirstSlotWins) {
  // Slots 1, 3 and 4 hold the same best row under three different owners;
  // the first of them must win, single and batched.
  MultiCentroidAM am(3, 100, 5);
  am.set_centroid(0, 0, constant_row(100, 0.5f));
  am.set_centroid(1, 2, constant_row(100, 1.0f));
  am.set_centroid(2, 0, constant_row(100, 0.25f));
  am.set_centroid(3, 1, constant_row(100, 1.0f));
  am.set_centroid(4, 0, constant_row(100, 1.0f));
  BitVector ones(100);
  ones.fill(true);
  BitVector most(100);
  for (std::size_t j = 0; j < 70; ++j) most.set(j, true);
  const std::vector<BitVector> queries{ones, most, ones};
  expect_fp_search_matches_reference(am, queries);
  EXPECT_EQ(am.predict_fp_batch(queries),
            (std::vector<data::Label>{2, 2, 2}));
}

TEST(MultiCentroidAM, PredictFpBatchSizes) {
  // Empty, single-row, and counts on and off the query-block boundary.
  Rng rng(43);
  const auto am = random_fp_am(4, 130, 9, rng);
  EXPECT_TRUE(am.predict_fp_batch({}).empty());
  for (const std::size_t n :
       {std::size_t{1}, hdc::kFpQueryBlock - 1, hdc::kFpQueryBlock,
        hdc::kFpQueryBlock + 1, 3 * hdc::kFpQueryBlock + 7}) {
    SCOPED_TRACE(::testing::Message() << "batch " << n);
    expect_fp_search_matches_reference(am, random_queries(n, 130, rng));
  }
}

TEST(MultiCentroidAM, RestoreBinarySnapshot) {
  MultiCentroidAM am(2, 8, 2);
  am.set_centroid(0, 0, constant_row(8, 1.0f));
  am.set_centroid(1, 1, constant_row(8, -1.0f));
  am.binarize();
  const common::BitMatrix snapshot = am.binary();
  am.fp().fill(0.0f);
  am.binarize();
  EXPECT_FALSE(am.binary() == snapshot);
  am.restore_binary(snapshot);
  EXPECT_TRUE(am.binary() == snapshot);
}

TEST(MultiCentroidAM, MemoryBitsIsCxD) {
  MultiCentroidAM am(10, 128, 128);
  EXPECT_EQ(am.memory_bits(), 128u * 128u);
}

TEST(MultiCentroidAM, MetricVariantsAgreeOnCleanPrototypes) {
  // With balanced random prototypes and the query equal to one of them,
  // every similarity measure must retrieve the owner.
  Rng rng(17);
  const std::size_t dim = 256;
  MultiCentroidAM am(3, dim, 6);
  std::vector<BitVector> protos;
  std::vector<float> bip;
  for (std::size_t s = 0; s < 6; ++s) {
    protos.push_back(BitVector::random(dim, rng));
    bip.clear();
    protos.back().to_bipolar(bip);
    am.set_centroid(s, static_cast<data::Label>(s / 2), bip);
  }
  am.binarize();
  for (std::size_t s = 0; s < 6; ++s) {
    const data::Label expect = static_cast<data::Label>(s / 2);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kDot),
              expect);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kHamming),
              expect);
    EXPECT_EQ(am.predict_with_metric(protos[s],
                                     MultiCentroidAM::SearchMetric::kCosine),
              expect);
  }
}

TEST(MultiCentroidAM, DotMetricMatchesPredictBinary) {
  Rng rng(19);
  MultiCentroidAM am(2, 128, 4);
  std::vector<float> bip;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto proto = BitVector::random(128, rng);
    bip.clear();
    proto.to_bipolar(bip);
    am.set_centroid(s, static_cast<data::Label>(s % 2), bip);
  }
  am.binarize();
  for (int i = 0; i < 20; ++i) {
    const auto q = BitVector::random(128, rng);
    EXPECT_EQ(
        am.predict_with_metric(q, MultiCentroidAM::SearchMetric::kDot),
        am.predict_binary(q));
  }
}

TEST(MultiCentroidAM, EvaluateOnClusteredData) {
  const auto data = testing::clustered_encoded(20, 256, 3, 2, 10);
  MultiCentroidAM am(3, 256, 6);
  // Assign two centroids per class from the first samples of each class.
  std::vector<float> bip;
  std::size_t col = 0;
  for (data::Label c = 0; c < 3; ++c) {
    const auto idx = data.indices_of_class(c);
    for (std::size_t m = 0; m < 2; ++m, ++col) {
      bip.clear();
      data.hypervectors[idx[m]].to_bipolar(bip);
      am.set_centroid(col, c, bip);
    }
  }
  am.binarize();
  EXPECT_GT(evaluate_binary(am, data), 0.5);
  EXPECT_GT(evaluate_fp(am, data), 0.5);
}

}  // namespace
}  // namespace memhd::core
