#include "src/common/bitops_batch.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace memhd::common {
namespace {

std::vector<std::uint32_t> naive_scores(const BitMatrix& rows,
                                        const std::vector<BitVector>& queries,
                                        PopcountOp op) {
  std::vector<std::uint32_t> out(queries.size() * rows.rows(), 0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      std::uint32_t s = 0;
      for (std::size_t c = 0; c < rows.cols(); ++c) {
        const bool a = rows.get(r, c);
        const bool b = queries[q].get(c);
        if (op == PopcountOp::kAnd ? (a && b) : (a != b)) ++s;
      }
      out[q * rows.rows() + r] = s;
    }
  }
  return out;
}

std::vector<BitVector> random_queries(std::size_t n, std::size_t dim,
                                      Rng& rng) {
  std::vector<BitVector> qs;
  qs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    qs.push_back(BitVector::random(dim, rng));
  return qs;
}

// Sweep odd shapes: rows around the 4/8/16 tile edges, dims around 64-bit
// word boundaries, batches around the 2/4-query tile and 32-query block
// edges.
class BitopsBatchSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(BitopsBatchSweep, MatchesNaiveAndXor) {
  const auto [nrows, dim, batch] = GetParam();
  Rng rng(nrows * 131071 + dim * 257 + batch);
  const BitMatrix rows = BitMatrix::random(nrows, dim, rng);
  const auto queries = random_queries(batch, dim, rng);

  for (const PopcountOp op : {PopcountOp::kAnd, PopcountOp::kXor}) {
    std::vector<std::uint32_t> got;
    blocked_popcount_scores(rows, std::span<const BitVector>(queries), op,
                            got);
    const auto want = naive_scores(rows, queries, op);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "rows=" << nrows << " dim=" << dim << " batch=" << batch
          << " op=" << (op == PopcountOp::kAnd ? "and" : "xor") << " idx=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitopsBatchSweep,
    ::testing::Combine(::testing::Values(1, 3, 4, 7, 8, 9, 16, 17, 33),
                       ::testing::Values(1, 63, 64, 65, 127, 129, 200),
                       ::testing::Values(1, 2, 3, 5, 8, 33, 67)));

TEST(BitopsBatch, MatchesPerQueryMvm) {
  Rng rng(42);
  const std::size_t dim = 193;  // odd tail word
  const BitMatrix rows = BitMatrix::random(29, dim, rng);
  const auto queries = random_queries(71, dim, rng);

  std::vector<std::uint32_t> batch;
  blocked_popcount_scores(rows, std::span<const BitVector>(queries),
                          PopcountOp::kAnd, batch);

  std::vector<std::uint32_t> single;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    rows.mvm(queries[q], single);
    for (std::size_t r = 0; r < rows.rows(); ++r)
      ASSERT_EQ(batch[q * rows.rows() + r], single[r]) << "q=" << q;
  }
}

TEST(BitopsBatch, XorMatchesHamming) {
  Rng rng(43);
  const std::size_t dim = 321;
  const BitMatrix rows = BitMatrix::random(13, dim, rng);
  const auto queries = random_queries(9, dim, rng);

  std::vector<std::uint32_t> batch;
  blocked_popcount_scores(rows, std::span<const BitVector>(queries),
                          PopcountOp::kXor, batch);
  for (std::size_t q = 0; q < queries.size(); ++q)
    for (std::size_t r = 0; r < rows.rows(); ++r)
      ASSERT_EQ(batch[q * rows.rows() + r],
                rows.row_vector(r).hamming(queries[q]));
}

TEST(BitopsBatch, QueryMatrixOverloadMatchesSpanOverload) {
  Rng rng(44);
  const std::size_t dim = 100;
  const BitMatrix rows = BitMatrix::random(6, dim, rng);
  const BitMatrix queries = BitMatrix::random(11, dim, rng);

  std::vector<std::uint32_t> from_matrix;
  blocked_popcount_scores(rows, queries, PopcountOp::kAnd, from_matrix);

  std::vector<BitVector> qvec;
  for (std::size_t q = 0; q < queries.rows(); ++q)
    qvec.push_back(queries.row_vector(q));
  std::vector<std::uint32_t> from_span;
  blocked_popcount_scores(rows, std::span<const BitVector>(qvec),
                          PopcountOp::kAnd, from_span);
  EXPECT_EQ(from_matrix, from_span);
}

class BitopsArgmaxSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(BitopsArgmaxSweep, FusedArgmaxMatchesScoresPlusFirstWinsArgmax) {
  const auto [nrows, dim, batch] = GetParam();
  Rng rng(nrows * 7919 + dim * 31 + batch);
  const BitMatrix rows = BitMatrix::random(nrows, dim, rng);
  const auto queries = random_queries(batch, dim, rng);

  std::vector<std::uint32_t> got;
  blocked_dot_argmax(rows, std::span<const BitVector>(queries), got);
  ASSERT_EQ(got.size(), queries.size());

  std::vector<std::uint32_t> scores;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    rows.mvm(queries[q], scores);
    std::uint32_t want = 0;
    for (std::size_t r = 1; r < nrows; ++r)
      if (scores[r] > scores[want]) want = static_cast<std::uint32_t>(r);
    ASSERT_EQ(got[q], want)
        << "rows=" << nrows << " dim=" << dim << " batch=" << batch
        << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitopsArgmaxSweep,
    ::testing::Combine(::testing::Values(1, 3, 8, 9, 16, 17, 33),
                       ::testing::Values(1, 64, 65, 129),
                       ::testing::Values(1, 3, 4, 5, 33)));

TEST(BitopsBatch, FusedArgmaxFirstWinsOnMassiveTies) {
  // Duplicate rows force exact ties: the fused kernel must return the
  // first (lowest-index) maximal row, like argmax_u32.
  Rng rng(77);
  const std::size_t dim = 130;
  const auto proto_a = BitVector::random(dim, rng);
  const auto proto_b = BitVector::random(dim, rng);
  BitMatrix rows(21, dim);
  for (std::size_t r = 0; r < rows.rows(); ++r)
    rows.set_row(r, (r % 3 == 1) ? proto_b : proto_a);

  const auto queries = random_queries(17, dim, rng);
  std::vector<std::uint32_t> got;
  blocked_dot_argmax(rows, std::span<const BitVector>(queries), got);

  std::vector<std::uint32_t> scores;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    rows.mvm(queries[q], scores);
    ASSERT_EQ(got[q], common::argmax_u32(scores)) << "q=" << q;
  }
}

TEST(BitopsBatch, FusedArgmaxAllZeroScoresPicksRowZero) {
  Rng rng(78);
  const BitMatrix rows(19, 100);  // all-zero AM: every score is 0
  const auto queries = random_queries(9, 100, rng);
  std::vector<std::uint32_t> got;
  blocked_dot_argmax(rows, std::span<const BitVector>(queries), got);
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(got[q], 0u) << "q=" << q;
}

TEST(BatchScorer, MatchesFreeFunctionsAcrossOddShapes) {
  Rng rng(99);
  for (const std::size_t nrows : {5UL, 16UL, 21UL}) {
    for (const std::size_t dim : {65UL, 192UL}) {
      const BitMatrix rows = BitMatrix::random(nrows, dim, rng);
      const auto queries = random_queries(37, dim, rng);
      const BatchScorer scorer(rows);
      EXPECT_EQ(scorer.rows(), nrows);
      EXPECT_EQ(scorer.cols(), dim);

      for (const PopcountOp op : {PopcountOp::kAnd, PopcountOp::kXor}) {
        std::vector<std::uint32_t> from_scorer, from_free;
        scorer.scores(std::span<const BitVector>(queries), op, from_scorer);
        blocked_popcount_scores(rows, std::span<const BitVector>(queries), op,
                                from_free);
        ASSERT_EQ(from_scorer, from_free)
            << "rows=" << nrows << " dim=" << dim;
      }

      std::vector<std::uint32_t> am_scorer, am_free;
      scorer.dot_argmax(std::span<const BitVector>(queries), am_scorer);
      blocked_dot_argmax(rows, std::span<const BitVector>(queries), am_free);
      ASSERT_EQ(am_scorer, am_free) << "rows=" << nrows << " dim=" << dim;
    }
  }
}

TEST(BatchScorer, SnapshotsRowsAtConstruction) {
  Rng rng(100);
  BitMatrix rows = BitMatrix::random(9, 70, rng);
  const BatchScorer scorer(rows);
  const auto queries = random_queries(6, 70, rng);

  std::vector<std::uint32_t> before;
  scorer.scores(std::span<const BitVector>(queries), PopcountOp::kAnd, before);

  rows.flip(0, 0);  // mutate the caller's matrix after construction
  std::vector<std::uint32_t> after;
  scorer.scores(std::span<const BitVector>(queries), PopcountOp::kAnd, after);
  EXPECT_EQ(before, after);
}

TEST(BitopsBatch, EmptyBatchProducesEmptyOutput) {
  Rng rng(45);
  const BitMatrix rows = BitMatrix::random(4, 64, rng);
  std::vector<std::uint32_t> out(7, 123);
  blocked_popcount_scores(rows, std::span<const BitVector>(), PopcountOp::kAnd,
                          out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace memhd::common
