// CascadeSearcher: bit-identity with the exhaustive kernel when the
// shortlist covers the plane (property-tested over odd shapes, every sample
// fraction and engineered ties), the shortlist quality contract on a
// structured workload, config validation, and stats accounting.
#include "src/search/cascade.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/rng.hpp"

namespace memhd::search {
namespace {

std::vector<common::BitVector> random_queries(std::size_t n, std::size_t bits,
                                              std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<common::BitVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(common::BitVector::random(bits, rng));
  return out;
}

std::vector<std::uint32_t> exhaustive(const common::BitMatrix& rows,
                                      std::span<const common::BitVector> qs) {
  common::BatchScorer scorer(rows);
  std::vector<std::uint32_t> out;
  scorer.dot_argmax(qs, out);
  return out;
}

// ------------------------------------------------------------ threshold --

/// Every row duplicated, plus an all-zeros pair (rows 16, 17): engineered
/// ties whose exhaustive answer is the LOWER twin of each tied group.
common::BitMatrix duplicate_row_plane(std::size_t bits) {
  common::Rng rng(99);
  const auto half = common::BitMatrix::random(8, bits, rng);
  common::BitMatrix plane(18, bits);
  for (std::size_t r = 0; r < 8; ++r) {
    std::memcpy(plane.row(2 * r), half.row(r),
                half.words_per_row() * sizeof(std::uint64_t));
    std::memcpy(plane.row(2 * r + 1), half.row(r),
                half.words_per_row() * sizeof(std::uint64_t));
  }
  return plane;
}

TEST(CascadeThreshold, ShortlistCoveringPlaneIsExact) {
  // With shortlist >= rows the top-L selection keeps every row, so the
  // rescore IS the exhaustive argmax — including tie order — at every
  // sample fraction, over a 1-row plane, ragged tail words, fraction 1.0
  // (the degenerate forward) and duplicated rows whose ties must resolve
  // to the lower index.
  struct Case {
    common::BitMatrix plane;
    std::vector<common::BitVector> queries;
  };
  std::vector<Case> cases;
  const struct {
    std::size_t rows, bits;
  } shapes[] = {{1, 64}, {3, 65}, {17, 130}, {64, 256}, {193, 1000},
                {256, 2048}};
  for (const auto& sh : shapes) {
    common::Rng rng(0x5EEDULL + sh.rows * 31 + sh.bits);
    cases.push_back({common::BitMatrix::random(sh.rows, sh.bits, rng),
                     random_queries(32, sh.bits, sh.rows * 977 + sh.bits)});
  }
  common::Rng rng(7);
  Case zero_query{common::BitMatrix::random(48, 300, rng),
                  random_queries(96, 300, 8)};
  zero_query.queries.push_back(common::BitVector(300));
  cases.push_back(std::move(zero_query));
  Case dup{duplicate_row_plane(192), random_queries(64, 192, 1234)};
  dup.queries.push_back(common::BitVector(192));  // ties at score 0
  for (const std::uint32_t w : exhaustive(dup.plane, dup.queries))
    EXPECT_EQ(w % 2, 0u);  // the lower twin
  cases.push_back(std::move(dup));

  const double fractions[] = {0.05, 0.2, 0.25, 0.34, 0.5, 0.67, 0.75, 1.0};
  for (const auto& [plane, queries] : cases) {
    const auto want = exhaustive(plane, queries);
    for (const double f : fractions) {
      CascadeConfig cfg;
      cfg.sample_fraction = f;
      cfg.shortlist = plane.rows();
      const CascadeSearcher cascade(plane, cfg);
      std::vector<std::uint32_t> got;
      CascadeStats stats;
      cascade.dot_argmax(queries, got, &stats);
      ASSERT_EQ(got, want) << "rows=" << plane.rows()
                           << " bits=" << plane.cols() << " fraction=" << f;
      EXPECT_EQ(stats.queries, queries.size());
    }
  }
}

TEST(CascadeThreshold, StructuredWorkloadHitsShortlist) {
  // Queries near distinct prototypes: the prescreen shortlist should keep
  // the true winner essentially always (this is the regime the mode is
  // for), so the cascade argmax matches exhaustive despite the pruning.
  common::Rng rng(21);
  const std::size_t bits = 1024, nrows = 256;
  const auto plane = common::BitMatrix::random(nrows, bits, rng);
  std::vector<common::BitVector> queries;
  for (std::size_t q = 0; q < 128; ++q) {
    common::BitVector hv(bits);
    const std::uint64_t* proto = plane.row(rng.next_u64() % nrows);
    std::memcpy(hv.words(), proto,
                plane.words_per_row() * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < bits / 10; ++i)
      hv.flip(rng.next_u64() % bits);
    queries.push_back(std::move(hv));
  }
  const auto want = exhaustive(plane, queries);
  CascadeConfig cfg;
  cfg.sample_fraction = 0.125;
  cfg.shortlist = 32;
  const CascadeSearcher cascade(plane, cfg);
  std::vector<std::uint32_t> got;
  CascadeStats stats;
  cascade.dot_argmax(queries, got, &stats);
  std::size_t agree = 0;
  for (std::size_t q = 0; q < want.size(); ++q) agree += got[q] == want[q];
  EXPECT_GE(agree, want.size() * 97 / 100);
  EXPECT_EQ(stats.early_exits, 0u);  // no margin: every query rescored
  EXPECT_EQ(stats.rescored_rows, cfg.shortlist * stats.queries);
}

TEST(CascadeThreshold, EarlyExitMarginSkipsRescore) {
  // Queries that ARE prototype rows: the prescreen margin is huge, so a
  // modest early_exit_margin answers them with zero stage-2 work — and
  // still correctly.
  common::Rng rng(33);
  const std::size_t bits = 2048, nrows = 64;
  const auto plane = common::BitMatrix::random(nrows, bits, rng);
  std::vector<common::BitVector> queries;
  for (std::size_t r = 0; r < nrows; ++r) {
    common::BitVector hv(bits);
    std::memcpy(hv.words(), plane.row(r),
                plane.words_per_row() * sizeof(std::uint64_t));
    queries.push_back(std::move(hv));
  }
  CascadeConfig cfg;
  cfg.sample_fraction = 0.25;
  cfg.shortlist = 8;
  cfg.early_exit_margin = 16;
  const CascadeSearcher cascade(plane, cfg);
  std::vector<std::uint32_t> got;
  CascadeStats stats;
  cascade.dot_argmax(queries, got, &stats);
  const auto want = exhaustive(plane, queries);
  EXPECT_EQ(got, want);
  EXPECT_GT(stats.early_exits, 0u);
}

// ------------------------------------------------------------- plumbing --

TEST(Cascade, DegenerateSampleForwardsToExhaustive) {
  common::Rng rng(3);
  const auto plane = common::BitMatrix::random(10, 64, rng);  // 1 word/row
  const auto queries = random_queries(16, 64, 4);
  CascadeConfig cfg;
  cfg.sample_fraction = 0.01;  // rounds up to the mandatory 1 word = all
  const CascadeSearcher cascade(plane, cfg);
  EXPECT_TRUE(cascade.degenerate());
  std::vector<std::uint32_t> got;
  CascadeStats stats;
  cascade.dot_argmax(queries, got, &stats);
  EXPECT_EQ(got, exhaustive(plane, queries));
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.rescored_rows, queries.size() * plane.rows());
}

TEST(Cascade, SameConfigSameSeedIsDeterministic) {
  // The prescreen plane is a pure function of (seed, shape, fraction):
  // two searchers over the same plane answer identically — the property
  // serialization round-trips rely on.
  common::Rng rng(17);
  const auto plane = common::BitMatrix::random(96, 777, rng);
  const auto queries = random_queries(64, 777, 18);
  CascadeConfig cfg;
  cfg.sample_fraction = 0.3;
  cfg.shortlist = 12;
  const CascadeSearcher a(plane, cfg);
  const CascadeSearcher b(plane, cfg);
  EXPECT_EQ(a.sampled_words(), b.sampled_words());
  std::vector<std::uint32_t> ra, rb;
  a.dot_argmax(queries, ra);
  b.dot_argmax(queries, rb);
  EXPECT_EQ(ra, rb);
}

TEST(Cascade, InvalidConfigThrows) {
  common::Rng rng(1);
  const auto plane = common::BitMatrix::random(4, 128, rng);
  CascadeConfig bad;
  bad.sample_fraction = 0.0;
  EXPECT_THROW(CascadeSearcher(plane, bad), std::invalid_argument);
  bad.sample_fraction = 1.5;
  EXPECT_THROW(CascadeSearcher(plane, bad), std::invalid_argument);
  bad.sample_fraction = 0.5;
  bad.shortlist = 0;
  EXPECT_THROW(CascadeSearcher(plane, bad), std::invalid_argument);
}

TEST(Cascade, EmptyBatchIsANoOp) {
  common::Rng rng(2);
  const auto plane = common::BitMatrix::random(4, 128, rng);
  const CascadeSearcher cascade(plane, CascadeConfig{});
  std::vector<std::uint32_t> out(3, 7u);
  cascade.dot_argmax(std::span<const common::BitVector>{}, out);
  EXPECT_TRUE(out.empty());  // resized to the batch
}

}  // namespace
}  // namespace memhd::search
