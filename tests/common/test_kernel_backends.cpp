// Cross-backend property tests for the kernel registry: every backend
// compiled into this binary is force-selected and must be bit-identical to
// the portable path on odd shapes (cols not a multiple of 64, rows not a
// multiple of the lane width, empty / 1-row / 1-query edges), including
// first-wins argmax tie-breaking. Backends the host CPU cannot run are
// skipped with a visible notice.
#include "src/common/kernels/backend.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/bitops_batch.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace memhd::common {
namespace {

// Restores the entering backend (and re-runs auto detection if the test
// fiddled with the environment) so tests compose in any order.
class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend().name) {}
  ~BackendGuard() {
    ::unsetenv("MEMHD_BATCH_KERNEL");
    select_backend(prev_);
  }

 private:
  std::string prev_;
};

std::vector<BitVector> random_queries(std::size_t n, std::size_t dim,
                                      Rng& rng) {
  std::vector<BitVector> qs;
  qs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    qs.push_back(BitVector::random(dim, rng));
  return qs;
}

// Every supported backend in the registry; logs one notice per skipped one.
std::vector<const KernelBackend*> supported_backends() {
  std::vector<const KernelBackend*> out;
  for (const KernelBackend* backend : kernel_backends()) {
    if (backend->supported()) {
      out.push_back(backend);
    } else {
      std::printf("[ SKIPPED  ] backend %s: not supported on this CPU\n",
                  backend->name);
    }
  }
  return out;
}

TEST(KernelBackends, RegistryShapeAndAliases) {
  const auto backends = kernel_backends();
  ASSERT_FALSE(backends.empty());
  // Portable is the last-resort fallback: always present, always supported,
  // row-major (no repack), and reachable through its short alias.
  const KernelBackend* portable = backends.back();
  EXPECT_STREQ(portable->name, "portable-tiled");
  EXPECT_TRUE(portable->supported());
  EXPECT_EQ(portable->lane_rows, 1u);  // row-major: dispatcher skips repack
  EXPECT_EQ(find_kernel_backend("portable"), portable);
  EXPECT_EQ(find_kernel_backend("portable-tiled"), portable);
  EXPECT_EQ(find_kernel_backend("no-such-backend"), nullptr);
  for (const KernelBackend* backend : backends) {
    EXPECT_NE(backend->scores_block, nullptr) << backend->name;
    EXPECT_GE(backend->lane_rows, 1u) << backend->name;
    EXPECT_EQ(find_kernel_backend(backend->name), backend);
  }
#if defined(__x86_64__) && defined(__GNUC__)
  EXPECT_EQ(find_kernel_backend("avx512"),
            find_kernel_backend("avx512-vpopcntdq"));
  EXPECT_NE(find_kernel_backend("avx2"), nullptr);
#endif
}

TEST(KernelBackends, SelectBackendSwitchesAndRejectsUnknown) {
  BackendGuard guard;
  const char* before = active_backend().name;
  EXPECT_FALSE(select_backend("no-such-backend"));
  EXPECT_STREQ(active_backend().name, before);  // unchanged on failure
  ASSERT_TRUE(select_backend("portable"));
  EXPECT_STREQ(active_backend().name, "portable-tiled");
  for (const KernelBackend* backend : supported_backends()) {
    ASSERT_TRUE(select_backend(backend->name)) << backend->name;
    EXPECT_EQ(&active_backend(), backend);
  }
  EXPECT_TRUE(select_backend("auto"));
}

TEST(KernelBackends, EnvOverrideIsRecheckable) {
  BackendGuard guard;
  // The old design latched MEMHD_BATCH_KERNEL once per process; the
  // registry re-reads it on every select_backend("auto").
  ASSERT_EQ(::setenv("MEMHD_BATCH_KERNEL", "portable", 1), 0);
  ASSERT_TRUE(select_backend("auto"));
  EXPECT_STREQ(active_backend().name, "portable-tiled");
  ASSERT_EQ(::unsetenv("MEMHD_BATCH_KERNEL"), 0);
  ASSERT_TRUE(select_backend("auto"));
  // With the env cleared, auto picks the first supported registry entry.
  EXPECT_EQ(&active_backend(), supported_backends().front());
}

// The cross-backend bit-identity sweep: force-select each backend and
// assert scores (AND and XOR) and fused argmax equality against the
// portable path. Shapes stress every lane geometry: dims around 64-bit
// word boundaries, rows around the 2/4/8/16 lane and tile edges, batches
// around the 2/4-query tiles and the 32-query dispatch block.
class KernelBackendSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(KernelBackendSweep, BitIdenticalToPortable) {
  const auto [nrows, dim, batch] = GetParam();
  BackendGuard guard;
  Rng rng(nrows * 92821 + dim * 613 + batch);
  const BitMatrix rows = BitMatrix::random(nrows, dim, rng);
  const auto queries = random_queries(batch, dim, rng);
  const std::span<const BitVector> qspan(queries);

  ASSERT_TRUE(select_backend("portable"));
  std::vector<std::uint32_t> want_and, want_xor, want_argmax;
  blocked_popcount_scores(rows, qspan, PopcountOp::kAnd, want_and);
  blocked_popcount_scores(rows, qspan, PopcountOp::kXor, want_xor);
  blocked_dot_argmax(rows, qspan, want_argmax);

  for (const KernelBackend* backend : supported_backends()) {
    ASSERT_TRUE(select_backend(backend->name));
    std::vector<std::uint32_t> got;
    blocked_popcount_scores(rows, qspan, PopcountOp::kAnd, got);
    EXPECT_EQ(got, want_and) << backend->name << " AND scores diverge";
    blocked_popcount_scores(rows, qspan, PopcountOp::kXor, got);
    EXPECT_EQ(got, want_xor) << backend->name << " XOR scores diverge";
    blocked_dot_argmax(rows, qspan, got);
    EXPECT_EQ(got, want_argmax) << backend->name << " argmax diverges";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, KernelBackendSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 33),
                       ::testing::Values(1, 63, 64, 65, 129, 200),
                       ::testing::Values(1, 2, 3, 5, 33)));

TEST(KernelBackends, FirstWinsTieBreakOnEveryBackend) {
  // Duplicate rows force exact score ties; every backend must return the
  // first (lowest-index) maximal row, like argmax_u32, on both the odd
  // 21-row and the lane-aligned 32-row plane.
  BackendGuard guard;
  Rng rng(4242);
  for (const std::size_t nrows : {21UL, 32UL}) {
    const std::size_t dim = 130;
    const auto proto_a = BitVector::random(dim, rng);
    const auto proto_b = BitVector::random(dim, rng);
    BitMatrix rows(nrows, dim);
    for (std::size_t r = 0; r < nrows; ++r)
      rows.set_row(r, (r % 3 == 1) ? proto_b : proto_a);
    const auto queries = random_queries(19, dim, rng);

    for (const KernelBackend* backend : supported_backends()) {
      ASSERT_TRUE(select_backend(backend->name));
      std::vector<std::uint32_t> got;
      blocked_dot_argmax(rows, std::span<const BitVector>(queries), got);
      std::vector<std::uint32_t> scores;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        rows.mvm(queries[q], scores);
        ASSERT_EQ(got[q], argmax_u32(scores))
            << backend->name << " nrows=" << nrows << " q=" << q;
      }
    }
  }
}

TEST(KernelBackends, EmptyShapesOnEveryBackend) {
  BackendGuard guard;
  Rng rng(7);
  const BitMatrix rows = BitMatrix::random(5, 70, rng);
  const BitMatrix empty_rows(0, 70);
  const auto queries = random_queries(3, 70, rng);
  for (const KernelBackend* backend : supported_backends()) {
    ASSERT_TRUE(select_backend(backend->name));
    std::vector<std::uint32_t> out(9, 123);
    blocked_popcount_scores(rows, std::span<const BitVector>(),
                            PopcountOp::kAnd, out);
    EXPECT_TRUE(out.empty()) << backend->name;
    blocked_popcount_scores(empty_rows, std::span<const BitVector>(queries),
                            PopcountOp::kAnd, out);
    EXPECT_TRUE(out.empty()) << backend->name;
    // Argmax output is per query even when the row plane is empty (the
    // values are unspecified; only the shape is contractual).
    blocked_dot_argmax(empty_rows, std::span<const BitVector>(queries), out);
    EXPECT_EQ(out.size(), queries.size()) << backend->name;
  }
}

TEST(KernelBackends, BatchScorerPinsItsConstructionBackend) {
  BackendGuard guard;
  Rng rng(99);
  const BitMatrix rows = BitMatrix::random(13, 190, rng);
  const auto queries = random_queries(9, 190, rng);

  ASSERT_TRUE(select_backend("portable"));
  const BatchScorer portable_scorer(rows);
  EXPECT_STREQ(portable_scorer.backend().name, "portable-tiled");
  std::vector<std::uint32_t> want;
  portable_scorer.scores(std::span<const BitVector>(queries),
                         PopcountOp::kAnd, want);

  for (const KernelBackend* backend : supported_backends()) {
    ASSERT_TRUE(select_backend(backend->name));
    // A scorer built now pins this backend...
    const BatchScorer pinned(rows);
    EXPECT_EQ(&pinned.backend(), backend);
    // ...and the portable-built scorer keeps serving correct results even
    // though the active backend changed under it (its repack geometry is
    // portable's, not the new backend's).
    std::vector<std::uint32_t> got;
    portable_scorer.scores(std::span<const BitVector>(queries),
                           PopcountOp::kAnd, got);
    EXPECT_EQ(got, want) << "stale scorer broke under " << backend->name;
    pinned.scores(std::span<const BitVector>(queries), PopcountOp::kAnd, got);
    EXPECT_EQ(got, want) << backend->name;
  }
}

}  // namespace
}  // namespace memhd::common
