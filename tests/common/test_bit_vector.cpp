#include "src/common/bit_vector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"

namespace memhd::common {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, SetGetFlipRoundTrip) {
  BitVector v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.set(0, false);
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, FromBoolsMatches) {
  std::vector<bool> bits = {true, false, true, true, false};
  const auto v = BitVector::from_bools(bits);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.to_bools(), bits);
}

TEST(BitVector, FromThresholdStrictlyGreater) {
  const float vals[] = {0.0f, 0.5f, 1.0f, -0.2f, 0.5001f};
  const auto v = BitVector::from_threshold(vals, 5, 0.5f);
  EXPECT_FALSE(v.get(0));
  EXPECT_FALSE(v.get(1));  // equal is not greater
  EXPECT_TRUE(v.get(2));
  EXPECT_FALSE(v.get(3));
  EXPECT_TRUE(v.get(4));

  // Around the 64-bit word boundary, every bit is `value > threshold`:
  // values equal to the threshold and NaN stay clear, -0.0f and +0.0f are
  // not above a threshold of 0, and the tail past n stays zero.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (const float threshold : {0.0f, 0.25f}) {
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        const float cycle[] = {threshold, nan, -0.0f, 0.0f, 1.0f, -1.0f,
                               std::nextafter(threshold, 1.0f)};
        x[i] = cycle[i % 7];
      }
      const auto bits = BitVector::from_threshold(x.data(), n, threshold);
      ASSERT_EQ(bits.size(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits.get(i), x[i] > threshold)
            << "n=" << n << " threshold " << threshold << " bit " << i;
      const std::size_t last = bits.num_words() - 1;
      EXPECT_EQ(bits.words()[last] & ~tail_mask(n), 0ULL) << "n=" << n;
    }
  }
}

TEST(BitVector, DotMatchesNaive) {
  Rng rng(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u, 1024u}) {
    const auto a = BitVector::random(n, rng);
    const auto b = BitVector::random(n, rng);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (a.get(i) && b.get(i)) ++naive;
    EXPECT_EQ(a.dot(b), naive) << "n=" << n;
  }
}

TEST(BitVector, HammingMatchesNaive) {
  Rng rng(6);
  for (const std::size_t n : {1u, 64u, 129u, 512u}) {
    const auto a = BitVector::random(n, rng);
    const auto b = BitVector::random(n, rng);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (a.get(i) != b.get(i)) ++naive;
    EXPECT_EQ(a.hamming(b), naive) << "n=" << n;
  }
}

TEST(BitVector, BitwiseOperators) {
  Rng rng(7);
  const std::size_t n = 150;
  const auto a = BitVector::random(n, rng);
  const auto b = BitVector::random(n, rng);
  const auto anded = a & b;
  const auto ored = a | b;
  const auto xored = a ^ b;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(anded.get(i), a.get(i) && b.get(i));
    EXPECT_EQ(ored.get(i), a.get(i) || b.get(i));
    EXPECT_EQ(xored.get(i), a.get(i) != b.get(i));
  }
}

TEST(BitVector, ComplementKeepsTailClear) {
  // ~v must not set the padding bits past size(); popcount would leak them.
  BitVector v(70);
  const auto inv = ~v;
  EXPECT_EQ(inv.popcount(), 70u);
  EXPECT_EQ((~inv).popcount(), 0u);
}

TEST(BitVector, RandomTailIsMasked) {
  Rng rng(8);
  const auto v = BitVector::random(65, rng);
  EXPECT_LE(v.popcount(), 65u);
  // Word 1 must only use its lowest bit.
  EXPECT_EQ(v.words()[1] >> 1, 0u);
}

TEST(BitVector, FillSetsEverythingAndRespectsTail) {
  BitVector v(90);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 90u);
  v.fill(false);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, EqualityIsValueBased) {
  Rng rng(9);
  const auto a = BitVector::random(128, rng);
  auto b = a;
  EXPECT_TRUE(a == b);
  b.flip(17);
  EXPECT_FALSE(a == b);
}

TEST(BitVector, BipolarAndFloatViews) {
  std::vector<bool> bits = {true, false, true};
  const auto v = BitVector::from_bools(bits);
  std::vector<float> bip, flt;
  v.to_bipolar(bip);
  v.to_floats(flt);
  EXPECT_EQ(bip, (std::vector<float>{1.0f, -1.0f, 1.0f}));
  EXPECT_EQ(flt, (std::vector<float>{1.0f, 0.0f, 1.0f}));
}

TEST(BitVector, ToStringFormat) {
  std::vector<bool> bits = {true, false, false, true};
  EXPECT_EQ(BitVector::from_bools(bits).to_string(), "1001");
}

TEST(BitVector, RandomIsRoughlyBalanced) {
  Rng rng(10);
  const auto v = BitVector::random(4096, rng);
  EXPECT_GT(v.popcount(), 1850u);
  EXPECT_LT(v.popcount(), 2250u);
}

// Property sweep: dot/hamming identities on random pairs of many sizes.
class BitVectorProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BitVectorProperty, DotHammingPopcountIdentity) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const auto a = BitVector::random(n, rng);
  const auto b = BitVector::random(n, rng);
  // |a| + |b| = 2*(a.b) + hamming(a,b)  for {0,1} vectors.
  EXPECT_EQ(a.popcount() + b.popcount(), 2 * a.dot(b) + a.hamming(b));
  // dot is symmetric and bounded.
  EXPECT_EQ(a.dot(b), b.dot(a));
  EXPECT_LE(a.dot(b), std::min(a.popcount(), b.popcount()));
  // hamming(a, a) == 0, dot(a, a) == |a|.
  EXPECT_EQ(a.hamming(a), 0u);
  EXPECT_EQ(a.dot(a), a.popcount());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BitVectorProperty,
    ::testing::Combine(::testing::Values(1, 7, 63, 64, 65, 127, 128, 1000),
                       ::testing::Values(1ULL, 2ULL, 3ULL)));

}  // namespace
}  // namespace memhd::common
