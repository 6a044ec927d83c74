// Property tests for the basis-provider seam: a rematerialized plane is
// bit-identical to the materialized one — for feature-major words, EM
// tiles, and every encoder surface built on them — while holding O(1)
// resident memory.
#include "src/hdc/basis_provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bitops.hpp"
#include "src/common/rng.hpp"
#include "src/hdc/projection_encoder.hpp"

namespace memhd::hdc {
namespace {

// Odd, boundary-hugging shapes: single cell, one-word rows, exactly
// word-aligned rows, multi-word rows with tails, and dims at, just past and
// short of one 64-dimension word.
const std::pair<std::size_t, std::size_t> kOddShapes[] = {
    {1, 1},  {3, 65}, {17, 127}, {33, 128}, {100, 257},
    {64, 4}, {65, 5}, {257, 3}};
// {num_features, dim} per shape (features first to stress tail masking).

ProjectionEncoderConfig make_config(std::size_t f, std::size_t d,
                                    BasisKind basis,
                                    std::uint64_t seed = 42) {
  ProjectionEncoderConfig cfg;
  cfg.num_features = f;
  cfg.dim = d;
  cfg.seed = seed;
  cfg.basis = basis;
  return cfg;
}

std::vector<float> random_features(std::size_t f, common::Rng& rng) {
  std::vector<float> x(f);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  return x;
}

common::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             common::Rng& rng) {
  common::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (auto& v : m.row(r)) v = static_cast<float>(rng.uniform());
  return m;
}

// Word w of output dimension d in the frozen counter stream, tail masked:
// read straight from basis_word, which the golden-value tests pin.
std::uint64_t stream_word(const BasisProvider& basis, std::size_t d,
                          std::size_t w) {
  const std::size_t wpr = basis.words_per_row();
  std::uint64_t word = basis_word(basis.seed(), d * wpr + w);
  if (w + 1 == wpr) word &= common::tail_mask(basis.num_features());
  return word;
}

// Test-local reference for the projection, independent of the encoder's
// kernel and of the provider's accessor: expand the stream's words to +/-1
// and add w * x[f] in ascending f from +0.0f.
std::vector<float> reference_project(const BasisProvider& basis,
                                     std::span<const float> x) {
  std::vector<float> h(basis.dim());
  for (std::size_t d = 0; d < basis.dim(); ++d) {
    float acc = 0.0f;
    for (std::size_t w = 0; w < basis.words_per_row(); ++w) {
      const std::uint64_t word = stream_word(basis, d, w);
      for (std::size_t f = w * 64; f < std::min(x.size(), w * 64 + 64); ++f)
        acc += ((word >> (f & 63)) & 1ULL ? 1.0f : -1.0f) * x[f];
    }
    h[d] = acc;
  }
  return h;
}

// The reference threshold: bit d is set when h[d] exceeds 0 or the
// ascending-order mean of h.
common::BitVector reference_binarize(const std::vector<float>& h,
                                     BinarizeMode mode) {
  float threshold = 0.0f;
  if (mode == BinarizeMode::kSampleMean) {
    float sum = 0.0f;
    for (const float v : h) sum += v;
    threshold = sum / static_cast<float>(h.size());
  }
  common::BitVector bits(h.size());
  for (std::size_t d = 0; d < h.size(); ++d)
    if (h[d] > threshold) bits.set(d, true);
  return bits;
}

// The row kinds of the reference table: 0 dense, 1 sparse (one non-zero in
// four features), 2 dense with one -0.0f entry, 3 all zeros, 4 a single
// non-zero feature.
std::vector<float> reference_row(std::size_t kind, std::size_t nf,
                                 common::Rng& rng) {
  std::vector<float> x(nf, 0.0f);
  const auto value = [&] { return static_cast<float>(rng.uniform(-1.0, 1.0)); };
  if (kind == 0 || kind == 2)
    for (auto& v : x) v = value();
  if (kind == 1)
    for (std::size_t i = 0; i < (nf - 1) / 4; ++i) x[4 * i + 3] = value();
  if (kind == 2) x[nf / 2] = -0.0f;
  if (kind == 4) x[nf / 3] = value();
  return x;
}

// Row kinds by row index, laid out so the kernel's four-row groups mix
// them: rows 0-3 put an all-zero row among dense rows, whose features the
// kernel must still add for the other rows; the rest cycle every kind
// through every group position, and row 16 starts a second 16-row chunk.
const std::size_t kRowKinds[] = {0, 3, 2, 0, 4, 1, 0, 2, 3,
                                 0, 0, 4, 1, 2, 0, 3, 4};

// ------------------------------------------------------- the counter stream

TEST(BasisWord, GoldenValues) {
  // Frozen values of the counter-mode stream. These ARE the serialization
  // contract: a rematerialized model file stores only its seed, so if these
  // change, every saved rematerialized model silently decodes to a
  // different plane. Never update these constants.
  EXPECT_EQ(basis_word(42, 0), 0xBDD732262FEB6E95ULL);
  EXPECT_EQ(basis_word(42, 1), 0x28EFE333B266F103ULL);
  EXPECT_EQ(basis_word(42, 2), 0x47526757130F9F52ULL);
  EXPECT_EQ(basis_word(42, 17), 0x7ED90003F67F9E1DULL);
  EXPECT_EQ(basis_word(42, 1000000), 0xB053C53312AC3FFBULL);
  EXPECT_EQ(basis_word(7, 3), 0x953AEB70673E29CBULL);
}

TEST(BasisWord, CounterJumpMatchesSequentialStream) {
  // O(1) random access: word k equals the k-th draw of a sequential
  // SplitMix64 stream started at the seed.
  std::uint64_t state = 42;
  for (std::uint64_t k = 0; k < 100; ++k)
    EXPECT_EQ(basis_word(42, k), common::splitmix64(state)) << "k=" << k;
}

TEST(BasisWord, BulkFormMatchesScalarAtEveryAlignment) {
  // basis_words is the lane-parallel fast path of the SAME frozen stream:
  // every output word must equal the scalar basis_word, for counts around
  // the 8-lane group size (tails, exact multiples, sub-group counts) and
  // arbitrary counter offsets.
  for (const std::uint64_t seed : {42ULL, 7ULL, 0ULL}) {
    for (const std::uint64_t counter : {0ULL, 1ULL, 13ULL, 1000000ULL}) {
      for (const std::size_t count : {0UL, 1UL, 7UL, 8UL, 9UL, 64UL, 100UL}) {
        std::vector<std::uint64_t> bulk(count + 1, 0xA5A5A5A5A5A5A5A5ULL);
        basis_words(seed, counter, count, bulk.data());
        for (std::size_t i = 0; i < count; ++i)
          ASSERT_EQ(bulk[i], basis_word(seed, counter + i))
              << "seed=" << seed << " counter=" << counter << " i=" << i;
        EXPECT_EQ(bulk[count], 0xA5A5A5A5A5A5A5A5ULL);  // no overrun
      }
    }
  }
}

// ------------------------------------------------- provider-level identity

TEST(BasisProvider, EmTilesIdenticalAcrossKinds) {
  for (const auto& [nf, dim] : kOddShapes) {
    const auto mat = make_basis_provider(BasisKind::kMaterialized, dim, nf, 9);
    const auto rem =
        make_basis_provider(BasisKind::kRematerialized, dim, nf, 9);
    ASSERT_EQ(mat->words_per_row(), rem->words_per_row());

    // Full-plane tile and an interior, unaligned tile.
    EXPECT_TRUE(mat->em_tile(0, nf, 0, dim) == rem->em_tile(0, nf, 0, dim));
    if (nf > 2 && dim > 3) {
      EXPECT_TRUE(mat->em_tile(1, nf - 1, 2, dim - 1) ==
                  rem->em_tile(1, nf - 1, 2, dim - 1));
    }
  }
}

TEST(BasisProvider, FeatureWordsMatchTheCounterStream) {
  // feature_words is the encode kernel's only view of the plane. For both
  // kinds, at tiles of 1, 2 and every dimension word (the last tile of a
  // split may be narrower), bit d % 64 of feature f's word must be bit f of
  // the stream's word for dimension d, and every bit for d >= D must be 0
  // — a set padding bit would be a phantom +1 weight.
  for (const auto& [nf, dim] : kOddShapes) {
    const std::size_t dim_words = (dim + 63) / 64;
    for (const BasisKind kind :
         {BasisKind::kMaterialized, BasisKind::kRematerialized}) {
      const auto basis = make_basis_provider(kind, dim, nf, 9);
      for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                      dim_words}) {
        for (std::size_t w0 = 0; w0 < dim_words; w0 += width) {
          const std::size_t count = std::min(width, dim_words - w0);
          std::vector<std::uint64_t> scratch;
          const SignTile tile = basis->feature_words(w0, count, scratch);
          for (std::size_t f = 0; f < nf; ++f) {
            for (std::size_t i = 0; i < count; ++i) {
              std::uint64_t want = 0;
              for (std::size_t b = 0; b < 64; ++b) {
                const std::size_t d = (w0 + i) * 64 + b;
                if (d < dim && (stream_word(*basis, d, f / 64) >> (f % 64)) & 1)
                  want |= 1ULL << b;
              }
              ASSERT_EQ(tile.words[f * tile.stride + i], want)
                  << "shape " << nf << "x" << dim << " kind "
                  << static_cast<int>(kind) << " width " << width
                  << " feature " << f << " word " << w0 + i;
            }
          }
        }
      }
      // em_tile reads the same bits at an unaligned interior tile.
      const auto tile = basis->em_tile(nf / 2, nf, dim / 3, dim);
      for (std::size_t f = nf / 2; f < nf; ++f)
        for (std::size_t d = dim / 3; d < dim; ++d)
          ASSERT_EQ(tile.get(f - nf / 2, d - dim / 3),
                    ((stream_word(*basis, d, f / 64) >> (f % 64)) & 1) != 0)
              << "shape " << nf << "x" << dim << " cell " << f << "," << d;
    }
  }
}

TEST(BasisProvider, ResidentBytesContrast) {
  const std::size_t nf = 128, dim = 4096;
  const auto mat = make_basis_provider(BasisKind::kMaterialized, dim, nf, 1);
  const auto rem = make_basis_provider(BasisKind::kRematerialized, dim, nf, 1);
  // Both model the same f x D deployed bits...
  EXPECT_EQ(mat->model_bits(), nf * dim);
  EXPECT_EQ(rem->model_bits(), nf * dim);
  // ...but only one of them pays for it in software. The materialized plane
  // is its object plus the packed bits, f rows of ceil(D / 64) words; the
  // rematerialized plane is a few dozen bytes of object header.
  EXPECT_EQ(mat->resident_bytes(),
            sizeof(MaterializedBasis) +
                nf * ((dim + 63) / 64) * sizeof(std::uint64_t));
  EXPECT_LE(rem->resident_bytes(), 64u);
}

TEST(BasisProvider, ConfigErrors) {
  EXPECT_THROW(make_basis_provider(BasisKind::kMaterialized, 0, 8, 1),
               ConfigError);
  EXPECT_THROW(make_basis_provider(BasisKind::kRematerialized, 8, 0, 1),
               ConfigError);
}

// ------------------------------------------------ encoder-level identity

TEST(RematEncoder, EncodeIdenticalToMaterializedOverOddShapes) {
  for (const auto& [nf, dim] : kOddShapes) {
    for (const BinarizeMode mode :
         {BinarizeMode::kSampleMean, BinarizeMode::kZeroThreshold}) {
      auto cm = make_config(nf, dim, BasisKind::kMaterialized);
      auto cr = make_config(nf, dim, BasisKind::kRematerialized);
      cm.binarize = cr.binarize = mode;
      const ProjectionEncoder mat(cm);
      const ProjectionEncoder rem(cr);
      common::Rng rng(nf * 131 + dim);
      for (int trial = 0; trial < 4; ++trial) {
        const auto x = random_features(nf, rng);
        const auto pm = mat.project(x);
        const auto pr = rem.project(x);
        for (std::size_t d = 0; d < dim; ++d)
          ASSERT_EQ(pm[d], pr[d]) << nf << "x" << dim << " dim " << d;
        ASSERT_TRUE(mat.encode(x) == rem.encode(x)) << nf << "x" << dim;
      }

      // Both bases against the test-local reference, one row at a time and
      // at batch counts around the four-row group and the 16-row chunk,
      // over every row kind.
      for (const ProjectionEncoder* enc : {&mat, &rem}) {
        for (const std::size_t batch :
             {1UL, 2UL, 3UL, 4UL, 5UL, 7UL, 8UL, 15UL, 16UL, 17UL}) {
          common::Matrix features(batch, nf);
          std::vector<common::BitVector> expected;
          for (std::size_t r = 0; r < batch; ++r) {
            const std::size_t kind = kRowKinds[r];
            const auto x = reference_row(kind, nf, rng);
            std::copy(x.begin(), x.end(), features.row(r).begin());
            const auto h = reference_project(enc->basis(), x);
            const auto ph = enc->project(x);
            for (std::size_t d = 0; d < dim; ++d)
              ASSERT_EQ(ph[d], h[d])
                  << nf << "x" << dim << " kind " << kind << " dim " << d;
            expected.push_back(reference_binarize(h, mode));
            ASSERT_TRUE(enc->encode(x) == expected.back())
                << nf << "x" << dim << " kind " << kind;
          }
          const auto got = enc->encode_batch(features);
          for (std::size_t r = 0; r < batch; ++r)
            ASSERT_TRUE(got[r] == expected[r])
                << nf << "x" << dim << " batch " << batch << " row " << r;
        }
      }
    }
  }
}

TEST(RematEncoder, EncodeBatchIdenticalAtOddCounts) {
  const std::size_t nf = 65, dim = 127;
  const ProjectionEncoder mat(make_config(nf, dim, BasisKind::kMaterialized));
  const ProjectionEncoder rem(
      make_config(nf, dim, BasisKind::kRematerialized));
  common::Rng rng(21);
  // 37 rows: crosses one full 16-sample block plus a 5-row remainder.
  const auto features = random_matrix(37, nf, rng);
  const auto bm = mat.encode_batch(features);
  const auto br = rem.encode_batch(features);
  ASSERT_EQ(bm.size(), br.size());
  for (std::size_t i = 0; i < bm.size(); ++i) {
    EXPECT_TRUE(bm[i] == br[i]) << "row " << i;
    // and the batch path agrees with per-sample encode in both modes
    EXPECT_TRUE(bm[i] == mat.encode(features.row(i))) << "row " << i;
  }
}

TEST(RematEncoder, MostlyZeroRowMatchesReference) {
  // Mostly-zero input: the kernel adds only the features that are non-zero
  // in the row, and must still equal the reference's full accumulation bit
  // for bit — including a -0.0f input, which the kernel skips and the
  // reference adds as a signed zero (a no-op on an accumulator that starts
  // at +0).
  const std::size_t nf = 257, dim = 65;
  for (const BasisKind kind :
       {BasisKind::kMaterialized, BasisKind::kRematerialized}) {
    const ProjectionEncoder enc(make_config(nf, dim, kind));
    std::vector<float> x(nf, 0.0f);
    x[0] = 0.75f;
    x[64] = -1.5f;   // word boundary
    x[65] = 2.0f;
    x[200] = 0.25f;
    x[nf - 1] = 1.0f;
    x[100] = -0.0f;  // negative zero: skipped by the kernel
    const auto h = enc.project(x);
    const auto want = reference_project(enc.basis(), x);
    for (std::size_t d = 0; d < dim; ++d)
      ASSERT_EQ(h[d], want[d]) << "kind " << static_cast<int>(kind)
                               << " dim " << d;
  }
}

TEST(RematEncoder, EachAddedNonZeroFeatureMatchesReference) {
  // The same feature vector at nf/4 non-zeros and again with one more:
  // each projection must match the reference for its own input, so the
  // zero skip drops exactly the zero features.
  const std::size_t nf = 64, dim = 32;
  const ProjectionEncoder enc(
      make_config(nf, dim, BasisKind::kRematerialized));
  common::Rng rng(5);
  std::vector<float> x(nf, 0.0f);
  for (std::size_t f = 0; f < 16; ++f)  // exactly nf/4 non-zeros
    x[f * 4] = static_cast<float>(rng.uniform());
  const auto sparse_h = enc.project(x);
  const auto sparse_want = reference_project(enc.basis(), x);
  x[1] = 0.5f;  // 17 non-zeros
  const auto dense_h = enc.project(x);
  const auto dense_want = reference_project(enc.basis(), x);
  for (std::size_t d = 0; d < dim; ++d) {
    ASSERT_EQ(sparse_h[d], sparse_want[d]) << "dim " << d;
    ASSERT_EQ(dense_h[d], dense_want[d]) << "dim " << d;
  }
}

TEST(RematEncoder, ConfigErrorsAreTyped) {
  ProjectionEncoderConfig cfg;  // num_features = dim = 0
  EXPECT_THROW(ProjectionEncoder{cfg}, ConfigError);
  cfg.num_features = 8;
  EXPECT_THROW(ProjectionEncoder{cfg}, ConfigError);  // dim still 0
  cfg.dim = 16;
  EXPECT_NO_THROW(ProjectionEncoder{cfg});
}

TEST(RematEncoder, ResidentBytesAreO1AndMemoryBitsUnchanged) {
  const ProjectionEncoder mat(
      make_config(784, 10240, BasisKind::kMaterialized));
  const ProjectionEncoder rem(
      make_config(784, 10240, BasisKind::kRematerialized));
  EXPECT_EQ(mat.memory_bits(), 784u * 10240u);
  EXPECT_EQ(rem.memory_bits(), 784u * 10240u);
  EXPECT_GT(mat.resident_bytes(), 784u * 10240u / 8u);
  EXPECT_LE(rem.resident_bytes(), 64u);
}

}  // namespace
}  // namespace memhd::hdc
