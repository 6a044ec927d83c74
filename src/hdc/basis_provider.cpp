#include "src/hdc/basis_provider.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/assert.hpp"
#include "src/common/bitops.hpp"
#include "src/common/rng.hpp"

namespace memhd::hdc {

namespace {

// SplitMix64's constants (common::splitmix64 is the reference scalar form;
// the lane-parallel loop below must replay it bit-for-bit).
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBULL;

typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

}  // namespace

std::uint64_t basis_word(std::uint64_t seed, std::uint64_t counter) {
  // One counter-mode SplitMix64 block: jump the stream state directly to
  // `counter` (splitmix64 advances by the golden-ratio increment per step,
  // so state = seed + counter * increment IS step `counter`) and emit one
  // word. Pure function of (seed, counter) — the whole point.
  std::uint64_t state = seed + counter * kGolden;
  return common::splitmix64(state);
}

void basis_words(std::uint64_t seed, std::uint64_t counter, std::size_t count,
                 std::uint64_t* out) {
  std::size_t i = 0;
  // 8 independent counter streams per lane-group. Every operation is exact
  // 64-bit integer arithmetic, so each lane computes precisely
  // basis_word(seed, counter + i): splitmix64 post-increments the state
  // before mixing, hence the (counter + lane + 1) starting states.
  if (count >= 8) {
    const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
    U64x8 state = (seed + (counter + 1) * kGolden) + lane * kGolden;
    for (; i + 8 <= count; i += 8) {
      U64x8 z = state;
      z = (z ^ (z >> 30)) * kMix1;
      z = (z ^ (z >> 27)) * kMix2;
      z = z ^ (z >> 31);
      std::memcpy(out + i, &z, sizeof(z));
      state += 8 * kGolden;
    }
  }
  for (; i < count; ++i) out[i] = basis_word(seed, counter + i);
}

namespace {

void validate_shape(std::size_t dim, std::size_t num_features) {
  if (dim == 0)
    throw ConfigError("basis provider: dim must be > 0");
  if (num_features == 0)
    throw ConfigError("basis provider: num_features must be > 0");
}

/// In-place transpose of a 64 x 64 bit block: afterwards bit j of a[i] is
/// what bit i of a[j] was. Round j (32, 16, ..., 1) swaps the off-diagonal
/// j x j quarters of every 2j x 2j sub-block between rows k and k + j.
/// Eight rows per register: for j < 8 the partner row is lane k ^ j.
void transpose64(std::uint64_t* a) {
  U64x8 v[8];
  std::memcpy(v, a, sizeof(v));
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j >= 8; j >>= 1, m ^= m << j) {
    const unsigned s = j / 8;  // register distance of rows k and k + j
    for (unsigned k = 0; k < 8; k = (k + s + 1) & ~s) {
      const U64x8 lo = v[k], hi = v[k + s];
      v[k] = (lo & m) | ((hi << j) & ~m);
      v[k + s] = (hi & ~m) | ((lo >> j) & m);
    }
  }
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto in_register = [&lane](U64x8& r, U64x8 partner, unsigned j,
                                   std::uint64_t m) {
    const U64x8 lo = (U64x8)((lane & j) == 0);  // all-ones in row k's lanes
    const U64x8 keep = (lo & m) | (~lo & ~m);
    // Row k's lanes take (partner << j) & ~m, row k + j's (partner >> j) & m.
    r = (r & keep) | (((partner << (lo & j)) >> (~lo & j)) & ~keep);
  };
  for (U64x8& r : v) {
    in_register(r, __builtin_shufflevector(r, r, 4, 5, 6, 7, 0, 1, 2, 3), 4,
                0x0F0F0F0F0F0F0F0FULL);
    in_register(r, __builtin_shufflevector(r, r, 2, 3, 0, 1, 6, 7, 4, 5), 2,
                0x3333333333333333ULL);
    in_register(r, __builtin_shufflevector(r, r, 1, 0, 3, 2, 5, 4, 7, 6), 1,
                0x5555555555555555ULL);
  }
  std::memcpy(a, v, sizeof(v));
}

/// Feature-major words of dimension words [w0, w0 + count) into out[f *
/// stride + i]. Per dimension word, the 64 dims' row-major counter words are
/// one contiguous stream; each 64-feature column of it is transposed 64 x
/// 64. Bits for dims >= dim are 0.
void replay_feature_words(std::uint64_t seed, std::size_t dim,
                          std::size_t num_features, std::size_t w0,
                          std::size_t count, std::uint64_t* out,
                          std::size_t stride) {
  const std::size_t wpr = common::words_for_bits(num_features);
  std::vector<std::uint64_t> rows(64 * wpr);
  alignas(64) std::uint64_t block[64];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t d0 = (w0 + i) * 64;
    const std::size_t nd = std::min<std::size_t>(64, dim - d0);
    basis_words(seed, static_cast<std::uint64_t>(d0) * wpr, nd * wpr,
                rows.data());
    for (std::size_t fw = 0; fw < wpr; ++fw) {
      for (std::size_t r = 0; r < 64; ++r)
        block[r] = r < nd ? rows[r * wpr + fw] : 0ULL;
      transpose64(block);
      const std::size_t nfw = std::min<std::size_t>(64, num_features - fw * 64);
      for (std::size_t j = 0; j < nfw; ++j)
        out[(fw * 64 + j) * stride + i] = block[j];
    }
  }
}

}  // namespace

BasisProvider::BasisProvider(std::size_t dim, std::size_t num_features,
                             std::uint64_t seed)
    : dim_(dim),
      num_features_(num_features),
      words_per_row_(common::words_for_bits(num_features)),
      seed_(seed) {
  validate_shape(dim, num_features);
}

common::BitMatrix BasisProvider::em_tile(std::size_t f0, std::size_t f1,
                                         std::size_t d0,
                                         std::size_t d1) const {
  MEMHD_EXPECTS(f0 <= f1 && f1 <= num_features_);
  MEMHD_EXPECTS(d0 <= d1 && d1 <= dim_);
  common::BitMatrix tile(f1 - f0, d1 - d0);
  const std::size_t w0 = d0 / 64;
  std::vector<std::uint64_t> scratch;
  const SignTile signs =
      feature_words(w0, common::words_for_bits(d1) - w0, scratch);
  for (std::size_t f = f0; f < f1; ++f)
    common::copy_bit_range(signs.words + f * signs.stride, d0 - w0 * 64,
                           tile.row(f - f0), d1 - d0);
  return tile;
}

// ------------------------------------------------------------ materialized --

MaterializedBasis::MaterializedBasis(std::size_t dim, std::size_t num_features,
                                     std::uint64_t seed)
    : BasisProvider(dim, num_features, seed),
      signs_(num_features, dim) {
  // Cache the counter stream, transposed by the same replay the
  // rematerialized plane runs per tile (the cross-kind bit-identity
  // contract).
  replay_feature_words(seed, dim, num_features, 0, signs_.words_per_row(),
                       signs_.row(0), signs_.words_per_row());
}

SignTile MaterializedBasis::feature_words(
    std::size_t w0, std::size_t count,
    std::vector<std::uint64_t>& /*scratch*/) const {
  MEMHD_EXPECTS(w0 + count <= signs_.words_per_row());
  return {signs_.row(0) + w0, signs_.words_per_row()};
}

std::size_t MaterializedBasis::resident_bytes() const {
  return sizeof(*this) +
         num_features_ * signs_.words_per_row() * sizeof(std::uint64_t);
}

// ---------------------------------------------------------- rematerialized --

RematerializedBasis::RematerializedBasis(std::size_t dim,
                                         std::size_t num_features,
                                         std::uint64_t seed)
    : BasisProvider(dim, num_features, seed) {}

SignTile RematerializedBasis::feature_words(
    std::size_t w0, std::size_t count,
    std::vector<std::uint64_t>& scratch) const {
  MEMHD_EXPECTS(w0 + count <= common::words_for_bits(dim_));
  scratch.resize(num_features_ * count);
  replay_feature_words(seed_, dim_, num_features_, w0, count, scratch.data(),
                       count);
  return {scratch.data(), count};
}

// -------------------------------------------------------------------- make --

std::shared_ptr<const BasisProvider> make_basis_provider(
    BasisKind kind, std::size_t dim, std::size_t num_features,
    std::uint64_t seed) {
  validate_shape(dim, num_features);
  switch (kind) {
    case BasisKind::kMaterialized:
      return std::make_shared<const MaterializedBasis>(dim, num_features,
                                                       seed);
    case BasisKind::kRematerialized:
      return std::make_shared<const RematerializedBasis>(dim, num_features,
                                                         seed);
  }
  throw ConfigError("basis provider: unknown basis kind " +
                    std::to_string(static_cast<unsigned>(kind)));
}

}  // namespace memhd::hdc
