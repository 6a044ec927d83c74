#include "src/hdc/basis_provider.hpp"

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
  typedef std::uint64_t U64x8 __attribute__((vector_size(64)));
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

}  // namespace

BasisProvider::BasisProvider(std::size_t dim, std::size_t num_features,
                             std::uint64_t seed)
    : dim_(dim),
      num_features_(num_features),
      words_per_row_(common::words_for_bits(num_features)),
      seed_(seed) {
  validate_shape(dim, num_features);
}

// ------------------------------------------------------------ materialized --

MaterializedBasis::MaterializedBasis(std::size_t dim, std::size_t num_features,
                                     std::uint64_t seed)
    : BasisProvider(dim, num_features, seed),
      signs_(dim, num_features) {
  // Cache the counter stream: identical bits to what RematerializedBasis
  // replays on the fly (the cross-mode bit-identity contract).
  const std::uint64_t mask = common::tail_mask(num_features);
  for (std::size_t d = 0; d < dim; ++d) {
    std::uint64_t* row = signs_.row(d);
    basis_words(seed, static_cast<std::uint64_t>(d) * words_per_row_,
                words_per_row_, row);
    row[words_per_row_ - 1] &= mask;
  }
}

void MaterializedBasis::sign_rows(std::size_t d, std::size_t count,
                                  std::uint64_t* out) const {
  MEMHD_EXPECTS(d + count <= dim_);
  for (std::size_t i = 0; i < count; ++i)
    std::memcpy(out + i * words_per_row_, signs_.row(d + i),
                words_per_row_ * sizeof(std::uint64_t));
}

void MaterializedBasis::sign_words(std::size_t d,
                                   const std::uint32_t* word_index,
                                   std::size_t count,
                                   std::uint64_t* out) const {
  MEMHD_EXPECTS(d < dim_);
  const std::uint64_t* row = signs_.row(d);
  for (std::size_t i = 0; i < count; ++i) out[i] = row[word_index[i]];
}

common::BitMatrix MaterializedBasis::em_tile(std::size_t f0, std::size_t f1,
                                             std::size_t d0,
                                             std::size_t d1) const {
  MEMHD_EXPECTS(f0 <= f1 && f1 <= num_features_);
  MEMHD_EXPECTS(d0 <= d1 && d1 <= dim_);
  common::BitMatrix tile(f1 - f0, d1 - d0);
  for (std::size_t d = d0; d < d1; ++d)
    for (std::size_t f = f0; f < f1; ++f)
      if (signs_.get(d, f)) tile.set(f - f0, d - d0, true);
  return tile;
}

std::size_t MaterializedBasis::resident_bytes() const {
  return sizeof(*this) + dim_ * words_per_row_ * sizeof(std::uint64_t);
}

// ---------------------------------------------------------- rematerialized --

RematerializedBasis::RematerializedBasis(std::size_t dim,
                                         std::size_t num_features,
                                         std::uint64_t seed)
    : BasisProvider(dim, num_features, seed) {}

void RematerializedBasis::sign_rows(std::size_t d, std::size_t count,
                                    std::uint64_t* out) const {
  MEMHD_EXPECTS(d + count <= dim_);
  // Row-major counters make the whole group ONE contiguous stream; the
  // SIMD lane-groups of basis_words stay full across row boundaries.
  basis_words(seed_, static_cast<std::uint64_t>(d) * words_per_row_,
              count * words_per_row_, out);
  const std::uint64_t mask = common::tail_mask(num_features_);
  for (std::size_t i = 0; i < count; ++i)
    out[(i + 1) * words_per_row_ - 1] &= mask;
}

void RematerializedBasis::sign_words(std::size_t d,
                                     const std::uint32_t* word_index,
                                     std::size_t count,
                                     std::uint64_t* out) const {
  MEMHD_EXPECTS(d < dim_);
  const std::uint64_t base = static_cast<std::uint64_t>(d) * words_per_row_;
  const std::uint64_t mask = common::tail_mask(num_features_);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t w = word_index[i];
    std::uint64_t word = basis_word(seed_, base + w);
    if (w + 1 == words_per_row_) word &= mask;
    out[i] = word;
  }
}

common::BitMatrix RematerializedBasis::em_tile(std::size_t f0, std::size_t f1,
                                               std::size_t d0,
                                               std::size_t d1) const {
  MEMHD_EXPECTS(f0 <= f1 && f1 <= num_features_);
  MEMHD_EXPECTS(d0 <= d1 && d1 <= dim_);
  common::BitMatrix tile(f1 - f0, d1 - d0);
  for (std::size_t d = d0; d < d1; ++d) {
    const std::uint64_t base = static_cast<std::uint64_t>(d) * words_per_row_;
    std::uint64_t word = 0;
    std::size_t have_word = words_per_row_;  // sentinel: nothing cached
    for (std::size_t f = f0; f < f1; ++f) {
      const std::size_t w = f >> 6;
      if (w != have_word) {
        word = basis_word(seed_, base + w);
        have_word = w;
      }
      if ((word >> (f & 63)) & 1ULL) tile.set(f - f0, d - d0, true);
    }
  }
  return tile;
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
