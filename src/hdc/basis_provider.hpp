// The basis-provider seam: where the projection encoder's bipolar matrix
// comes from.
//
// ProjectionEncoder consumes its f x D sign plane exclusively through this
// interface, so the plane can either be held in memory (MaterializedBasis:
// the packed signs, f * D bits, the software-speed choice) or regenerated
// on demand from a counter-mode RNG stream (RematerializedBasis: O(1)
// resident memory regardless of D, the ultra-high-D / many-model choice;
// Schmuck et al., "Rematerialization of Hypervectors").
//
// Both implementations derive the SAME bits for the same seed: the sign of
// weight (f, d) is bit f % 64 of basis_word(seed, d * words_per_row +
// f / 64), one SplitMix64 counter-mode block with O(1) random access.
// MaterializedBasis transposes that stream once into its feature-major
// plane; RematerializedBasis replays it and transposes it per tile inside
// the encode loop. Flipping ProjectionEncoderConfig::basis therefore never
// changes a single output bit — only where the bits live (property-tested
// in tests/hdc/test_basis_provider.cpp).
//
// The counter layout (row-major per output dimension, words_per_row =
// ceil(f / 64) words per row) is a SERIALIZATION CONTRACT: model files
// persist only {seed, shape}, so changing the layout silently corrupts every
// saved model.
//
// Thread contract: providers are IMMUTABLE after construction — no locks,
// no mutable members. One provider is safely shared, unsynchronized, by all
// serving threads and every copy-on-write model version
// (online::ModelStore); for a rematerialized plane the shared state is
// nothing heavier than the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/common/bit_matrix.hpp"

namespace memhd::hdc {

/// Where the encoder's sign plane lives.
enum class BasisKind : std::uint8_t {
  kMaterialized = 0,    // packed signs held in memory
  kRematerialized = 1,  // regenerated per tile from the seed, never stored
};

/// Typed construction-time configuration error (degenerate shapes, unknown
/// basis kinds). Thrown instead of aborting so API callers can surface bad
/// requests as errors.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One 64-bit block of the counter-mode basis stream. Stateless: word k of
/// the stream is a pure function of (seed, k), which is what makes O(1)
/// random access — and therefore rematerialization per tile — possible.
std::uint64_t basis_word(std::uint64_t seed, std::uint64_t counter);

/// Bulk form: out[i] = basis_word(seed, counter + i) for i in [0, count).
/// Counter-mode blocks are embarrassingly parallel, so the expansion loops
/// run 8 SplitMix64 streams per SIMD lane-group instead of one scalar word
/// at a time — bit-identical to the scalar form (exact integer arithmetic;
/// the golden-value tests hold for both), just faster to replay.
void basis_words(std::uint64_t seed, std::uint64_t counter, std::size_t count,
                 std::uint64_t* out);

/// A window of the feature-major sign plane, `count` words (64 output
/// dimensions each) wide starting at dimension word w0: bit b of
/// words[f * stride + i] is the sign of weight (f, 64 * (w0 + i) + b),
/// 1 for +1. Bits for dimensions >= dim() are 0.
struct SignTile {
  const std::uint64_t* words;
  std::size_t stride;
};

/// Abstract source of the f x D bipolar sign plane. Every accessor returns
/// identical bits across implementations for the same (seed, shape).
class BasisProvider {
 public:
  virtual ~BasisProvider() = default;
  BasisProvider(const BasisProvider&) = delete;
  BasisProvider& operator=(const BasisProvider&) = delete;

  virtual BasisKind kind() const = 0;
  std::size_t dim() const { return dim_; }
  std::size_t num_features() const { return num_features_; }
  /// Counter words per output dimension in the frozen stream: ceil(f / 64).
  std::size_t words_per_row() const { return words_per_row_; }
  std::uint64_t seed() const { return seed_; }

  /// The feature-major sign words of dimension words [w0, w0 + count), for
  /// all num_features() features — the encode kernel's only source.
  /// MaterializedBasis returns a view of its plane and leaves `scratch`
  /// alone; RematerializedBasis replays the tile's counter words into
  /// `scratch`, transposed, and returns a view of that. The view lives as
  /// long as the provider and `scratch` stay unchanged.
  virtual SignTile feature_words(std::size_t w0, std::size_t count,
                                 std::vector<std::uint64_t>& scratch) const = 0;

  /// The IMC encoder-matrix tile for features [f0, f1) x dims [d0, d1), in
  /// the EM's wordline-major layout: cell (f - f0, d - d0) = sign of weight
  /// M[f][d]. Read through feature_words, so a rematerialized plane is
  /// generated one tile at a time here — only while arrays are being
  /// programmed — and never in full.
  common::BitMatrix em_tile(std::size_t f0, std::size_t f1, std::size_t d0,
                            std::size_t d1) const;

  /// Table I model memory: f * D bits, identical for both kinds — the
  /// deployed IMC plane is the same matrix regardless of how software
  /// stores it.
  std::size_t model_bits() const { return dim_ * num_features_; }

  /// Bytes this provider actually holds resident in software: the object
  /// plus the packed signs (num_features() rows of ceil(dim() / 64) words)
  /// when materialized, O(1) (the seed and shape) when rematerialized.
  virtual std::size_t resident_bytes() const = 0;

 protected:
  BasisProvider(std::size_t dim, std::size_t num_features, std::uint64_t seed);

  std::size_t dim_;
  std::size_t num_features_;
  std::size_t words_per_row_;
  std::uint64_t seed_;
};

/// The resident plane: the counter-stream signs, feature-major (f rows of
/// ceil(D / 64) words — the IMC em_tile layout).
class MaterializedBasis final : public BasisProvider {
 public:
  MaterializedBasis(std::size_t dim, std::size_t num_features,
                    std::uint64_t seed);

  BasisKind kind() const override { return BasisKind::kMaterialized; }
  SignTile feature_words(std::size_t w0, std::size_t count,
                         std::vector<std::uint64_t>& scratch) const override;
  std::size_t resident_bytes() const override;

 private:
  common::BitMatrix signs_;  // num_features x dim packed bipolar signs
};

/// The O(1) plane: nothing resident but the seed and shape; every tile is
/// replayed from the counter-mode stream.
class RematerializedBasis final : public BasisProvider {
 public:
  RematerializedBasis(std::size_t dim, std::size_t num_features,
                      std::uint64_t seed);

  BasisKind kind() const override { return BasisKind::kRematerialized; }
  SignTile feature_words(std::size_t w0, std::size_t count,
                         std::vector<std::uint64_t>& scratch) const override;
  std::size_t resident_bytes() const override { return sizeof(*this); }
};

/// Factory. Throws ConfigError for dim == 0, num_features == 0, or an
/// unknown kind.
std::shared_ptr<const BasisProvider> make_basis_provider(
    BasisKind kind, std::size_t dim, std::size_t num_features,
    std::uint64_t seed);

}  // namespace memhd::hdc
