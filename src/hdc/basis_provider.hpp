// The basis-provider seam: where the projection encoder's bipolar matrix
// comes from.
//
// ProjectionEncoder consumes its D x f sign plane exclusively through this
// interface, so the plane can either be held in memory (MaterializedBasis:
// the packed signs, f * D bits, the software-speed choice) or regenerated
// on demand from a counter-mode RNG stream (RematerializedBasis: O(1)
// resident memory regardless of D, the ultra-high-D / many-model choice;
// Schmuck et al., "Rematerialization of Hypervectors").
//
// Both implementations derive the SAME bits for the same seed: word w of row
// d is basis_word(seed, d * words_per_row + w), one SplitMix64 counter-mode
// block with O(1) random access. MaterializedBasis simply caches the stream;
// RematerializedBasis replays it inside the encode loops. Flipping
// ProjectionEncoderConfig::basis therefore never changes a single output
// bit — only where the bits live (property-tested in
// tests/hdc/test_basis_provider.cpp).
//
// The counter layout (row-major, words_per_row = ceil(f / 64) words per row,
// tail bits masked) is a SERIALIZATION CONTRACT: model files persist only
// {seed, shape}, so changing the layout silently corrupts every saved
// model.
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
/// random access — and therefore rematerialization and the sparse encode
/// path — possible.
std::uint64_t basis_word(std::uint64_t seed, std::uint64_t counter);

/// Bulk form: out[i] = basis_word(seed, counter + i) for i in [0, count).
/// Counter-mode blocks are embarrassingly parallel, so the expansion loops
/// run 8 SplitMix64 streams per SIMD lane-group instead of one scalar word
/// at a time — bit-identical to the scalar form (exact integer arithmetic;
/// the golden-value tests hold for both), just faster to replay.
void basis_words(std::uint64_t seed, std::uint64_t counter, std::size_t count,
                 std::uint64_t* out);

/// Abstract source of the D x f bipolar sign plane. All row/word/tile
/// accessors return identical bits across implementations for the same
/// (seed, shape).
class BasisProvider {
 public:
  virtual ~BasisProvider() = default;
  BasisProvider(const BasisProvider&) = delete;
  BasisProvider& operator=(const BasisProvider&) = delete;

  virtual BasisKind kind() const = 0;
  std::size_t dim() const { return dim_; }
  std::size_t num_features() const { return num_features_; }
  std::size_t words_per_row() const { return words_per_row_; }
  std::uint64_t seed() const { return seed_; }

  /// Selected packed sign words of row d: out[i] = word word_index[i] of the
  /// row (tail word masked). The sparse encode path uses this to touch only
  /// the words covering non-zero features.
  virtual void sign_words(std::size_t d, const std::uint32_t* word_index,
                          std::size_t count, std::uint64_t* out) const = 0;

  /// All packed sign words of rows [d, d + count), row-major (words_per_row()
  /// words per row, tail words masked) — the dense encode kernel's source.
  /// Handing out bits instead of floats lets the encoder expand signs word by
  /// word INSIDE its FMA loop, where the expansion micro-ops hide in the
  /// load-port slack: a materialized plane streams one bit per weight
  /// instead of a 4-byte float, and a rematerialized plane's replay overlaps
  /// the math instead of running as a serial phase before it.
  virtual void sign_rows(std::size_t d, std::size_t count,
                         std::uint64_t* out) const = 0;

  /// The IMC encoder-matrix tile for features [f0, f1) x dims [d0, d1), in
  /// the EM's wordline-major layout: cell (f - f0, d - d0) = sign of weight
  /// M[f][d]. A rematerialized plane is materialized per tile here — only
  /// while arrays are being programmed — and never in full.
  virtual common::BitMatrix em_tile(std::size_t f0, std::size_t f1,
                                    std::size_t d0, std::size_t d1) const = 0;

  /// Table I model memory: f * D bits, identical for both kinds — the
  /// deployed IMC plane is the same matrix regardless of how software
  /// stores it.
  std::size_t model_bits() const { return dim_ * num_features_; }

  /// Bytes this provider actually holds resident in software: the object
  /// plus the packed signs (dim() x words_per_row() words) when
  /// materialized, O(1) (the seed and shape) when rematerialized.
  virtual std::size_t resident_bytes() const = 0;

 protected:
  BasisProvider(std::size_t dim, std::size_t num_features, std::uint64_t seed);

  std::size_t dim_;
  std::size_t num_features_;
  std::size_t words_per_row_;
  std::uint64_t seed_;
};

/// The resident plane: the packed counter-stream signs.
class MaterializedBasis final : public BasisProvider {
 public:
  MaterializedBasis(std::size_t dim, std::size_t num_features,
                    std::uint64_t seed);

  BasisKind kind() const override { return BasisKind::kMaterialized; }
  void sign_words(std::size_t d, const std::uint32_t* word_index,
                  std::size_t count, std::uint64_t* out) const override;
  void sign_rows(std::size_t d, std::size_t count,
                 std::uint64_t* out) const override;
  common::BitMatrix em_tile(std::size_t f0, std::size_t f1, std::size_t d0,
                            std::size_t d1) const override;
  std::size_t resident_bytes() const override;

  /// The packed D x f sign matrix (what gets programmed into IMC arrays).
  const common::BitMatrix& sign_matrix() const { return signs_; }

 private:
  common::BitMatrix signs_;  // dim x num_features packed bipolar signs
};

/// The O(1) plane: nothing resident but the seed and shape; every accessor
/// replays the counter-mode stream.
class RematerializedBasis final : public BasisProvider {
 public:
  RematerializedBasis(std::size_t dim, std::size_t num_features,
                      std::uint64_t seed);

  BasisKind kind() const override { return BasisKind::kRematerialized; }
  void sign_words(std::size_t d, const std::uint32_t* word_index,
                  std::size_t count, std::uint64_t* out) const override;
  void sign_rows(std::size_t d, std::size_t count,
                 std::uint64_t* out) const override;
  common::BitMatrix em_tile(std::size_t f0, std::size_t f1, std::size_t d0,
                            std::size_t d1) const override;
  std::size_t resident_bytes() const override { return sizeof(*this); }
};

/// Factory. Throws ConfigError for dim == 0, num_features == 0, or an
/// unknown kind.
std::shared_ptr<const BasisProvider> make_basis_provider(
    BasisKind kind, std::size_t dim, std::size_t num_features,
    std::uint64_t seed);

}  // namespace memhd::hdc
