// Random-projection encoding (paper §II-B, Eq. 1): H = M^T F with a random
// bipolar projection matrix M, followed by 1-bit binarization.
//
// This is the encoder MEMHD and BasicHDC use, because the projection MVM
// maps directly onto an IMC array: M's sign bits are the array weights, the
// input features drive the rows, and the comparator at each column performs
// the binarization.
//
// The encoder is a facade over a BasisProvider (src/hdc/basis_provider.hpp):
// the sign plane is either held resident (kMaterialized — packed bits, the
// software-speed default) or regenerated on the fly from a counter-mode RNG
// stream (kRematerialized — O(1) encoder memory at any D). Both modes
// produce bit-identical encodings for the same seed; the model memory the
// paper's Table I counts (f x D bits) is the same either way, only the
// software-resident bytes differ. Every projection — encode(), project()
// and encode_batch — runs one feature-major kernel over the plane's
// f-row x D-column words: per tile of output dimensions it adds +/-x[f] in
// ascending f, and it skips a feature that is +/-0 in every row it is
// projecting (adding +/-0.0 to a sum that starts at +0 never changes it).
#pragma once

#include <cstdint>
#include <span>

#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/basis_provider.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::hdc {

/// How the real-valued projection output is collapsed to one bit per
/// dimension.
enum class BinarizeMode {
  /// bit_j = (h_j > 0) — natural for a bipolar matrix and zero-mean input.
  kZeroThreshold,
  /// bit_j = (h_j > mean_j(h)) — per-sample mean, robust to biased features
  /// (the library default; features here live in [0,1], not zero-mean).
  kSampleMean,
};

struct ProjectionEncoderConfig {
  std::size_t num_features = 0;
  std::size_t dim = 0;
  BinarizeMode binarize = BinarizeMode::kSampleMean;
  std::uint64_t seed = 1;
  /// Where the sign plane lives (resident vs regenerated). Never changes
  /// encoder outputs — see the header comment.
  BasisKind basis = BasisKind::kMaterialized;
};

class ProjectionEncoder {
 public:
  /// Throws ConfigError for num_features == 0 or dim == 0.
  explicit ProjectionEncoder(const ProjectionEncoderConfig& config);

  std::size_t num_features() const { return config_.num_features; }
  std::size_t dim() const { return config_.dim; }
  BinarizeMode binarize_mode() const { return config_.binarize; }
  BasisKind basis_kind() const { return config_.basis; }

  /// Encodes one feature vector (length num_features) into a packed binary
  /// hypervector of length dim.
  common::BitVector encode(std::span<const float> features) const;

  /// Real-valued projection (pre-binarization): h[d] sums +/-x[f] in
  /// ascending f from +0.0f. encode() thresholds exactly these values.
  std::vector<float> project(std::span<const float> features) const;

  /// Encodes rows [begin, begin + count) of a feature matrix (cols ==
  /// num_features) in chunks of kSampleBlock rows, parallel over chunks:
  /// within a chunk each tile of the sign plane is read (or
  /// rematerialized) once for all its rows. Bit-identical to encode() on
  /// each row.
  std::vector<common::BitVector> encode_batch(const common::Matrix& features,
                                              std::size_t begin,
                                              std::size_t count) const;
  /// Batch-encodes every row of `features`.
  std::vector<common::BitVector> encode_batch(
      const common::Matrix& features) const;

  /// Encodes a whole dataset (the heavy path: blocked batch encoding,
  /// parallel over sample blocks).
  EncodedDataset encode_dataset(const data::Dataset& dataset) const;

  /// The basis plane behind this encoder (IMC mapping, memory accounting;
  /// basis().em_tile(0, f, 0, D) is the whole sign matrix, bit = 1 for a
  /// +1 weight).
  const BasisProvider& basis() const { return *basis_; }

  /// Encoder model memory in bits: f * D (Table I, projection row) — what
  /// the deployed IMC plane costs, independent of basis mode.
  std::size_t memory_bits() const;
  /// Software-resident encoder bytes: the full plane when materialized,
  /// O(1) when rematerialized.
  std::size_t resident_bytes() const;

 private:
  /// Binarization thresholds of `count` projected rows (count x dim,
  /// row-major): 0, or each row's mean with its sum taken in ascending
  /// order from +0.
  void binarize_thresholds(const float* block, std::size_t count,
                           float* thresholds) const;
  /// Projection of `count` <= kSampleBlock feature rows (each num_features
  /// floats) into `block` (count x dim, row-major): the kernel behind
  /// project(), encode() and encode_batch.
  void project_block(const float* const* rows, std::size_t count,
                     float* block) const;

  /// Rows per encode_batch chunk, the unit of its parallel split: one pass
  /// over the sign plane serves every row of a chunk.
  static constexpr std::size_t kSampleBlock = 16;

  ProjectionEncoderConfig config_;
  /// Immutable and shared: encoder copies (and every copy-on-write model
  /// version holding this encoder) reference one provider.
  std::shared_ptr<const BasisProvider> basis_;
};

}  // namespace memhd::hdc
