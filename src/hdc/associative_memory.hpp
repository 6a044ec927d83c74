// Single-centroid associative memory: the classical HDC structure with one
// class vector per class (paper §II-C/D). Used by the BasicHDC and QuantHD
// baselines; MEMHD's multi-centroid AM lives in src/core.
//
// Two representations coexist:
//   * an FP "shadow" matrix (k x D floats) that training updates, and
//   * a packed binary matrix (k x D bits) used for binary associative
//     search, refreshed from the FP matrix by 1-bit quantization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::hdc {

class AssociativeMemory {
 public:
  AssociativeMemory() = default;
  AssociativeMemory(std::size_t num_classes, std::size_t dim);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t dim() const { return dim_; }

  const common::Matrix& fp() const { return fp_; }
  common::Matrix& fp() { return fp_; }
  const common::BitMatrix& binary() const { return binary_; }

  /// Adds the bipolar interpretation of `hv` (scaled by `weight`) to class
  /// vector `c` — the single-pass accumulation C_k = sum H (paper §II-C).
  void accumulate(data::Label c, const common::BitVector& hv,
                  float weight = 1.0f);

  /// 1-bit quantization of the FP matrix with its global mean as threshold
  /// (the same rule MEMHD uses, §III-B).
  void binarize();

  /// Restores a serialized AM state (FP shadow + deployed binary plane)
  /// verbatim — no re-binarization, so a load reproduces the saved
  /// predictions bit-exactly even when the snapshot predates the last
  /// binarize(). Shapes must match this AM.
  void restore(const common::Matrix& fp, const common::BitMatrix& binary);

  /// FP dot-similarity scores of a bipolar query against every class vector
  /// (hdc::fp_bipolar_dot per class, src/hdc/fp_search.hpp).
  void scores_fp(const common::BitVector& query,
                 std::vector<float>& out) const;
  /// Binary dot-similarity (popcount AND) against every binary class vector.
  void scores_binary(const common::BitVector& query,
                     std::vector<std::uint32_t>& out) const;
  /// Blocked batch form of scores_binary: out[q * num_classes() + c].
  /// Bit-identical to per-query scores_binary (src/common/bitops_batch.hpp).
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const;

  data::Label predict_fp(const common::BitVector& query) const;
  data::Label predict_binary(const common::BitVector& query) const;
  /// Batched predict_binary (same argmax and tie-breaking per query).
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const;

  /// AM memory in bits when deployed binary: k * D (Table I).
  std::size_t memory_bits() const { return num_classes_ * dim_; }

 private:
  std::size_t num_classes_ = 0;
  std::size_t dim_ = 0;
  common::Matrix fp_;
  common::BitMatrix binary_;
};

/// Adds the bipolar interpretation of hv (bit -> +/-1) times `weight` into a
/// float row. Shared by all trainers (including MEMHD's).
void add_bipolar(std::span<float> row, const common::BitVector& hv,
                 float weight);

}  // namespace memhd::hdc
