// The multi-centroid associative memory (paper §III).
//
// A D x C matrix whose C columns are class *centroids*; several columns can
// belong to the same class (the ownership map). In this software model the
// AM is stored centroid-major (C rows of D bits / floats) — the transpose of
// the physical array layout — because associative search iterates centroids.
//
// Like the single-centroid AM, the structure pairs an FP shadow matrix
// (updated by quantization-aware training) with a packed binary matrix
// (used for search and for programming the IMC array).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/core/config.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::search {
class CascadeSearcher;
struct CascadeStats;
}  // namespace memhd::search

namespace memhd::core {

class MultiCentroidAM {
 public:
  MultiCentroidAM() = default;
  /// Builds an empty AM with `columns` centroid slots of dimension `dim`
  /// over `num_classes` classes. Slots must then be assigned via
  /// set_centroid before use.
  MultiCentroidAM(std::size_t num_classes, std::size_t dim,
                  std::size_t columns);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t dim() const { return dim_; }
  std::size_t columns() const { return columns_; }

  /// Owner class of centroid slot `col`.
  data::Label owner(std::size_t col) const;
  /// Slots owned by class `c` (in assignment order).
  const std::vector<std::size_t>& centroids_of_class(data::Label c) const;
  /// Number of slots owned by class `c` — the paper's per-class n.
  std::size_t centroids_per_class(data::Label c) const;

  /// Assigns slot `col` to class `owner` with the given FP centroid values.
  /// Reassignment of an already-owned slot is allowed (re-clustering).
  void set_centroid(std::size_t col, data::Label owner,
                    std::span<const float> values);

  /// True when every slot has been assigned an owner — the fully-utilized
  /// state MEMHD guarantees after initialization.
  bool fully_assigned() const;

  const common::Matrix& fp() const { return fp_; }
  common::Matrix& fp() { return fp_; }
  const common::BitMatrix& binary() const { return binary_; }

  /// 1-bit quantization of the FP matrix: threshold = global mean
  /// (paper §III-B).
  void binarize();

  /// Re-quantizes only the given FP rows against the CURRENT global FP
  /// mean; every other binary row keeps its deployed bits verbatim. This is
  /// the partial_fit refresh: an incremental update touches a handful of
  /// centroids, and the untouched binary plane must stay bit-identical so
  /// copy-on-write versions genuinely share it.
  void binarize_rows(std::span<const std::size_t> rows);

  /// binarize_rows against a caller-supplied threshold — the in-batch
  /// refresh partial_fit uses between misses, where the global mean is
  /// computed once per batch instead of per update.
  void binarize_rows(std::span<const std::size_t> rows, float threshold);

  /// normalize() restricted to the given rows (partial_fit companion).
  void normalize_rows(NormalizationMode mode,
                      std::span<const std::size_t> rows);

  /// Grows the AM in place: `extra_columns` fresh unassigned slots and a
  /// class space widened to `new_num_classes` (>= the current one). The
  /// existing FP and binary planes are preserved verbatim; the new slots
  /// must then be assigned via set_centroid and quantized via
  /// binarize_rows. This is XL-HD-style extended learning: never-seen
  /// classes appended to a deployed AM.
  void extend(std::size_t new_num_classes, std::size_t extra_columns);

  /// Replaces the binary matrix wholesale (best-epoch snapshot restore).
  /// Shape must match columns() x dim().
  void restore_binary(const common::BitMatrix& snapshot);

  /// Per-centroid renormalization of the FP matrix (paper §III-C step 4).
  void normalize(NormalizationMode mode);

  /// Binary dot similarity (popcount AND) of `query` against every centroid.
  void scores_binary(const common::BitVector& query,
                     std::vector<std::uint32_t>& out) const;
  /// Blocked batch form of scores_binary: out[q * columns() + c] is query
  /// q's dot score against centroid c. Bit-identical to calling
  /// scores_binary per query, but streams the AM through cache once per
  /// query block (src/common/bitops_batch.hpp).
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const;

  /// Best centroid slot overall (Eq. 4's argmax over i, j).
  std::size_t best_centroid(std::span<const std::uint32_t> scores) const;
  /// Best slot among class `c`'s centroids (Eq. 5's within-class argmax).
  std::size_t best_centroid_of_class(std::span<const std::uint32_t> scores,
                                     data::Label c) const;

  /// Predicted class via binary search: owner of the best slot.
  data::Label predict_binary(const common::BitVector& query) const;
  /// Batched predict_binary (same argmax and tie-breaking per query).
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const;
  /// Batched predict through a coarse-to-fine search cascade built over
  /// THIS AM's binary plane (src/search/cascade.hpp): the labels match the
  /// exhaustive overload above whenever the winner survives the prescreen,
  /// for pruned scoring work. `stats`, when given, accumulates the
  /// cascade's stage counters.
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries,
      const search::CascadeSearcher& cascade,
      search::CascadeStats* stats = nullptr) const;
  /// Predicted class via FP search (initialization-time validation): the
  /// owner of the first assigned slot with the highest dot similarity
  /// between its FP centroid and the bipolar interpretation of `query`.
  /// Unassigned slots never compete.
  data::Label predict_fp(const common::BitVector& query) const;
  /// Batched predict_fp over hdc::fp_bipolar_argmax (src/hdc/fp_search.hpp):
  /// the same scores and first-max argmax per query, with the FP plane
  /// copied dim-major once per call and query blocks spread over the
  /// thread pool.
  std::vector<data::Label> predict_fp_batch(
      std::span<const common::BitVector> queries) const;

  /// Alternative similarity measures for associative search (paper §II-D
  /// discusses Hamming and cosine as alternatives to dot similarity; dot is
  /// what maps onto the IMC MVM, these are for software comparison).
  enum class SearchMetric { kDot, kHamming, kCosine };
  data::Label predict_with_metric(const common::BitVector& query,
                                  SearchMetric metric) const;

  /// Deployed AM memory in bits: C * D (Table I, MEMHD row).
  std::size_t memory_bits() const { return columns_ * dim_; }

 private:
  std::size_t num_classes_ = 0;
  std::size_t dim_ = 0;
  std::size_t columns_ = 0;
  std::vector<data::Label> owner_;            // per slot; kUnassigned if free
  std::vector<std::vector<std::size_t>> class_slots_;
  common::Matrix fp_;                          // columns_ x dim_
  common::BitMatrix binary_;                   // columns_ x dim_

  static constexpr data::Label kUnassigned = 0xFFFF;
};

/// Accuracy of the binary multi-centroid AM over an encoded set.
double evaluate_binary(const MultiCentroidAM& am,
                       const hdc::EncodedDataset& test);
/// Accuracy of the FP AM over an encoded set (pre-quantization validation).
double evaluate_fp(const MultiCentroidAM& am, const hdc::EncodedDataset& test);

}  // namespace memhd::core
