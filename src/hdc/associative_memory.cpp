#include "src/hdc/associative_memory.hpp"

#include "src/common/assert.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/stats.hpp"
#include "src/hdc/fp_search.hpp"

namespace memhd::hdc {

AssociativeMemory::AssociativeMemory(std::size_t num_classes, std::size_t dim)
    : num_classes_(num_classes),
      dim_(dim),
      fp_(num_classes, dim, 0.0f),
      binary_(num_classes, dim) {
  MEMHD_EXPECTS(num_classes >= 2);
  MEMHD_EXPECTS(dim >= 1);
}

void add_bipolar(std::span<float> row, const common::BitVector& hv,
                 float weight) {
  MEMHD_EXPECTS(row.size() == hv.size());
  const std::uint64_t* words = hv.words();
  const std::size_t n = hv.size();
  for (std::size_t j = 0; j < n; ++j) {
    const bool bit = (words[j / common::kBitsPerWord] >>
                      (j % common::kBitsPerWord)) & 1ULL;
    row[j] += bit ? weight : -weight;
  }
}

void AssociativeMemory::accumulate(data::Label c, const common::BitVector& hv,
                                   float weight) {
  MEMHD_EXPECTS(c < num_classes_);
  MEMHD_EXPECTS(hv.size() == dim_);
  add_bipolar(fp_.row(c), hv, weight);
}

void AssociativeMemory::binarize() {
  const float threshold = static_cast<float>(fp_.mean());
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const auto row = fp_.row(c);
    binary_.set_row(c, common::BitVector::from_threshold(
                           row.data(), row.size(), threshold));
  }
}

void AssociativeMemory::restore(const common::Matrix& fp,
                                const common::BitMatrix& binary) {
  MEMHD_EXPECTS(fp.rows() == num_classes_ && fp.cols() == dim_);
  MEMHD_EXPECTS(binary.rows() == num_classes_ && binary.cols() == dim_);
  fp_ = fp;
  binary_ = binary;
}

void AssociativeMemory::scores_fp(const common::BitVector& query,
                                  std::vector<float>& out) const {
  MEMHD_EXPECTS(query.size() == dim_);
  out.resize(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c)
    out[c] = fp_bipolar_dot(fp_.row(c), query);
}

void AssociativeMemory::scores_binary(const common::BitVector& query,
                                      std::vector<std::uint32_t>& out) const {
  MEMHD_EXPECTS(query.size() == dim_);
  binary_.mvm(query, out);
}

void AssociativeMemory::scores_batch(std::span<const common::BitVector> queries,
                                     std::vector<std::uint32_t>& out) const {
  common::blocked_popcount_scores(binary_, queries, common::PopcountOp::kAnd,
                                  out);
}

std::vector<data::Label> AssociativeMemory::predict_batch(
    std::span<const common::BitVector> queries) const {
  // Fused winner-take-all search (same first-wins argmax as argmax_u32).
  std::vector<std::uint32_t> best;
  common::blocked_dot_argmax(binary_, queries, best);
  std::vector<data::Label> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    out[q] = static_cast<data::Label>(best[q]);
  return out;
}

data::Label AssociativeMemory::predict_fp(const common::BitVector& query) const {
  std::vector<float> scores;
  scores_fp(query, scores);
  return static_cast<data::Label>(common::argmax(scores));
}

data::Label AssociativeMemory::predict_binary(
    const common::BitVector& query) const {
  std::vector<std::uint32_t> scores;
  scores_binary(query, scores);
  return static_cast<data::Label>(common::argmax_u32(scores));
}

}  // namespace memhd::hdc
