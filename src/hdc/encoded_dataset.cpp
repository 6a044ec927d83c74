#include "src/hdc/encoded_dataset.hpp"

#include "src/common/assert.hpp"
#include "src/common/bitops.hpp"

namespace memhd::hdc {

std::vector<std::size_t> EncodedDataset::indices_of_class(
    data::Label c) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == c) idx.push_back(i);
  return idx;
}

common::Matrix EncodedDataset::to_bipolar_matrix(
    const std::vector<std::size_t>& indices) const {
  common::Matrix m;
  to_bipolar_matrix(indices, m);
  return m;
}

void EncodedDataset::to_bipolar_matrix(const std::vector<std::size_t>& indices,
                                       common::Matrix& out) const {
  if (out.rows() != indices.size() || out.cols() != dim)
    out = common::Matrix(indices.size(), dim);
  for (std::size_t r = 0; r < indices.size(); ++r) {
    MEMHD_EXPECTS(indices[r] < hypervectors.size());
    const auto& hv = hypervectors[indices[r]];
    MEMHD_EXPECTS(hv.size() == dim);
    const std::uint64_t* words = hv.words();
    auto row = out.row(r);
    for (std::size_t j = 0; j < dim; ++j) {
      const bool bit = (words[j / common::kBitsPerWord] >>
                        (j % common::kBitsPerWord)) & 1ULL;
      row[j] = bit ? 1.0f : -1.0f;
    }
  }
}

common::Matrix EncodedDataset::to_bipolar_matrix() const {
  std::vector<std::size_t> all(size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return to_bipolar_matrix(all);
}

}  // namespace memhd::hdc
