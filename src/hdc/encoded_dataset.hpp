// A dataset after hypervector encoding: one packed binary HV per sample.
//
// Encoding is by far the most expensive stage, so every trainer consumes
// this materialized form (encode once, iterate many epochs). The float
// "point cloud" view required by K-means initialization is derived lazily.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/data/dataset.hpp"

namespace memhd::hdc {

struct EncodedDataset {
  std::vector<common::BitVector> hypervectors;
  std::vector<data::Label> labels;
  std::size_t dim = 0;
  std::size_t num_classes = 0;

  std::size_t size() const { return hypervectors.size(); }
  bool empty() const { return hypervectors.empty(); }

  /// Indices of samples of class c.
  std::vector<std::size_t> indices_of_class(data::Label c) const;

  /// Bipolar float matrix view (+1/-1 per bit) of the selected samples —
  /// the representation K-means clusters (paper Fig. 2-(a)).
  common::Matrix to_bipolar_matrix(const std::vector<std::size_t>& indices) const;
  /// Same rows written into `out`, which is reallocated only when its shape
  /// is not indices.size() x dim: a caller expanding one class after
  /// another reuses a single buffer.
  void to_bipolar_matrix(const std::vector<std::size_t>& indices,
                         common::Matrix& out) const;

  /// Bipolar float matrix of every sample.
  common::Matrix to_bipolar_matrix() const;
};

}  // namespace memhd::hdc
