// BasicHDC (Table I): random-projection encoding + one class vector per
// class, single-pass training. Directly IMC-mappable (both its encoding and
// associative search are MVMs), which is why the paper uses it as the IMC
// baseline in Table II and Fig. 7.
#pragma once

#include "src/baselines/baseline.hpp"
#include "src/hdc/associative_memory.hpp"
#include "src/hdc/projection_encoder.hpp"

namespace memhd::baselines {

class BasicHdc final : public BaselineModel {
 public:
  BasicHdc(std::size_t num_features, std::size_t num_classes,
           const BaselineConfig& config);

  core::ModelKind kind() const override { return core::ModelKind::kBasicHDC; }

  void fit(const data::Dataset& train) override;

  common::BitVector encode(std::span<const float> features) const override;
  /// Batched projection encode (bit-identical to per-row encode()).
  std::vector<common::BitVector> encode_batch(
      const common::Matrix& features) const override;
  hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const override;

  data::Label predict(const common::BitVector& query) const override;
  std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const override;
  std::size_t score_rows() const override { return num_classes_; }
  void scores_batch(std::span<const common::BitVector> queries,
                    std::vector<std::uint32_t>& out) const override;

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  const hdc::AssociativeMemory& am() const { return am_; }
  const hdc::ProjectionEncoder& encoder() const { return encoder_; }

 private:
  hdc::ProjectionEncoder encoder_;
  hdc::AssociativeMemory am_;
};

}  // namespace memhd::baselines
