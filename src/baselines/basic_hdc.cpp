#include "src/baselines/basic_hdc.hpp"

#include "src/common/io.hpp"
#include "src/hdc/trainers.hpp"

namespace memhd::baselines {

namespace {
hdc::ProjectionEncoderConfig make_encoder_config(std::size_t num_features,
                                                 const BaselineConfig& cfg) {
  hdc::ProjectionEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.seed = cfg.seed ^ 0xBA51CULL;
  ec.basis = cfg.basis;
  return ec;
}
}  // namespace

BasicHdc::BasicHdc(std::size_t num_features, std::size_t num_classes,
                   const BaselineConfig& config)
    : BaselineModel(config, num_features, num_classes),
      encoder_(make_encoder_config(num_features, config)),
      am_(num_classes, config.dim) {}

void BasicHdc::fit(const data::Dataset& train) {
  const auto encoded = encoder_.encode_dataset(train);
  hdc::train_single_pass(am_, encoded);
  if (config_.epochs > 0) {
    // Optional FP iterative refinement (Eq. 2) followed by binarization;
    // the paper's BasicHDC row is single-pass, so benches pass epochs = 0.
    hdc::IterativeConfig ic;
    ic.epochs = config_.epochs;
    ic.learning_rate = config_.learning_rate;
    ic.quantization_aware = false;
    hdc::train_iterative(am_, encoded, ic);
  }
}

common::BitVector BasicHdc::encode(std::span<const float> features) const {
  return encoder_.encode(features);
}

std::vector<common::BitVector> BasicHdc::encode_batch(
    const common::Matrix& features) const {
  return encoder_.encode_batch(features);
}

hdc::EncodedDataset BasicHdc::encode_dataset(
    const data::Dataset& dataset) const {
  return encoder_.encode_dataset(dataset);
}

data::Label BasicHdc::predict(const common::BitVector& query) const {
  return am_.predict_binary(query);
}

std::vector<data::Label> BasicHdc::predict_batch(
    std::span<const common::BitVector> queries) const {
  return am_.predict_batch(queries);
}

void BasicHdc::scores_batch(std::span<const common::BitVector> queries,
                            std::vector<std::uint32_t>& out) const {
  am_.scores_batch(queries, out);
}

void BasicHdc::save_state(std::ostream& out) const {
  common::write_matrix(out, am_.fp());
  common::write_bit_matrix(out, am_.binary());
}

void BasicHdc::load_state(std::istream& in) {
  const auto fp = common::read_matrix(in, num_classes_, config_.dim);
  const auto bin = common::read_bit_matrix(in, num_classes_, config_.dim);
  am_.restore(fp, bin);
}

}  // namespace memhd::baselines
