// Common interface for the binary HDC baselines of Table I.
//
// Every baseline deploys a binary AM searched with MVM dot similarity
// (paper §IV-F: "all models employ MVM-based associative search for
// inference"), so they share one inference contract: encode features to a
// packed hypervector, score it against every stored row with the blocked
// popcount kernels (src/common/bitops_batch.hpp), take the argmax. The
// models differ only in encoder family, AM structure, and training scheme,
// which is exactly what the virtuals below capture. The batch-first
// surface (encode_batch / predict_batch / scores_batch) is what the
// api::Classifier adapters drive; none of it falls back to per-sample
// scoring loops.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"
#include "src/core/memory_model.hpp"
#include "src/data/dataset.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::baselines {

/// Hyperparameters shared by all baselines. Fields irrelevant to a given
/// model are ignored (e.g. n_models for QuantHD).
struct BaselineConfig {
  std::size_t dim = 1024;          // D
  std::size_t epochs = 20;         // iterative baselines
  float learning_rate = 0.05f;
  std::size_t num_levels = 256;    // L, ID-Level encoders
  std::size_t n_models = 64;       // N, SearcHD
  std::uint64_t seed = 1;
  /// Projection-based baselines (BasicHDC) only: resident vs rematerialized
  /// encoder plane. Never changes outputs; ID-Level encoders ignore it.
  hdc::BasisKind basis = hdc::BasisKind::kMaterialized;
};

class BaselineModel {
 public:
  virtual ~BaselineModel() = default;

  const char* name() const { return core::model_name(kind()); }
  virtual core::ModelKind kind() const = 0;

  const BaselineConfig& config() const { return config_; }
  std::size_t dim() const { return config_.dim; }
  std::size_t num_features() const { return num_features_; }
  std::size_t num_classes() const { return num_classes_; }

  /// Trains on `train`. Implementations encode internally.
  virtual void fit(const data::Dataset& train) = 0;

  // --- Inference: encode, then batched MVM search -----------------------

  /// Encodes one feature vector with this model's encoder.
  virtual common::BitVector encode(std::span<const float> features) const = 0;

  /// Encodes every row of a feature matrix (cols == num_features()). The
  /// default loops encode(); projection-based models override with the
  /// encoder's batched kernel.
  virtual std::vector<common::BitVector> encode_batch(
      const common::Matrix& features) const;

  /// Encodes a whole dataset (features + labels).
  virtual hdc::EncodedDataset encode_dataset(
      const data::Dataset& dataset) const = 0;

  /// Per-query inference on a pre-encoded query (valid after fit()).
  virtual data::Label predict(const common::BitVector& query) const = 0;

  /// Batched inference over pre-encoded queries through the blocked
  /// winner-take-all kernel. Bit-identical to per-query predict().
  virtual std::vector<data::Label> predict_batch(
      std::span<const common::BitVector> queries) const = 0;

  /// Number of stored rows the associative search scores a query against:
  /// k for the single-centroid models, k*N for SearcHD.
  virtual std::size_t score_rows() const = 0;

  /// Raw batched MVM scores against every stored row:
  /// out[q * score_rows() + r] = popcount(row_r AND query_q).
  virtual void scores_batch(std::span<const common::BitVector> queries,
                            std::vector<std::uint32_t>& out) const = 0;

  /// Accuracy on `test` using the deployed binary model (encode_dataset +
  /// predict_batch; shared by every baseline).
  double evaluate(const data::Dataset& test) const;

  /// Table I memory breakdown for this instance.
  core::MemoryBreakdown memory() const;

  // --- Persistence ------------------------------------------------------

  /// Writes / restores the trained state (the tensors fit() produced; the
  /// encoder is deterministic in the config and is NOT stored). The
  /// api::save container frames these with the config + shape header, so a
  /// loader first reconstructs the model via make_baseline and then calls
  /// load_state on the stream positioned at the payload.
  virtual void save_state(std::ostream& out) const = 0;
  virtual void load_state(std::istream& in) = 0;

 protected:
  BaselineModel(const BaselineConfig& config, std::size_t num_features,
                std::size_t num_classes);

  BaselineConfig config_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
};

/// Factory over core::ModelKind (kMemhd is not a baseline and is rejected).
std::unique_ptr<BaselineModel> make_baseline(core::ModelKind kind,
                                             std::size_t num_features,
                                             std::size_t num_classes,
                                             const BaselineConfig& config);

}  // namespace memhd::baselines
