// Concrete api::Classifier adapters.
//
// MemhdClassifier wraps core::MemhdModel; BaselineClassifier wraps any
// baselines::BaselineModel behind the same batch-first surface. Both route
// batched scoring through the blocked kernels the wrapped models already
// use — the adapters add no per-sample loops of their own.
#pragma once

#include <memory>

#include "src/api/classifier.hpp"
#include "src/api/options.hpp"
#include "src/baselines/baseline.hpp"
#include "src/core/model.hpp"

namespace memhd::api {

class MemhdClassifier final : public Classifier {
 public:
  MemhdClassifier(const ModelOptions& opts, std::size_t num_features,
                  std::size_t num_classes);
  /// Wraps an already-built model (the load path).
  explicit MemhdClassifier(core::MemhdModel model);

  core::ModelKind kind() const override { return core::ModelKind::kMemhd; }
  std::size_t num_features() const override { return model_.num_features(); }
  std::size_t num_classes() const override { return model_.num_classes(); }
  std::size_t dim() const override { return model_.config().dim; }
  bool fitted() const override { return fitted_; }

  void fit(const data::Dataset& train,
           const data::Dataset* eval = nullptr) override;
  data::Label predict(std::span<const float> features) const override;
  std::vector<data::Label> predict_batch(
      const common::Matrix& features) const override;
  /// Context pins a common::BatchScorer over the deployed binary AM, so the
  /// kernel's word-major repack happens once per context instead of once
  /// per predict_batch call (the win for steady streams of serve batches).
  std::unique_ptr<PredictContext> make_predict_context() const override;
  void predict_batch_into(const common::Matrix& features,
                          std::span<data::Label> out,
                          PredictContext* context = nullptr) const override;
  std::size_t score_rows() const override { return model_.config().columns; }
  void scores_batch(const common::Matrix& features,
                    std::vector<std::uint32_t>& out) const override;
  bool supports_partial_fit() const override { return true; }
  core::PartialFitReport partial_fit(
      const common::Matrix& samples,
      std::span<const data::Label> labels) override;
  /// Structural copy: deep-copies the AM, shares the immutable encoder
  /// plane (no serialize round-trip; see core::MemhdModel's copy ctor).
  std::unique_ptr<Classifier> clone() const override;
  core::MemoryBreakdown memory() const override;
  void save_payload(std::ostream& out) const override;

  /// The wrapped model, for surfaces beyond the generic contract (online
  /// update(), adapt(), the IMC deployment pipeline's encoder()/am()).
  core::MemhdModel& model() { return model_; }
  const core::MemhdModel& model() const { return model_; }

  /// Training report of the last fit() (empty before then).
  const core::FitReport& last_fit() const { return last_fit_; }

 private:
  core::MemhdModel model_;
  core::FitReport last_fit_;
  bool fitted_ = false;
};

class BaselineClassifier final : public Classifier {
 public:
  BaselineClassifier(core::ModelKind kind, const ModelOptions& opts,
                     std::size_t num_features, std::size_t num_classes);
  /// Wraps an already-built baseline (the load path).
  explicit BaselineClassifier(
      std::unique_ptr<baselines::BaselineModel> model);

  core::ModelKind kind() const override { return model_->kind(); }
  std::size_t num_features() const override {
    return model_->num_features();
  }
  std::size_t num_classes() const override { return model_->num_classes(); }
  std::size_t dim() const override { return model_->dim(); }
  bool fitted() const override { return fitted_; }

  void fit(const data::Dataset& train,
           const data::Dataset* eval = nullptr) override;
  data::Label predict(std::span<const float> features) const override;
  std::vector<data::Label> predict_batch(
      const common::Matrix& features) const override;
  std::size_t score_rows() const override { return model_->score_rows(); }
  void scores_batch(const common::Matrix& features,
                    std::vector<std::uint32_t>& out) const override;
  core::MemoryBreakdown memory() const override { return model_->memory(); }
  /// Writes the generic baseline frame (config + shape) followed by the
  /// model's save_state tensors; load_payload is the inverse.
  void save_payload(std::ostream& out) const override;
  static std::unique_ptr<BaselineClassifier> load_payload(
      core::ModelKind kind, std::istream& in);

  /// The wrapped baseline, for model-specific knobs (SearcHd::set_flip_rate,
  /// LeHdc::hyper(), ...).
  baselines::BaselineModel& model() { return *model_; }
  const baselines::BaselineModel& model() const { return *model_; }

 private:
  std::unique_ptr<baselines::BaselineModel> model_;
  bool fitted_ = false;
};

}  // namespace memhd::api
