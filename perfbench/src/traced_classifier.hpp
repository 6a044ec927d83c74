// The traced run's view into scoring: an api::Classifier decorator around
// the MEMHD adapter, handed to Router::add_model or to online::ModelStore in
// place of the model itself.
//
// It forwards make_predict_context (timed as api.context_build), clone
// (online.clone) and partial_fit (core.partial_fit), and splits every
// predict_batch_into call into its two layers, each a child span of the
// call (api.predict_batch_into):
//
//   hdc.encode_batch   ProjectionEncoder::encode_batch over the call's rows
//   common.search      the associative search the adapter would run:
//                      BatchScorer::dot_argmax when the caller passes a
//                      context (the sharded serving path), otherwise
//                      MultiCentroidAM::predict_batch (the plain path)
//
// Both paths are the adapter's own code path with a timestamp in between,
// so the labels are the same; the traced run checks that they are
// (check_split_matches_inner). The decorator assumes the cascade is off,
// which holds for every workload configuration.
#pragma once

#include <memory>
#include <mutex>

#include "src/api/adapters.hpp"
#include "src/common/bitops_batch.hpp"
#include "trace.hpp"

namespace memhd::perfbench {

class TracedClassifier final : public api::Classifier {
 public:
  TracedClassifier(std::unique_ptr<api::MemhdClassifier> inner,
                   Tracer& tracer);

  /// Distinct per instance: a ModelStore version is one instance, so this
  /// identifies which version a scoring call ran on.
  std::uint64_t serial() const { return serial_; }
  const api::MemhdClassifier& inner() const { return *inner_; }

  core::ModelKind kind() const override { return inner_->kind(); }
  std::size_t num_features() const override { return inner_->num_features(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::size_t dim() const override { return inner_->dim(); }
  bool fitted() const override { return inner_->fitted(); }
  void fit(const data::Dataset& train,
           const data::Dataset* eval = nullptr) override;
  data::Label predict(std::span<const float> features) const override {
    return inner_->predict(features);
  }
  std::vector<data::Label> predict_batch(
      const common::Matrix& features) const override;
  std::unique_ptr<PredictContext> make_predict_context() const override;
  void predict_batch_into(const common::Matrix& features,
                          std::span<data::Label> out,
                          PredictContext* context = nullptr) const override;
  std::size_t score_rows() const override { return inner_->score_rows(); }
  void scores_batch(const common::Matrix& features,
                    std::vector<std::uint32_t>& out) const override {
    inner_->scores_batch(features, out);
  }
  bool supports_partial_fit() const override { return true; }
  core::PartialFitReport partial_fit(
      const common::Matrix& samples,
      std::span<const data::Label> labels) override;
  std::unique_ptr<Classifier> clone() const override;
  core::MemoryBreakdown memory() const override { return inner_->memory(); }
  void save_payload(std::ostream& out) const override {
    inner_->save_payload(out);
  }

 private:
  /// The search plane contexts score against: one snapshot per instance,
  /// built on first use and dropped whenever the AM changes.
  std::shared_ptr<const common::BatchScorer> scorer() const;

  std::unique_ptr<api::MemhdClassifier> inner_;
  Tracer* tracer_;
  std::uint64_t serial_;
  mutable std::mutex scorer_mutex_;
  mutable std::shared_ptr<const common::BatchScorer> scorer_;
};

/// Labels of the decorator's split path against the adapter's own
/// predict_batch_into, with and without a context, over the first rows of
/// `rows` at several batch sizes. Returns the number of disagreeing labels.
std::size_t check_split_matches_inner(const TracedClassifier& traced,
                                      const common::Matrix& rows);

}  // namespace memhd::perfbench
