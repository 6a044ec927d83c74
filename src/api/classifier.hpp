// api::Classifier — the batch-first inference contract every model in this
// library satisfies (paper §IV-F: "all models employ MVM-based associative
// search for inference", so one polymorphic surface covers MEMHD and all
// four baselines).
//
// The contract is batch-first: predict_batch / scores_batch over a feature
// matrix are the primary entry points and run through the blocked popcount
// kernels (src/common/bitops_batch.hpp); predict(span) is the single-query
// convenience and is bit-identical to the corresponding predict_batch row.
// The serve front end (api::BatchServer) and the evaluation loops only ever
// touch this interface, so anything the registry builds can be dropped
// behind them.
//
//   auto clf = api::make("memhd", features, classes, opts);
//   clf->fit(train, &test);
//   auto labels = clf->predict_batch(test.features());
//   api::save(*clf, "model.mhd");
//   auto back = api::load("model.mhd");   // polymorphic, kind-tagged
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/core/memory_model.hpp"
#include "src/core/partial_fit.hpp"
#include "src/data/dataset.hpp"

namespace memhd::api {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Display name ("MEMHD", "BasicHDC", ...; same strings as
  /// core::model_name).
  const char* name() const { return core::model_name(kind()); }
  virtual core::ModelKind kind() const = 0;

  virtual std::size_t num_features() const = 0;
  virtual std::size_t num_classes() const = 0;
  virtual std::size_t dim() const = 0;
  /// True once fit() (or a load) produced a deployable model.
  virtual bool fitted() const = 0;

  /// Trains on `train`. `eval`, when given, drives whatever per-epoch
  /// tracking the model supports (MEMHD's best-snapshot selection); models
  /// without that concept ignore it.
  virtual void fit(const data::Dataset& train,
                   const data::Dataset* eval = nullptr) = 0;

  /// Predicts one raw feature vector (length num_features()).
  virtual data::Label predict(std::span<const float> features) const = 0;

  /// Batched inference over a feature matrix (one row per sample):
  /// batch-encode, then one blocked winner-take-all associative search.
  /// Bit-identical to predict() on each row.
  virtual std::vector<data::Label> predict_batch(
      const common::Matrix& features) const = 0;

  /// Opaque, model-specific inference scratch reused across
  /// predict_batch_into calls — e.g. a pinned common::BatchScorer whose
  /// word-major repack of the deployed AM amortizes across serve batches
  /// instead of recurring per call. A context serves one thread at a time
  /// (api::BatchServer pins one per shard worker) and snapshots the fitted
  /// state: rebuild it after another fit() or load.
  class PredictContext {
   public:
    virtual ~PredictContext() = default;
  };

  /// Creates reusable scratch for predict_batch_into. Must only be called
  /// on a fitted model. Models with no reusable inference state return
  /// nullptr; predict_batch_into then takes the plain predict_batch path.
  virtual std::unique_ptr<PredictContext> make_predict_context() const;

  /// predict_batch written into caller-owned storage (out.size() must equal
  /// features.rows()). `context`, when non-null, must have been created by
  /// THIS object's make_predict_context() after its most recent fit/load.
  /// Bit-identical to predict_batch whether or not a context is supplied.
  virtual void predict_batch_into(const common::Matrix& features,
                                  std::span<data::Label> out,
                                  PredictContext* context = nullptr) const;

  /// Rows of the deployed associative memory a query is scored against
  /// (k, C, or k*N depending on the model).
  virtual std::size_t score_rows() const = 0;

  /// Raw batched MVM score table: out[q * score_rows() + r] =
  /// popcount(row_r AND encode(features.row(q))).
  virtual void scores_batch(const common::Matrix& features,
                            std::vector<std::uint32_t>& out) const = 0;

  /// True when this model supports partial_fit (incremental training on a
  /// deployed model). The baselines are train-once; MEMHD is not.
  virtual bool supports_partial_fit() const { return false; }

  /// One incremental-training pass over a labeled batch (see
  /// core::MemhdModel::partial_fit for the semantics: mispredict-driven
  /// centroid bundling plus never-seen-class extension). Throws
  /// std::logic_error when !supports_partial_fit(). Only touched centroids
  /// change; everything else predicts bit-identically to before the call.
  virtual core::PartialFitReport partial_fit(
      const common::Matrix& samples, std::span<const data::Label> labels);

  /// Deep copy of a fitted model behind the polymorphic interface — the
  /// building block online::ModelStore versions are made of. The default
  /// round-trips through the tagged save/load container (always correct,
  /// pays a serialize); models with cheaper structural copies (MEMHD shares
  /// its immutable encoder plane between copies) override it.
  virtual std::unique_ptr<Classifier> clone() const;

  /// Accuracy on `test` via predict_batch.
  double evaluate(const data::Dataset& test) const;

  /// Table I memory breakdown of the deployed model.
  virtual core::MemoryBreakdown memory() const = 0;

  /// Tagged persistence (see api::save / api::load below).
  void save(const std::string& path) const;

  /// Model payload, excluding the container header. Prefer api::save.
  virtual void save_payload(std::ostream& out) const = 0;
};

/// Writes `classifier` to `path` in the tagged container format:
/// magic "MHDAPI03", u8 core::ModelKind, then the model payload (the MEMHD
/// core record or the generic baseline record). Throws std::runtime_error.
void save(const Classifier& classifier, const std::string& path);
void save(const Classifier& classifier, std::ostream& out);

/// Reads any model written by api::save and reconstructs it behind the
/// Classifier interface, dispatching on the kind tag. The reload is
/// bit-exact: predictions match the saved model. Throws std::runtime_error
/// on malformed input.
std::unique_ptr<Classifier> load(const std::string& path);
std::unique_ptr<Classifier> load(std::istream& in);

}  // namespace memhd::api
