#include "src/api/adapters.hpp"

#include <optional>
#include <stdexcept>

#include "src/common/assert.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/io.hpp"
#include "src/core/serialize.hpp"
#include "src/search/cascade.hpp"

namespace memhd::api {

namespace {
// Pinned inference engine for one serving thread: snapshots the deployed
// search plane so repeated serve batches pay neither snapshot nor repack
// again. With the cascade enabled this pins the model's CascadeSearcher —
// prescreen sub-plane AND exact plane in one immutable object — so a shard
// worker keeps scoring the version it pinned at batch cut even while a hot
// swap publishes a new one (the BatchServer rebuilds contexts on version
// change, which is what re-points shards at the new planes). Without the
// cascade it is the exhaustive BatchScorer, as before.
struct MemhdPredictContext final : Classifier::PredictContext {
  explicit MemhdPredictContext(const core::MemhdModel& model)
      : cascade(model.cascade_ptr()) {
    if (cascade == nullptr) scorer.emplace(model.am().binary());
  }
  std::shared_ptr<const search::CascadeSearcher> cascade;
  std::optional<common::BatchScorer> scorer;  // engaged iff cascade == null
  std::vector<std::uint32_t> best;
};
}  // namespace

// ------------------------------------------------------------------ MEMHD --

MemhdClassifier::MemhdClassifier(const ModelOptions& opts,
                                 std::size_t num_features,
                                 std::size_t num_classes)
    : model_(opts.memhd(), num_features, num_classes) {}

MemhdClassifier::MemhdClassifier(core::MemhdModel model)
    : model_(std::move(model)), fitted_(true) {}

void MemhdClassifier::fit(const data::Dataset& train,
                          const data::Dataset* eval) {
  last_fit_ = model_.fit(train, eval);
  fitted_ = true;
}

data::Label MemhdClassifier::predict(std::span<const float> features) const {
  return model_.predict(features);
}

std::vector<data::Label> MemhdClassifier::predict_batch(
    const common::Matrix& features) const {
  return model_.predict_batch(features);
}

std::unique_ptr<Classifier::PredictContext>
MemhdClassifier::make_predict_context() const {
  MEMHD_EXPECTS(fitted_);
  return std::make_unique<MemhdPredictContext>(model_);
}

void MemhdClassifier::predict_batch_into(const common::Matrix& features,
                                         std::span<data::Label> out,
                                         PredictContext* context) const {
  auto* ctx = dynamic_cast<MemhdPredictContext*>(context);
  if (ctx == nullptr) {
    Classifier::predict_batch_into(features, out);
    return;
  }
  MEMHD_EXPECTS(out.size() == features.rows());
  // Same batch encode and the same search engine as predict_batch — the
  // pinned CascadeSearcher when the cascade is on, the fused
  // winner-take-all kernel otherwise (BatchScorer::dot_argmax and
  // blocked_dot_argmax share one implementation) — hence bit-identical;
  // only the snapshot/repack is pre-paid.
  const auto encoded = model_.encoder().encode_batch(features);
  if (ctx->cascade != nullptr)
    ctx->cascade->dot_argmax(std::span<const common::BitVector>(encoded),
                             ctx->best);
  else
    ctx->scorer->dot_argmax(std::span<const common::BitVector>(encoded),
                            ctx->best);
  for (std::size_t q = 0; q < encoded.size(); ++q)
    out[q] = model_.am().owner(ctx->best[q]);
}

void MemhdClassifier::scores_batch(const common::Matrix& features,
                                   std::vector<std::uint32_t>& out) const {
  const auto encoded = model_.encoder().encode_batch(features);
  model_.am().scores_batch(encoded, out);
}

core::PartialFitReport MemhdClassifier::partial_fit(
    const common::Matrix& samples, std::span<const data::Label> labels) {
  MEMHD_EXPECTS(fitted_);
  return model_.partial_fit(samples, labels);
}

std::unique_ptr<Classifier> MemhdClassifier::clone() const {
  MEMHD_EXPECTS(fitted_);
  return std::make_unique<MemhdClassifier>(model_);
}

core::MemoryBreakdown MemhdClassifier::memory() const {
  core::MemoryParams p;
  p.num_features = model_.num_features();
  p.dim = model_.config().dim;
  p.num_classes = model_.num_classes();
  p.columns = model_.config().columns;
  p.basis = model_.config().basis;
  return core::memory_requirement(core::ModelKind::kMemhd, p);
}

void MemhdClassifier::save_payload(std::ostream& out) const {
  core::save_model(model_, out);
}

// -------------------------------------------------------------- baselines --

BaselineClassifier::BaselineClassifier(core::ModelKind kind,
                                       const ModelOptions& opts,
                                       std::size_t num_features,
                                       std::size_t num_classes)
    : model_(baselines::make_baseline(kind, num_features, num_classes,
                                      opts.baseline())) {}

BaselineClassifier::BaselineClassifier(
    std::unique_ptr<baselines::BaselineModel> model)
    : model_(std::move(model)), fitted_(true) {
  MEMHD_EXPECTS(model_ != nullptr);
}

void BaselineClassifier::fit(const data::Dataset& train,
                             const data::Dataset* /*eval*/) {
  model_->fit(train);
  fitted_ = true;
}

data::Label BaselineClassifier::predict(
    std::span<const float> features) const {
  return model_->predict(model_->encode(features));
}

std::vector<data::Label> BaselineClassifier::predict_batch(
    const common::Matrix& features) const {
  return model_->predict_batch(model_->encode_batch(features));
}

void BaselineClassifier::scores_batch(const common::Matrix& features,
                                      std::vector<std::uint32_t>& out) const {
  model_->scores_batch(model_->encode_batch(features), out);
}

void BaselineClassifier::save_payload(std::ostream& out) const {
  // The generic baseline frame: enough to reconstruct the model object
  // (encoders are deterministic in the config), then the trained tensors.
  const baselines::BaselineConfig& cfg = model_->config();
  common::write_pod<std::uint64_t>(out, cfg.dim);
  common::write_pod<std::uint64_t>(out, cfg.epochs);
  common::write_pod<std::uint64_t>(out, cfg.num_levels);
  common::write_pod<std::uint64_t>(out, cfg.n_models);
  common::write_pod<std::uint64_t>(out, cfg.seed);
  common::write_pod<std::uint64_t>(out, model_->num_features());
  common::write_pod<std::uint64_t>(out, model_->num_classes());
  common::write_pod<float>(out, cfg.learning_rate);
  core::write_basis_bytes(out, cfg.basis);
  model_->save_state(out);
}

std::unique_ptr<BaselineClassifier> BaselineClassifier::load_payload(
    core::ModelKind kind, std::istream& in) {
  baselines::BaselineConfig cfg;
  cfg.dim = common::read_pod<std::uint64_t>(in);
  cfg.epochs = common::read_pod<std::uint64_t>(in);
  cfg.num_levels = common::read_pod<std::uint64_t>(in);
  cfg.n_models = common::read_pod<std::uint64_t>(in);
  cfg.seed = common::read_pod<std::uint64_t>(in);
  const auto num_features = common::read_pod<std::uint64_t>(in);
  const auto num_classes = common::read_pod<std::uint64_t>(in);
  cfg.learning_rate = common::read_pod<float>(in);
  cfg.basis = core::read_basis_bytes(in, "api::load");

  // Corrupted frames must surface as the documented std::runtime_error, not
  // as contract aborts (or absurd allocations) further down. The 2^24 cap
  // is far above any real shape and far below allocation-bomb territory.
  constexpr std::uint64_t kShapeCap = 1ULL << 24;
  const bool sane = cfg.dim >= 1 && cfg.dim <= kShapeCap &&
                    num_features >= 1 && num_features <= kShapeCap &&
                    num_classes >= 2 && num_classes <= kShapeCap &&
                    cfg.num_levels >= 1 && cfg.num_levels <= kShapeCap &&
                    cfg.n_models >= 1 && cfg.n_models <= kShapeCap;
  if (!sane)
    throw std::runtime_error("api::load: corrupt baseline model frame");

  auto model = baselines::make_baseline(kind, num_features, num_classes, cfg);
  model->load_state(in);
  return std::make_unique<BaselineClassifier>(std::move(model));
}

}  // namespace memhd::api
