#include "src/core/model.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/core/serialize.hpp"
#include "src/hdc/associative_memory.hpp"

namespace memhd::core {

namespace {
hdc::ProjectionEncoderConfig encoder_config(const MemhdConfig& cfg,
                                            std::size_t num_features) {
  hdc::ProjectionEncoderConfig ec;
  ec.num_features = num_features;
  ec.dim = cfg.dim;
  ec.seed = cfg.seed ^ 0xE0C0DE5ULL;
  ec.basis = cfg.basis;
  return ec;
}
}  // namespace

MemhdModel::MemhdModel(const MemhdConfig& cfg, std::size_t num_features,
                       std::size_t num_classes)
    : cfg_(cfg),
      num_classes_(num_classes),
      encoder_(std::make_shared<const hdc::ProjectionEncoder>(
          encoder_config(cfg, num_features))) {
  MEMHD_EXPECTS(num_classes >= 2);
  MEMHD_EXPECTS(cfg.columns >= num_classes);
}

MemhdModel::MemhdModel(const MemhdModel& other)
    : cfg_(other.cfg_),
      num_classes_(other.num_classes_),
      encoder_(other.encoder_),  // immutable: shared, not copied
      am_(other.am_ ? std::make_unique<MultiCentroidAM>(*other.am_)
                    : nullptr),
      cascade_(other.cascade_) {}  // immutable snapshot: shared, not rebuilt

MemhdModel& MemhdModel::operator=(const MemhdModel& other) {
  if (this == &other) return *this;
  cfg_ = other.cfg_;
  num_classes_ = other.num_classes_;
  encoder_ = other.encoder_;
  am_ = other.am_ ? std::make_unique<MultiCentroidAM>(*other.am_) : nullptr;
  cascade_ = other.cascade_;
  return *this;
}

void MemhdModel::refresh_cascade() {
  if (cfg_.cascade.enabled && am_ != nullptr)
    cascade_ = std::make_shared<const search::CascadeSearcher>(am_->binary(),
                                                               cfg_.cascade);
  else
    cascade_.reset();
}

const MultiCentroidAM& MemhdModel::am() const {
  MEMHD_EXPECTS(am_ != nullptr);
  return *am_;
}

FitReport MemhdModel::fit(const data::Dataset& train,
                          const data::Dataset* eval) {
  const auto encoded_train = encoder_->encode_dataset(train);
  if (eval != nullptr) {
    const auto encoded_eval = encoder_->encode_dataset(*eval);
    return fit_encoded(encoded_train, &encoded_eval);
  }
  return fit_encoded(encoded_train, nullptr);
}

FitReport MemhdModel::fit_encoded(const hdc::EncodedDataset& train,
                                  const hdc::EncodedDataset* eval) {
  MEMHD_EXPECTS(train.dim == cfg_.dim);
  MEMHD_EXPECTS(train.num_classes == num_classes_);

  FitReport report;
  am_ = std::make_unique<MultiCentroidAM>(
      initialize(train, cfg_, &report.init));

  report.post_init_train_accuracy = evaluate_binary(*am_, train);
  if (eval != nullptr)
    report.post_init_eval_accuracy = evaluate_binary(*am_, *eval);

  QatConfig qc;
  qc.epochs = cfg_.epochs;
  qc.learning_rate = cfg_.learning_rate;
  qc.normalization = cfg_.normalization;
  qc.seed = cfg_.seed;
  report.training = train_qat(*am_, train, eval, qc);
  refresh_cascade();
  return report;
}

data::Label MemhdModel::predict(std::span<const float> features) const {
  MEMHD_EXPECTS(am_ != nullptr);
  if (cascade_ != nullptr) {
    // Route the single query through the same cascade as predict_batch:
    // in kThreshold mode the shortlist is part of the result, so only a
    // shared code path keeps predict() bit-identical to predict_batch()
    // per row (the api::Classifier contract).
    const common::BitVector hv = encoder_->encode(features);
    return am_->predict_batch(std::span<const common::BitVector>(&hv, 1),
                              *cascade_)[0];
  }
  return am_->predict_binary(encoder_->encode(features));
}

std::vector<data::Label> MemhdModel::predict_batch(
    const common::Matrix& features) const {
  MEMHD_EXPECTS(am_ != nullptr);
  const auto encoded = encoder_->encode_batch(features);
  if (cascade_ != nullptr) return am_->predict_batch(encoded, *cascade_);
  return am_->predict_batch(encoded);
}

bool MemhdModel::update(std::span<const float> features, data::Label truth) {
  MEMHD_EXPECTS(am_ != nullptr);
  MEMHD_EXPECTS(truth < num_classes_);
  const common::BitVector hv = encoder_->encode(features);

  std::vector<std::uint32_t> scores;
  am_->scores_binary(hv, scores);
  const std::size_t predicted_slot = am_->best_centroid(scores);
  if (am_->owner(predicted_slot) == truth) return false;

  const std::size_t true_slot = am_->best_centroid_of_class(scores, truth);
  hdc::add_bipolar(am_->fp().row(true_slot), hv, cfg_.learning_rate);
  hdc::add_bipolar(am_->fp().row(predicted_slot), hv, -cfg_.learning_rate);
  am_->normalize(cfg_.normalization);
  am_->binarize();
  refresh_cascade();  // the binary plane changed; re-snapshot
  return true;
}

PartialFitReport MemhdModel::partial_fit(
    const common::Matrix& samples, std::span<const data::Label> labels) {
  MEMHD_EXPECTS(am_ != nullptr);
  MEMHD_EXPECTS(samples.rows() == labels.size());
  MEMHD_EXPECTS(samples.cols() == num_features());

  PartialFitReport report;
  report.samples = labels.size();
  if (labels.empty()) return report;

  const auto encoded = encoder_->encode_batch(samples);

  // Slots whose FP row changes; re-binarized once at the end so every
  // untouched binary row stays bit-identical.
  std::vector<std::size_t> touched;

  data::Label max_label = 0;
  for (const auto label : labels) max_label = std::max(max_label, label);
  // 0xFFFF is the AM's unassigned-slot sentinel and can never be a class.
  MEMHD_EXPECTS(max_label < 0xFFFF);
  if (max_label >= num_classes_)
    extend_classes(static_cast<std::size_t>(max_label) + 1, encoded, labels,
                   touched, report);

  // Mispredict-driven bundling, the same Eq. 4-6 step as update() — and
  // with the same per-miss feedback: the two touched rows are renormalized
  // and re-quantized immediately, so the next sample in the batch scores
  // against the corrected AM. Without that feedback every miss of a class
  // lands on the same stale best-slot and the same victim slot, which
  // over-corrects both until the update hurts more than it helps. The
  // quantization threshold (global FP mean) is computed once per batch —
  // one update moves it by O(learning_rate / columns), noise at these
  // scales — and the final binarize_rows below re-quantizes every touched
  // row against the exact end-of-batch mean.
  const float threshold = static_cast<float>(am_->fp().mean());
  std::vector<std::uint32_t> scores;
  std::size_t pair[2];
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const common::BitVector& hv = encoded[i];
    am_->scores_binary(hv, scores);
    const std::size_t predicted_slot = am_->best_centroid(scores);
    if (am_->owner(predicted_slot) == labels[i]) continue;
    const std::size_t true_slot =
        am_->best_centroid_of_class(scores, labels[i]);
    hdc::add_bipolar(am_->fp().row(true_slot), hv, cfg_.learning_rate);
    hdc::add_bipolar(am_->fp().row(predicted_slot), hv, -cfg_.learning_rate);
    pair[0] = true_slot;
    pair[1] = predicted_slot;
    am_->normalize_rows(cfg_.normalization, pair);
    am_->binarize_rows(pair, threshold);
    touched.push_back(true_slot);
    touched.push_back(predicted_slot);
    ++report.mispredicted;
  }

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  report.touched_centroids = touched.size();
  if (!touched.empty()) {
    // Idempotent for already-normalized miss rows; needed for freshly
    // extended centroids, which are bundled un-normalized.
    am_->normalize_rows(cfg_.normalization, touched);
    am_->binarize_rows(touched);
  }
  // One snapshot refresh per batch (covers extend_classes growth too);
  // readers holding the previous cascade_ptr() keep their old plane.
  if (report.mispredicted > 0 || report.new_columns > 0) refresh_cascade();
  return report;
}

void MemhdModel::extend_classes(std::size_t new_num_classes,
                                std::span<const common::BitVector> encoded,
                                std::span<const data::Label> labels,
                                std::vector<std::size_t>& touched,
                                PartialFitReport& report) {
  const std::size_t old_classes = num_classes_;
  const std::size_t old_columns = cfg_.columns;
  // Keep the deployed centroid density: each appended class gets the AM's
  // current average centroids-per-class worth of fresh slots.
  const std::size_t per_class =
      std::max<std::size_t>(1, old_columns / old_classes);
  const std::size_t added_classes = new_num_classes - old_classes;
  const std::size_t extra = per_class * added_classes;
  am_->extend(new_num_classes, extra);
  cfg_.columns = old_columns + extra;
  num_classes_ = new_num_classes;
  report.new_classes = added_classes;
  report.new_columns = extra;

  std::vector<float> row(cfg_.dim);
  std::size_t next_col = old_columns;
  for (std::size_t c = old_classes; c < new_num_classes; ++c) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < labels.size(); ++i)
      if (labels[i] == c) members.push_back(i);
    for (std::size_t j = 0; j < per_class; ++j) {
      std::fill(row.begin(), row.end(), 0.0f);
      bool bundled = false;
      // Round-robin split of the class's samples across its slots: each
      // slot bundles a disjoint share, so the slots start as distinct
      // sub-centroids rather than per_class identical copies.
      for (std::size_t k = j; k < members.size(); k += per_class) {
        hdc::add_bipolar(row, encoded[members[k]], 1.0f);
        bundled = true;
      }
      if (!bundled) {
        // Fewer samples than slots (or a gap class with no samples at
        // all): seed a deterministic random bipolar centroid so the slot
        // is still a valid search target and trainable later.
        common::Rng rng(cfg_.seed ^ (0xC0FFEEULL + next_col * 0x9E37ULL));
        for (auto& v : row) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
      }
      am_->set_centroid(next_col, static_cast<data::Label>(c), row);
      touched.push_back(next_col);
      ++next_col;
    }
  }
}

QatTrace MemhdModel::adapt(const data::Dataset& data, std::size_t epochs) {
  MEMHD_EXPECTS(am_ != nullptr);
  const auto encoded = encoder_->encode_dataset(data);
  QatConfig qc;
  qc.epochs = epochs;
  qc.learning_rate = cfg_.learning_rate;
  qc.normalization = cfg_.normalization;
  qc.keep_best = false;  // no eval set: keep the final state
  qc.seed = cfg_.seed ^ 0xADA97ULL;
  QatTrace trace = train_qat(*am_, encoded, nullptr, qc);
  refresh_cascade();
  return trace;
}

double MemhdModel::evaluate(const data::Dataset& test) const {
  MEMHD_EXPECTS(am_ != nullptr);
  if (test.empty()) return 0.0;
  const auto predicted = predict_batch(test.features());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (predicted[i] == test.label(i)) ++correct;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

double MemhdModel::evaluate_encoded(const hdc::EncodedDataset& test) const {
  MEMHD_EXPECTS(am_ != nullptr);
  return evaluate_binary(*am_, test);
}

std::size_t MemhdModel::memory_bits() const {
  return encoder_->memory_bits() + cfg_.columns * cfg_.dim;
}

void MemhdModel::save(const std::string& path) const {
  MEMHD_EXPECTS(am_ != nullptr);
  save_model(*this, path);
}

MemhdModel MemhdModel::load(const std::string& path) {
  return load_model(path);
}

}  // namespace memhd::core
