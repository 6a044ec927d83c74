#include "traced_classifier.hpp"

#include <algorithm>
#include <stdexcept>

namespace memhd::perfbench {

namespace {

struct TracedContext final : api::Classifier::PredictContext {
  std::unique_ptr<api::Classifier::PredictContext> inner;
  std::shared_ptr<const common::BatchScorer> scorer;
  std::vector<std::uint32_t> best;
};

common::Matrix leading_rows(const common::Matrix& rows, std::size_t count) {
  common::Matrix out(count, rows.cols());
  for (std::size_t r = 0; r < count; ++r)
    std::copy_n(rows.row(r).begin(), rows.cols(), out.row(r).begin());
  return out;
}

}  // namespace

TracedClassifier::TracedClassifier(
    std::unique_ptr<api::MemhdClassifier> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(&tracer), serial_(tracer.new_id()) {
  if (inner_ == nullptr)
    throw std::invalid_argument("TracedClassifier: null model");
  if (inner_->model().config().cascade.enabled)
    throw std::invalid_argument("TracedClassifier: cascade must be off");
}

void TracedClassifier::fit(const data::Dataset& train,
                           const data::Dataset* eval) {
  inner_->fit(train, eval);
  std::lock_guard<std::mutex> lock(scorer_mutex_);
  scorer_.reset();
}

std::vector<data::Label> TracedClassifier::predict_batch(
    const common::Matrix& features) const {
  std::vector<data::Label> out(features.rows());
  predict_batch_into(features, out, nullptr);
  return out;
}

std::shared_ptr<const common::BatchScorer> TracedClassifier::scorer() const {
  std::lock_guard<std::mutex> lock(scorer_mutex_);
  if (scorer_ == nullptr)
    scorer_ = std::make_shared<const common::BatchScorer>(
        inner_->model().am().binary());
  return scorer_;
}

std::unique_ptr<api::Classifier::PredictContext>
TracedClassifier::make_predict_context() const {
  auto context = std::make_unique<TracedContext>();
  context->scorer = scorer();
  Scope span(tracer_, "api.context_build");
  context->inner = inner_->make_predict_context();
  return context;
}

void TracedClassifier::predict_batch_into(const common::Matrix& features,
                                          std::span<data::Label> out,
                                          PredictContext* context) const {
  if (out.size() != features.rows())
    throw std::invalid_argument("TracedClassifier: output size mismatch");
  const auto rows = static_cast<std::uint32_t>(features.rows());
  auto* traced_context = dynamic_cast<TracedContext*>(context);
  const core::MemhdModel& model = inner_->model();

  ScoreCall call;
  call.instance = serial_;
  call.count = rows;
  {
    Scope span(tracer_, "api.predict_batch_into", rows);
    call.start = span.start();
    std::vector<common::BitVector> encoded;
    {
      Scope encode(tracer_, "hdc.encode_batch", rows);
      encoded = model.encoder().encode_batch(features);
      call.encode_end = encode.close();
    }
    {
      Scope search(tracer_, "common.search", rows);
      if (traced_context != nullptr) {
        traced_context->scorer->dot_argmax(
            std::span<const common::BitVector>(encoded), traced_context->best);
        for (std::size_t q = 0; q < encoded.size(); ++q)
          out[q] = model.am().owner(traced_context->best[q]);
      } else {
        const auto labels = model.am().predict_batch(encoded);
        std::copy(labels.begin(), labels.end(), out.begin());
      }
      call.search_end = search.close();
    }
    call.end = span.close();
  }
  // Attribution happens after the timed spans so it is not billed to any
  // layer; its cost shows up only in the tracing overhead.
  if (const RowIndex* index = tracer_->row_index()) {
    call.rows.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r)
      call.rows.push_back(
          index->find(features.row(r)).value_or(ScoreCall::kUnmapped));
  }
  tracer_->add_call(std::move(call));
}

core::PartialFitReport TracedClassifier::partial_fit(
    const common::Matrix& samples, std::span<const data::Label> labels) {
  Scope span(tracer_, "core.partial_fit",
             static_cast<std::uint32_t>(samples.rows()));
  const core::PartialFitReport report = inner_->partial_fit(samples, labels);
  std::lock_guard<std::mutex> lock(scorer_mutex_);
  scorer_.reset();
  return report;
}

std::unique_ptr<api::Classifier> TracedClassifier::clone() const {
  Scope span(tracer_, "online.clone");
  std::unique_ptr<api::Classifier> copy = inner_->clone();
  auto* memhd = dynamic_cast<api::MemhdClassifier*>(copy.get());
  if (memhd == nullptr)
    throw std::logic_error("TracedClassifier: clone is not a MEMHD model");
  copy.release();
  return std::make_unique<TracedClassifier>(
      std::unique_ptr<api::MemhdClassifier>(memhd), *tracer_);
}

std::size_t check_split_matches_inner(const TracedClassifier& traced,
                                      const common::Matrix& rows) {
  std::size_t mismatches = 0;
  const auto traced_context = traced.make_predict_context();
  const auto inner_context = traced.inner().make_predict_context();
  for (const std::size_t size : {1, 3, 16, 64, 1024}) {
    if (size > rows.rows()) break;
    const common::Matrix batch = leading_rows(rows, size);
    std::vector<data::Label> split(size), split_ctx(size), plain(size),
        plain_ctx(size);
    traced.predict_batch_into(batch, split, nullptr);
    traced.predict_batch_into(batch, split_ctx, traced_context.get());
    traced.inner().predict_batch_into(batch, plain, nullptr);
    traced.inner().predict_batch_into(batch, plain_ctx, inner_context.get());
    for (std::size_t i = 0; i < size; ++i)
      mismatches += (split[i] != plain[i]) + (split_ctx[i] != plain_ctx[i]);
  }
  return mismatches;
}

}  // namespace memhd::perfbench
