#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/api/adapters.hpp"
#include "src/core/initializer.hpp"
#include "src/core/qat_trainer.hpp"
#include "traced_classifier.hpp"

namespace memhd::perfbench {

void Metrics::set(std::string name, double value, std::string unit,
                  std::string note) {
  for (Metric& m : items_)
    if (m.name == name) {
      m = {std::move(name), value, std::move(unit), std::move(note)};
      return;
    }
  items_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

void Metrics::append(const Metrics& other) {
  for (const Metric& m : other.items()) set(m.name, m.value, m.unit, m.note);
}

void WorkloadResult::check(bool ok, const std::string& what) {
  tally.add(ok ? Outcome::kOk : Outcome::kMismatch);
  if (!ok) failures.push_back(what);
}

FitResult make_fit_roundtrip(const data::Dataset& train,
                             const api::ModelOptions& options,
                             Tracer* tracer) {
  FitResult out;
  const auto start = Clock::now();
  {
    Scope span(tracer, "api.make");
    out.fitted = api::make("memhd", train.num_features(), train.num_classes(),
                           options);
  }
  {
    Scope span(tracer, "api.fit");
    out.fitted->fit(train);
    out.fit_s = s_between(span.start(), span.close());
  }
  std::stringstream buffer;
  {
    Scope span(tracer, "api.save");
    api::save(*out.fitted, buffer);
    out.save_ms = ms_between(span.start(), span.close());
  }
  out.model_bytes = buffer.str().size();
  {
    Scope span(tracer, "api.load");
    out.loaded = api::load(buffer);
    out.load_ms = ms_between(span.start(), span.close());
  }
  out.seconds = s_between(start, Clock::now());
  return out;
}

FitDecomposition decompose_fit(const data::Dataset& train,
                               const api::ModelOptions& options,
                               const api::Classifier& fitted,
                               Tracer* tracer) {
  // The same construction fit() runs, one public stage at a time (see
  // core::MemhdModel::fit_encoded): a fresh model from the same options
  // has the same encoder plane, so the stages must rebuild the same AM.
  const core::MemhdConfig cfg = options.memhd();
  const auto fresh = api::make("memhd", train.num_features(),
                               train.num_classes(), options);
  const auto& encoder =
      dynamic_cast<const api::MemhdClassifier&>(*fresh).model().encoder();
  FitDecomposition out;
  hdc::EncodedDataset encoded;
  {
    Scope span(tracer, "hdc.encode_dataset");
    encoded = encoder.encode_dataset(train);
    out.encode_dataset_s = s_between(span.start(), span.close());
  }
  core::MultiCentroidAM am;
  {
    Scope span(tracer, "core.initialize");
    am = core::initialize(encoded, cfg);
    out.initialize_s = s_between(span.start(), span.close());
  }
  {
    Scope span(tracer, "core.train_qat");
    core::QatConfig qc;
    qc.epochs = cfg.epochs;
    qc.learning_rate = cfg.learning_rate;
    qc.normalization = cfg.normalization;
    qc.seed = cfg.seed;
    core::train_qat(am, encoded, nullptr, qc);
    out.train_qat_s = s_between(span.start(), span.close());
  }
  const auto& deployed =
      dynamic_cast<const api::MemhdClassifier&>(untraced(fitted)).model().am();
  out.identical = am.binary() == deployed.binary();
  return out;
}

void report_setup(WorkloadResult& result, const std::vector<double>& setups,
                  const FitResult& last, const FitDecomposition* stages) {
  std::ostringstream note;
  note << "median of " << setups.size() << ":";
  for (double s : setups) note << ' ' << s;
  const double setup_s = median(setups);
  result.e2e.set("setup_s", setup_s, "s", note.str());
  if (stages == nullptr) return;
  Metrics& layer = result.layer;
  layer.set("api.save_ms", last.save_ms, "ms");
  layer.set("api.load_ms", last.load_ms, "ms");
  layer.set("api.model_bytes", static_cast<double>(last.model_bytes), "bytes");
  layer.set("hdc.encode_dataset_s", stages->encode_dataset_s, "s");
  layer.set("core.initialize_s", stages->initialize_s, "s");
  layer.set("core.train_qat_s", stages->train_qat_s, "s");
  // The stages ran apart from the timed set-up, so the share is taken of
  // the set-up with its fit() replaced by the three stages.
  const double staged_setup_s = setup_s - last.fit_s +
                                stages->encode_dataset_s +
                                stages->initialize_s + stages->train_qat_s;
  layer.set("core.initialize_share", stages->initialize_s / staged_setup_s,
            "fraction", "of setup_s");
  result.check(stages->identical,
               "encode_dataset -> initialize -> train_qat rebuilds the "
               "fitted AM bit for bit");
}

std::vector<data::Label> check_load_copy(WorkloadResult& result,
                                         const api::Classifier& fitted,
                                         const api::Classifier& loaded,
                                         const common::Matrix& rows) {
  std::vector<data::Label> expected = untraced(fitted).predict_batch(rows);
  const std::vector<data::Label> reloaded =
      untraced(loaded).predict_batch(rows);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const bool same = expected[i] == reloaded[i];
    result.tally.add(same ? Outcome::kOk : Outcome::kMismatch);
    differ += same ? 0 : 1;
  }
  if (differ > 0)
    result.failures.push_back("api::load copy disagrees with the fitted "
                              "model on " + std::to_string(differ) + " rows");
  return expected;
}

void report_latency(WorkloadResult& result, const PhaseSummary& summary,
                    const char* suffix, const std::string& how) {
  const std::string note =
      how + ", n=" + std::to_string(summary.p99_ms.samples);
  const std::string s = suffix;
  result.e2e.set("p50_ms" + s, summary.p50_ms.value, "ms", note);
  result.e2e.set("p90_ms" + s, summary.p90_ms.value, "ms", note);
  result.e2e.set("p99_ms" + s, summary.p99_ms.value, "ms", note);
}

void report_outcomes(WorkloadResult& result) {
  result.e2e.set("failed_share", result.tally.failed_share(), "fraction");
  result.e2e.set("ok_share", 1.0 - result.tally.failed_share(), "fraction");
  result.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_timing(Metrics& out, const std::string& name,
                std::vector<double> samples) {
  const Percentile p50 = percentile(samples, 0.50);
  const Percentile p99 = percentile(std::move(samples), 0.99);
  const std::string n = "n=" + std::to_string(p50.samples);
  out.set(name + ".p50", p50.value, "ms", n);
  out.set(name + ".p99", p99.value, "ms", n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void report_scoring_layers(Metrics& out, const std::vector<ScoreCall>& calls,
                           double wall_s) {
  if (calls.empty()) return;
  struct Bucket {
    const char* name;
    std::uint32_t max_rows;
    double encode_ms = 0.0;
    std::uint64_t rows = 0;
  };
  Bucket buckets[] = {{"hdc.encode_us_per_row.b1", 1},
                      {"hdc.encode_us_per_row.b2_4", 4},
                      {"hdc.encode_us_per_row.b5_16", 16},
                      {"hdc.encode_us_per_row.b17_64", 64},
                      {"hdc.encode_us_per_row.b65up", ~std::uint32_t{0}}};
  std::vector<double> score_ms, rows_per_call;
  double total_ms = 0.0, encode_ms = 0.0, search_ms = 0.0;
  std::uint64_t rows = 0;
  for (const ScoreCall& call : calls) {
    const double call_ms = ms_between(call.start, call.end);
    const double enc = ms_between(call.start, call.encode_end);
    score_ms.push_back(call_ms);
    rows_per_call.push_back(call.count);
    total_ms += call_ms;
    encode_ms += enc;
    search_ms += ms_between(call.encode_end, call.search_end);
    rows += call.count;
    for (Bucket& b : buckets)
      if (call.count <= b.max_rows) {
        b.encode_ms += enc;
        b.rows += call.count;
        break;
      }
  }
  add_timing(out, "api.score_ms", std::move(score_ms));
  out.set("api.rows_per_call.p50", percentile(rows_per_call, 0.50).value,
          "rows");
  out.set("api.rows_per_call.max",
          *std::max_element(rows_per_call.begin(), rows_per_call.end()),
          "rows");
  out.set("api.score_busy", total_ms / 1e3 / wall_s, "fraction",
          "scoring time / wall time");
  const double rows_d = static_cast<double>(rows);
  out.set("hdc.encode_us_per_row", encode_ms * 1e3 / rows_d, "us");
  for (const Bucket& b : buckets)
    if (b.rows > 0)
      out.set(b.name, b.encode_ms * 1e3 / static_cast<double>(b.rows), "us",
              "rows=" + std::to_string(b.rows));
  out.set("hdc.encode_share", encode_ms / total_ms, "fraction",
          "of scoring time");
  out.set("common.search_us_per_row", search_ms * 1e3 / rows_d, "us");
  out.set("common.search_share", search_ms / total_ms, "fraction",
          "of scoring time");
}

std::unique_ptr<api::Classifier> wrap_traced(
    std::unique_ptr<api::Classifier> model, Tracer& tracer) {
  auto* memhd = dynamic_cast<api::MemhdClassifier*>(model.get());
  if (memhd == nullptr)
    throw std::invalid_argument("wrap_traced: not a MEMHD model");
  model.release();
  return std::make_unique<TracedClassifier>(
      std::unique_ptr<api::MemhdClassifier>(memhd), tracer);
}

const api::Classifier& untraced(const api::Classifier& model) {
  if (const auto* traced = dynamic_cast<const TracedClassifier*>(&model))
    return traced->inner();
  return model;
}

}  // namespace memhd::perfbench
