// What every workload shares: run options, the metric list a run reports,
// the timed set-up (api::make -> fit -> save/load), the traced run's
// decomposed set-up, and the per-layer figures computed from the traced
// classifier's scoring calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/registry.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace memhd::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured load per run
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // e.g. "n=6000" or "median of 3"
};

/// Ordered name -> value list; set() replaces an existing entry.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit,
           std::string note = {});
  const Metric* find(std::string_view name) const;
  const std::vector<Metric>& items() const { return items_; }
  void append(const Metrics& other);

 private:
  std::vector<Metric> items_;
};

struct WorkloadResult {
  /// End-to-end figures: the BENCHMARK.json names plus the per-workload
  /// names the README maps them from (p50_ms_1k, max_qps, ...).
  Metrics e2e;
  /// Per-layer figures (traced run only).
  Metrics layer;
  /// Every output the run checked; a failed check also lands here.
  Tally tally;
  std::vector<std::string> failures;
  /// Extra report lines (per-phase tables).
  std::vector<std::string> lines;

  /// Counts one checked output; `ok` false records `what` as a failure.
  void check(bool ok, const std::string& what);
};

WorkloadResult run_serve(const Options& options, Tracer* tracer);
WorkloadResult run_serve_train(const Options& options, Tracer* tracer);
WorkloadResult run_bulk(const Options& options, Tracer* tracer);

// ------------------------------------------------------------- set-up ----

/// One timed api::make -> fit -> api::save -> api::load round trip (in
/// memory). `fitted` is kept for the load-copy check; `loaded` is what gets
/// deployed.
struct FitResult {
  std::unique_ptr<api::Classifier> fitted;
  std::unique_ptr<api::Classifier> loaded;
  double seconds = 0.0;  // make + fit + save + load
  double fit_s = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t model_bytes = 0;
};
FitResult make_fit_roundtrip(const data::Dataset& train,
                             const api::ModelOptions& options, Tracer* tracer);

/// The traced run's view of fit: encode_dataset -> core::initialize ->
/// core::train_qat on a fresh model built from the same options, each
/// timed, and whether the result matches `fitted`'s AM bit for bit.
struct FitDecomposition {
  double encode_dataset_s = 0.0;
  double initialize_s = 0.0;
  double train_qat_s = 0.0;
  bool identical = false;
};
FitDecomposition decompose_fit(const data::Dataset& train,
                               const api::ModelOptions& options,
                               const api::Classifier& fitted, Tracer* tracer);

/// Records the set-up figures every workload reports: setup_s (median of
/// `setups`), and in traced runs the persistence and fit-stage layers.
void report_setup(WorkloadResult& result, const std::vector<double>& setups,
                  const FitResult& last, const FitDecomposition* stages);

/// The fitted-vs-loaded check every workload runs: both predict the same
/// label for every row of `rows`. Returns the fitted model's labels.
std::vector<data::Label> check_load_copy(WorkloadResult& result,
                                         const api::Classifier& fitted,
                                         const api::Classifier& loaded,
                                         const common::Matrix& rows);

/// `p50_ms<suffix>`, `p90_ms<suffix>` and `p99_ms<suffix>` of a phase, noted
/// with `how` they were measured and the sample count.
void report_latency(WorkloadResult& result, const PhaseSummary& summary,
                    const char* suffix, const std::string& how);

/// failed_share, ok_share (its complement) and peak_rss_mb.
void report_outcomes(WorkloadResult& result);

/// `<name>.p50` and `<name>.p99` of `samples` (ms), with the sample count.
void add_timing(Metrics& out, const std::string& name,
                std::vector<double> samples);

/// Process peak resident set size in MB (getrusage).
double peak_rss_mb();

// ------------------------------------------------------------- layers ----

/// Scoring-side layer figures over `calls` made during `wall_s` seconds:
/// api.score_ms, api.rows_per_call, api.score_busy, hdc.encode_us_per_row
/// (overall and per rows-per-call bucket), hdc.encode_share,
/// common.search_us_per_row and common.search_share.
void report_scoring_layers(Metrics& out, const std::vector<ScoreCall>& calls,
                           double wall_s);

/// The traced classifier around `model` (which must be the MEMHD adapter).
std::unique_ptr<api::Classifier> wrap_traced(
    std::unique_ptr<api::Classifier> model, Tracer& tracer);

/// `model` itself, or the model inside it when it is a TracedClassifier:
/// reference predictions must not add spans to the trace.
const api::Classifier& untraced(const api::Classifier& model);

}  // namespace memhd::perfbench
