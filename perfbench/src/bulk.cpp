// The bulk workload: one caller scoring the MNIST-like test split through
// Classifier::predict_batch in calls of 1,024 rows, against MEMHD at the
// paper's fully-utilized square shape (D = C = 512). No sockets, queue or
// batch window: every call takes the pool-parallel encode path. The model
// and its data are the same on every run; the seed orders the test rows.
#include <algorithm>
#include <cstdio>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/data/synthetic.hpp"
#include "traced_classifier.hpp"
#include "workload.hpp"

namespace memhd::perfbench {

namespace {

constexpr std::size_t kRowsPerCall = 1024;
constexpr int kSetups = 3;
constexpr int kWindows = 7;
/// Rows checked against per-row predict() (spread over the test split).
constexpr std::size_t kPredictSample = 64;

}  // namespace

WorkloadResult run_bulk(const Options& options, Tracer* tracer) {
  WorkloadResult result;
  data::SyntheticConfig cfg = data::mnist_like_config(data::Scale::kBench);
  cfg.train_per_class = 200;
  cfg.test_per_class = 400;
  common::Rng data_rng(23);
  data::TrainTestSplit split = data::generate_synthetic(cfg, data_rng);
  common::Rng order_rng(0x0DE40000ULL + options.seed);
  split.test.shuffle(order_rng);
  const common::Matrix& test = split.test.features();
  const std::size_t n = test.rows();

  api::ModelOptions model_options;
  model_options.dim = 512;
  model_options.columns = 512;
  model_options.seed = 5;

  std::vector<double> setups;
  FitResult fit;
  for (int i = 0; i < (tracer != nullptr ? 1 : kSetups); ++i) {
    fit = make_fit_roundtrip(split.train, model_options, tracer);
    setups.push_back(fit.seconds);
  }
  std::unique_ptr<api::Classifier> deployed = std::move(fit.loaded);
  if (tracer != nullptr) deployed = wrap_traced(std::move(deployed), *tracer);
  const std::vector<data::Label> expected =
      check_load_copy(result, *fit.fitted, *deployed, test);
  for (std::size_t i = 0; i < kPredictSample; ++i) {
    const std::size_t r = i * n / kPredictSample;
    result.check(untraced(*deployed).predict(test.row(r)) == expected[r],
                 "per-row predict matches predict_batch on row " +
                     std::to_string(r));
  }
  FitDecomposition stages;
  if (tracer != nullptr)
    stages = decompose_fit(split.train, model_options, *fit.fitted, tracer);
  report_setup(result, setups, fit, tracer != nullptr ? &stages : nullptr);

  // Call c scores rows (c * 1024 + i) mod n, so the calls cycle through
  // the whole split.
  const std::size_t num_calls = (n + kRowsPerCall - 1) / kRowsPerCall;
  std::vector<common::Matrix> calls;
  std::vector<std::vector<std::size_t>> call_rows;
  for (std::size_t c = 0; c < num_calls; ++c) {
    common::Matrix m(kRowsPerCall, test.cols());
    std::vector<std::size_t> rows(kRowsPerCall);
    for (std::size_t i = 0; i < kRowsPerCall; ++i) {
      rows[i] = (c * kRowsPerCall + i) % n;
      std::copy_n(test.row(rows[i]).begin(), test.cols(), m.row(i).begin());
    }
    calls.push_back(std::move(m));
    call_rows.push_back(std::move(rows));
  }
  std::size_t wrong = 0;
  const auto score = [&](std::size_t c) {
    const std::vector<data::Label> labels = deployed->predict_batch(calls[c]);
    for (std::size_t i = 0; i < kRowsPerCall; ++i) {
      const bool ok = labels[i] == expected[call_rows[c][i]];
      result.tally.add(ok ? Outcome::kOk : Outcome::kMismatch);
      wrong += ok ? 0 : 1;
    }
  };
  for (std::size_t c = 0; c < num_calls; ++c) score(c);  // warm-up
  if (tracer != nullptr) tracer->take_calls();

  // kWindows consecutive windows of --seconds / kWindows each; every figure
  // is the median over windows, like the serving workloads'.
  std::vector<PhaseSummary> windows;
  double wall_s = 0.0;
  std::size_t next_call = 0;
  for (int w = 0; w < kWindows; ++w) {
    std::vector<double> call_ms;
    const auto start = Clock::now();
    const auto stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds / kWindows));
    Clock::time_point now = start;
    while (now < stop || call_ms.size() < 3) {
      const auto t0 = Clock::now();
      score(next_call++ % num_calls);
      now = Clock::now();
      call_ms.push_back(ms_between(t0, now));
    }
    PhaseSummary s;
    s.p50_ms = percentile(call_ms, 0.50);
    s.p90_ms = percentile(call_ms, 0.90);
    s.p99_ms = percentile(call_ms, 0.99);
    s.ok_per_s = static_cast<double>(call_ms.size() * kRowsPerCall) /
                 s_between(start, now);
    windows.push_back(s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "window bulk  calls %5zu  rows/s %9.0f  p50 %7.3f  "
                  "p90 %7.3f  p99 %7.3f ms",
                  call_ms.size(), s.ok_per_s, s.p50_ms.value, s.p90_ms.value,
                  s.p99_ms.value);
    result.lines.push_back(line);
    wall_s += s_between(start, now);
  }
  if (wrong > 0)
    result.failures.push_back(std::to_string(wrong) +
                              " scored rows disagree with predict_batch");

  const PhaseSummary s = median_of_windows(windows);
  const std::string how = "median of " + std::to_string(kWindows) + " windows";
  report_latency(result, s, "", how + " of 1,024-row calls");
  result.e2e.set("goodput_per_s", s.ok_per_s, "1/s",
                 "rows scored per second, " + how);
  result.e2e.set("bulk_qps", s.ok_per_s, "rows/s");
  result.e2e.set("accuracy", common::accuracy(split.test.labels(), expected),
                 "fraction");
  report_outcomes(result);

  if (tracer != nullptr) {
    report_scoring_layers(result.layer, tracer->take_calls(), wall_s);
    result.check(check_split_matches_inner(
                     dynamic_cast<const TracedClassifier&>(*deployed), test) ==
                     0,
                 "traced encode/search split matches predict_batch_into");
  }
  return result;
}

}  // namespace memhd::perfbench
