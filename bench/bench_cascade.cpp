// Coarse-to-fine cascade benchmark (src/search/): what the two-stage
// search buys over exhaustive scoring as the centroid count scales.
//
// For each plane size C*K in {256, 1k, 4k, 16k} (D = 2048, structured
// queries: noised prototype copies, the regime associative recall serves):
//
//   * exhaustive q/s  — BatchScorer::dot_argmax over the full plane;
//   * threshold q/s   — the cascade (1/8 sample, shortlist 64), with its
//     shortlist hit-rate (fraction of queries whose pruned argmax equals
//     the exhaustive one) and rescored row fraction.
//
// A fitted-model section reports end-to-end accuracy with the cascade off
// vs. on (threshold mode) on held-out data: the measured accuracy delta
// behind the "<= 0.5%" claim.
//
// Writes BENCH_cascade.json (MEMHD_BENCH_JSON overrides), gated by
// tools/check_bench_regression.py ("bench": "cascade"): machine-independent
// checks (hit-rate floor, pruning power, accuracy delta) always run; the
// threshold speedup is gated against the same-kernel baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/api/registry.hpp"
#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/common/cli.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/search/cascade.hpp"

namespace memhd {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SizeResult {
  std::size_t rows = 0;
  double exhaustive_qps = 0.0;
  double threshold_qps = 0.0;
  double hit_rate = 0.0;           // threshold argmax == exhaustive
  double rescored_fraction = 0.0;  // threshold stage-2 rows / (nq * rows)
};

/// Noised prototype queries: each query is a random plane row with ~10% of
/// its bits flipped — close enough that recall is meaningful, far enough
/// that the prescreen has real work to do.
std::vector<common::BitVector> make_queries(const common::BitMatrix& plane,
                                            std::size_t n, std::size_t bits,
                                            common::Rng& rng) {
  std::vector<common::BitVector> queries;
  queries.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    common::BitVector hv(bits);
    std::memcpy(hv.words(), plane.row(rng.next_u64() % plane.rows()),
                plane.words_per_row() * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < bits / 10; ++i)
      hv.flip(rng.next_u64() % bits);
    queries.push_back(std::move(hv));
  }
  return queries;
}

/// Best-of-reps queries/sec for one argmax engine.
template <typename F>
double best_qps(std::size_t nq, int reps, F&& run) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    run();
    const double elapsed = seconds_between(t0, Clock::now());
    if (elapsed > 0) best = std::max(best, static_cast<double>(nq) / elapsed);
  }
  return best;
}

SizeResult measure_size(std::size_t rows, std::size_t bits, std::size_t nq,
                        int reps, common::Rng& rng) {
  SizeResult res;
  res.rows = rows;
  const auto plane = common::BitMatrix::random(rows, bits, rng);
  const auto queries = make_queries(plane, nq, bits, rng);
  const std::span<const common::BitVector> qspan(queries);

  common::BatchScorer exhaustive(plane);
  std::vector<std::uint32_t> want, got;
  res.exhaustive_qps =
      best_qps(nq, reps, [&] { exhaustive.dot_argmax(qspan, want); });

  search::CascadeConfig tcfg;
  tcfg.sample_fraction = 0.125;
  tcfg.shortlist = 64;
  // Confidence early exit: accept the prescreen winner outright when its
  // sub-score margin reaches 16 bits (of D' = 256 sampled). hit_rate below
  // measures the combined shortlist + early-exit recall honestly.
  tcfg.early_exit_margin = 16;
  const search::CascadeSearcher threshold(plane, tcfg);
  res.threshold_qps =
      best_qps(nq, reps, [&] { threshold.dot_argmax(qspan, got); });
  search::CascadeStats tstats;
  threshold.dot_argmax(qspan, got, &tstats);
  std::size_t hits = 0;
  for (std::size_t q = 0; q < nq; ++q) hits += got[q] == want[q];
  res.hit_rate = static_cast<double>(hits) / static_cast<double>(nq);
  res.rescored_fraction =
      static_cast<double>(tstats.rescored_rows) /
      (static_cast<double>(nq) * static_cast<double>(rows));
  return res;
}

struct AccuracyResult {
  double exhaustive = 0.0;
  double threshold = 0.0;
};

/// End-to-end accuracy on a fitted model, cascade off vs. on: the honest
/// form of the "<= 0.5% delta" claim (shortlist misses only matter when
/// they flip a CLASS, not just a centroid).
AccuracyResult measure_accuracy() {
  data::SyntheticConfig data_cfg;
  data_cfg.num_classes = 16;
  data_cfg.num_features = 256;
  data_cfg.latent_dim = 12;
  data_cfg.modes_per_class = 4;
  data_cfg.train_per_class = 80;
  data_cfg.test_per_class = 40;
  common::Rng rng(31);
  const data::TrainTestSplit split = data::generate_synthetic(data_cfg, rng);

  api::ModelOptions opts;
  opts.dim = 2048;
  opts.columns = 128;
  opts.epochs = 3;
  opts.seed = 5;
  AccuracyResult acc;
  {
    auto clf = api::make("memhd", split.train.num_features(),
                         split.train.num_classes(), opts);
    clf->fit(split.train);
    acc.exhaustive = clf->evaluate(split.test);
  }
  {
    opts.cascade = true;
    opts.cascade_sample_fraction = 0.125;
    opts.cascade_shortlist = 64;
    auto clf = api::make("memhd", split.train.num_features(),
                         split.train.num_classes(), opts);
    clf->fit(split.train);
    acc.threshold = clf->evaluate(split.test);
  }
  return acc;
}

int run(int argc, const char* const* argv) {
  common::CliParser cli(
      "Cascade search benchmark: exhaustive vs. two-stage threshold recall "
      "across plane sizes, plus fitted-model accuracy deltas.");
  cli.add_flag("dim", "2048", "bits per row (D)");
  cli.add_flag("queries", "2048", "queries per measured batch");
  cli.add_flag("reps", "3", "timed repetitions per engine (best kept)");
  cli.add_bool_flag("json-only", "skip the human-readable table");
  if (!cli.parse(argc, argv)) return 1;
  const auto bits = static_cast<std::size_t>(std::max(64, cli.get_int("dim")));
  const auto nq =
      static_cast<std::size_t>(std::max(64, cli.get_int("queries")));
  const int reps = std::max(1, cli.get_int("reps"));
  const bool json_only = cli.get_bool("json-only");

  const std::size_t sizes[] = {256, 1024, 4096, 16384};
  std::vector<SizeResult> results;
  common::Rng rng(17);
  for (const std::size_t rows : sizes)
    results.push_back(measure_size(rows, bits, nq, reps, rng));
  const AccuracyResult acc = measure_accuracy();

  const char* path_env = std::getenv("MEMHD_BENCH_JSON");
  const std::string path =
      (path_env && *path_env) ? path_env : "BENCH_cascade.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"cascade\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n", common::active_backend().name);
  std::fprintf(f, "  \"threads\": %u,\n", common::configured_num_threads());
  std::fprintf(f, "  \"dim\": %zu,\n", bits);
  std::fprintf(f, "  \"queries\": %zu,\n", nq);
  for (const auto& r : results) {
    std::fprintf(f,
                 "  \"ck_%zu\": {\n"
                 "    \"rows\": %zu,\n"
                 "    \"exhaustive_qps\": %.1f,\n"
                 "    \"threshold_qps\": %.1f,\n"
                 "    \"threshold_speedup\": %.3f,\n"
                 "    \"hit_rate\": %.5f,\n"
                 "    \"rescored_fraction\": %.5f\n"
                 "  },\n",
                 r.rows, r.rows, r.exhaustive_qps, r.threshold_qps,
                 r.exhaustive_qps > 0 ? r.threshold_qps / r.exhaustive_qps : 0,
                 r.hit_rate, r.rescored_fraction);
  }
  std::fprintf(f,
               "  \"model_accuracy\": {\n"
               "    \"exhaustive\": %.5f,\n"
               "    \"threshold\": %.5f,\n"
               "    \"delta\": %.5f\n"
               "  }\n",
               acc.exhaustive, acc.threshold, acc.exhaustive - acc.threshold);
  std::fprintf(f, "}\n");
  std::fclose(f);

  if (!json_only) {
    std::printf("cascade search [%s kernel, %u thread(s), D=%zu, %zu "
                "queries]:\n",
                common::active_backend().name,
                common::configured_num_threads(), bits, nq);
    std::printf("  %8s %12s %12s %8s %9s %9s\n", "C*K", "exhaust q/s",
                "thresh q/s", "thr x", "hit", "rescored");
    for (const auto& r : results)
      std::printf("  %8zu %12.0f %12.0f %7.2fx %8.2f%% %8.2f%%\n", r.rows,
                  r.exhaustive_qps, r.threshold_qps,
                  r.exhaustive_qps > 0 ? r.threshold_qps / r.exhaustive_qps
                                       : 0,
                  100 * r.hit_rate, 100 * r.rescored_fraction);
    std::printf("  model accuracy: exhaustive %.2f%% -> threshold %.2f%% "
                "(delta %+.2f%%)\n",
                100 * acc.exhaustive, 100 * acc.threshold,
                100 * (acc.exhaustive - acc.threshold));
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace memhd

int main(int argc, char** argv) { return memhd::run(argc, argv); }
