// Online-learning benchmark (src/online/): what continuous training and
// hot swapping cost while a model serves.
//
//   1. partial_fit throughput — samples/sec of incremental training passes
//      on the store's private working copy (drifted inputs, so the
//      mispredict-driven update path does real work);
//   2. COW cost — milliseconds to clone the current version (the lazy copy
//      partial_fit pays once per publish cycle) and to publish() it;
//   3. serving under swaps — closed-loop latency through an api::BatchServer
//      pinned to the store, measured with the current version held still
//      and again while a swapper thread flips versions continuously. The
//      pin-at-batch-cut design claims swaps cost a per-shard context
//      rebuild, not a stall: p99 in the swap phase must stay within a small
//      factor of the no-swap phase.
//
// The no-swap queries/sec doubles as the machine-speed anchor
// (anchor_queries_per_sec) that tools/check_bench_regression.py uses to
// normalize the training-side numbers across hosts. Writes
// BENCH_online.json (MEMHD_BENCH_JSON overrides), gated against
// bench/baselines/BENCH_online.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/batch_server.hpp"
#include "src/api/registry.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/common/cli.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/online/model_store.hpp"

namespace memhd {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

struct ServePhase {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t swaps = 0;
};

/// Closed-loop serving: `threads` clients each keep one request in flight
/// against `server` for `duration`, sampling per-request latency.
ServePhase run_serve_phase(api::BatchServer& server,
                           const data::Dataset& queries, std::size_t threads,
                           std::chrono::milliseconds duration) {
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<std::uint64_t> requests{0};
  const auto start = Clock::now();
  const auto end = start + duration;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::size_t next = t;
      while (Clock::now() < end) {
        const auto t0 = Clock::now();
        server.submit(queries.sample(next)).get();
        latencies[t].push_back(seconds_between(t0, Clock::now()) * 1e3);
        next = (next + threads) % queries.size();
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed = seconds_between(start, Clock::now());

  std::vector<double> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());
  ServePhase phase;
  phase.requests = requests.load();
  phase.qps = elapsed > 0 ? static_cast<double>(phase.requests) / elapsed : 0;
  phase.p50_ms = percentile_ms(all, 0.50);
  phase.p99_ms = percentile_ms(all, 0.99);
  return phase;
}

/// Drifted copy of `base` (alternating-sign feature shift): keeps the
/// incremental-training pass honestly mispredict-heavy.
common::Matrix drift(const common::Matrix& features, float shift) {
  common::Matrix out = features;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    auto row = out.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const float delta = (j % 2 == 0) ? shift : -shift;
      row[j] = std::clamp(row[j] + delta, 0.0f, 1.0f);
    }
  }
  return out;
}

int run(int argc, const char* const* argv) {
  common::CliParser cli(
      "Online-learning benchmark: partial_fit throughput, COW publish "
      "cost, and serving latency under continuous hot swaps.");
  cli.add_flag("duration", "1500", "milliseconds per serving phase");
  cli.add_flag("threads", "4", "closed-loop client threads");
  cli.add_flag("train-passes", "8", "partial_fit passes timed");
  cli.add_bool_flag("json-only", "skip the human-readable table");
  if (!cli.parse(argc, argv)) return 1;
  const auto duration = std::chrono::milliseconds(cli.get_int("duration"));
  const auto threads =
      static_cast<std::size_t>(std::max(1, cli.get_int("threads")));
  const auto passes =
      static_cast<std::size_t>(std::max(1, cli.get_int("train-passes")));
  const bool json_only = cli.get_bool("json-only");

  data::SyntheticConfig data_cfg;
  data_cfg.num_classes = 8;
  data_cfg.num_features = 256;
  data_cfg.latent_dim = 12;
  data_cfg.modes_per_class = 4;
  data_cfg.train_per_class = 120;
  data_cfg.test_per_class = 60;
  common::Rng rng(29);
  const data::TrainTestSplit split = data::generate_synthetic(data_cfg, rng);

  api::ModelOptions model_opts;
  model_opts.dim = 4096;
  model_opts.columns = 32;
  model_opts.epochs = 2;
  model_opts.seed = 13;
  auto model = api::make("memhd", split.train.num_features(),
                         split.train.num_classes(), model_opts);
  model->fit(split.train);

  auto store = std::make_shared<online::ModelStore>(std::move(model));
  const common::Matrix drift_train = drift(split.train.features(), 0.4f);

  // --- COW clone cost (the lazy copy each publish cycle pays once). -------
  double clone_ms = 0.0;
  {
    constexpr int kReps = 8;
    const auto pinned = store->pin();
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto copy = pinned.model->clone();
      (void)copy;
    }
    clone_ms = seconds_between(t0, Clock::now()) * 1e3 / kReps;
  }

  // --- partial_fit throughput over drifted passes. ------------------------
  double train_samples_per_sec = 0.0;
  {
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass)
      store->partial_fit(drift_train, split.train.labels());
    const double elapsed = seconds_between(t0, Clock::now());
    train_samples_per_sec =
        elapsed > 0
            ? static_cast<double>(passes * drift_train.rows()) / elapsed
            : 0.0;
  }

  // --- publish cost (state-lock insert + retention), averaged. ------------
  double publish_ms = 0.0;
  {
    constexpr int kReps = 4;
    double total = 0.0;
    for (int i = 0; i < kReps; ++i) {
      if (!store->has_pending())
        store->partial_fit(drift_train, split.train.labels());
      const auto t0 = Clock::now();
      store->publish();
      total += seconds_between(t0, Clock::now());
    }
    publish_ms = total * 1e3 / kReps;
  }
  const auto latest = store->current_version();

  // --- serving phases: version held still, then continuous swaps. ---------
  api::BatchServerOptions server_opts;
  server_opts.max_batch = 64;
  server_opts.max_delay = std::chrono::microseconds(200);
  server_opts.shards = 2;
  server_opts.shard_quantum = 16;
  api::BatchServer server(store, server_opts);

  const ServePhase no_swap =
      run_serve_phase(server, split.test, threads, duration);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread swapper([&] {
    // Flip between the root and the latest version as fast as the store
    // allows; every flip invalidates the shards' pinned contexts.
    bool tip = true;
    while (!stop.load(std::memory_order_relaxed)) {
      store->swap(tip ? 0 : latest);
      tip = !tip;
      swaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  ServePhase swap = run_serve_phase(server, split.test, threads, duration);
  stop.store(true);
  swapper.join();
  swap.swaps = swaps.load();
  server.drain();

  // --- report. ------------------------------------------------------------
  const char* path_env = std::getenv("MEMHD_BENCH_JSON");
  const std::string path =
      (path_env && *path_env) ? path_env : "BENCH_online.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"online\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n", common::active_backend().name);
  std::fprintf(f, "  \"threads\": %u,\n", common::configured_num_threads());
  std::fprintf(f, "  \"anchor_queries_per_sec\": %.1f,\n", no_swap.qps);
  std::fprintf(f, "  \"partial_fit_samples_per_sec\": %.1f,\n",
               train_samples_per_sec);
  std::fprintf(f, "  \"cow_clone_ms\": %.3f,\n", clone_ms);
  std::fprintf(f, "  \"publish_ms\": %.3f,\n", publish_ms);
  std::fprintf(f,
               "  \"no_swap\": {\n"
               "    \"queries_per_sec\": %.1f,\n"
               "    \"p50_ms\": %.3f,\n"
               "    \"p99_ms\": %.3f\n"
               "  },\n",
               no_swap.qps, no_swap.p50_ms, no_swap.p99_ms);
  std::fprintf(f,
               "  \"swap\": {\n"
               "    \"queries_per_sec\": %.1f,\n"
               "    \"p50_ms\": %.3f,\n"
               "    \"p99_ms\": %.3f,\n"
               "    \"swaps\": %llu\n"
               "  }\n",
               swap.qps, swap.p50_ms, swap.p99_ms,
               static_cast<unsigned long long>(swap.swaps));
  std::fprintf(f, "}\n");
  std::fclose(f);

  if (!json_only) {
    std::printf("online learning [%s kernel, %u thread(s)]:\n",
                common::active_backend().name,
                common::configured_num_threads());
    std::printf("  partial_fit      %12.0f samples/s\n",
                train_samples_per_sec);
    std::printf("  COW clone        %12.3f ms\n", clone_ms);
    std::printf("  publish          %12.3f ms\n", publish_ms);
    std::printf("  %-10s %10s %9s %9s %9s\n", "serving", "q/s", "p50 ms",
                "p99 ms", "swaps");
    std::printf("  %-10s %10.0f %9.3f %9.3f %9s\n", "no-swap", no_swap.qps,
                no_swap.p50_ms, no_swap.p99_ms, "-");
    std::printf("  %-10s %10.0f %9.3f %9.3f %9llu\n", "swapping", swap.qps,
                swap.p50_ms, swap.p99_ms,
                static_cast<unsigned long long>(swap.swaps));
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace memhd

int main(int argc, char** argv) { return memhd::run(argc, argv); }
