// Open-loop load benchmark for the TCP ingress tier (src/serve/).
//
// Drives the real socket path end to end: binary frames into serve::Server,
// admission through the Router into a bounded per-model BatchServer, scored
// on shard workers, responses pumped back in order. Three phases against a
// measured capacity:
//
//   1. capacity — closed-loop saturation (pipelined clients) gives the
//      sustainable throughput of this machine,
//   2. open-loop at 0.5x / 1x / 2x capacity — paced senders that do NOT
//      wait for responses, the regime where an unbounded queue would melt.
//
// Reported per phase: achieved q/s, p50/p99 latency over scored (kOk)
// responses, and the reject rate. The acceptance property is visible at 2x:
// the bounded queue (max_pending) keeps p99 flat and sheds the excess as
// immediate kQueueFull NACKs — reject_rate > 0, p99 bounded.
//
// Writes BENCH_serve.json (MEMHD_BENCH_JSON overrides the path), gated by
// tools/check_bench_regression.py against bench/baselines/BENCH_serve.json;
// --json-only skips the human-readable table.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/registry.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/common/cli.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"

namespace memhd {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kModelName = "memhd";
constexpr std::size_t kMaxPending = 256;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct PhaseResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other = 0;  // anything that is neither kOk nor kQueueFull
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double reject_rate() const {
    const std::uint64_t total = ok + rejected + other;
    return total == 0 ? 0.0 : static_cast<double>(rejected) / total;
  }
};

double percentile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

/// One benchmark connection: a paced sender and a matching receiver.
/// Responses come back in send order (the protocol guarantees it), so a
/// timestamp FIFO is all the bookkeeping latency needs.
class LoadConnection {
 public:
  LoadConnection(std::uint16_t port, const data::Dataset& queries)
      : client_("127.0.0.1", port), queries_(queries) {}

  /// Closed loop: keep `window` requests in flight for `duration`.
  void run_closed_loop(std::chrono::milliseconds duration,
                       std::size_t window) {
    const auto end = Clock::now() + duration;
    std::size_t next = 0, in_flight = 0;
    serve::Response response;
    while (Clock::now() < end) {
      while (in_flight < window) {
        client_.send(kModelName, queries_.sample(next));
        next = (next + 1) % queries_.size();
        ++in_flight;
      }
      if (!client_.receive(response)) return;
      --in_flight;
      if (response.status == serve::Status::kOk) ++result_.ok;
    }
    while (in_flight > 0 && client_.receive(response)) {
      --in_flight;
      if (response.status == serve::Status::kOk) ++result_.ok;
    }
  }

  /// Open loop: send at `rate` q/s for `duration` without waiting for
  /// responses; a reader thread tallies them as they arrive.
  void run_open_loop(double rate, std::chrono::milliseconds duration) {
    std::mutex mutex;
    std::deque<Clock::time_point> sent_at;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sender_done{false};

    std::thread receiver([&] {
      serve::Response response;
      std::uint64_t received = 0;
      for (;;) {
        if (sender_done.load(std::memory_order_acquire) &&
            received >= sent.load(std::memory_order_acquire))
          break;
        if (!client_.receive(response)) break;
        Clock::time_point t0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          t0 = sent_at.front();
          sent_at.pop_front();
        }
        ++received;
        const double ms = seconds_between(t0, Clock::now()) * 1e3;
        switch (response.status) {
          case serve::Status::kOk:
            ++result_.ok;
            ok_latency_ms_.push_back(ms);
            break;
          case serve::Status::kQueueFull:
            ++result_.rejected;
            break;
          default:
            ++result_.other;
            break;
        }
      }
    });

    // Paced sender: every tick, emit however many requests the elapsed
    // time owes at `rate` (sub-tick pacing via the fractional carry).
    const auto start = Clock::now();
    const auto end = start + duration;
    auto last = start;
    double owed = 0.0;
    std::size_t next = 0;
    while (Clock::now() < end) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const auto now = Clock::now();
      owed += rate * seconds_between(last, now);
      last = now;
      for (; owed >= 1.0; owed -= 1.0) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          sent_at.push_back(Clock::now());
        }
        client_.send(kModelName, queries_.sample(next));
        next = (next + 1) % queries_.size();
        sent.fetch_add(1, std::memory_order_release);
      }
    }
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    result_.offered_qps = rate;
  }

  const PhaseResult& result() const { return result_; }
  std::vector<double>& ok_latency_ms() { return ok_latency_ms_; }

 private:
  serve::Client client_;
  const data::Dataset& queries_;
  PhaseResult result_;
  std::vector<double> ok_latency_ms_;
};

PhaseResult run_phase(std::uint16_t port, const data::Dataset& queries,
                      std::size_t connections, double offered_qps,
                      std::chrono::milliseconds duration) {
  std::vector<std::unique_ptr<LoadConnection>> conns;
  for (std::size_t i = 0; i < connections; ++i)
    conns.push_back(std::make_unique<LoadConnection>(port, queries));

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  const double per_connection =
      offered_qps / static_cast<double>(connections);
  for (auto& conn : conns)
    threads.emplace_back(
        [&conn, per_connection, duration] {
          conn->run_open_loop(per_connection, duration);
        });
  for (auto& thread : threads) thread.join();
  const double elapsed = seconds_between(start, Clock::now());

  PhaseResult total;
  total.offered_qps = offered_qps;
  std::vector<double> latencies;
  for (auto& conn : conns) {
    total.ok += conn->result().ok;
    total.rejected += conn->result().rejected;
    total.other += conn->result().other;
    latencies.insert(latencies.end(), conn->ok_latency_ms().begin(),
                     conn->ok_latency_ms().end());
  }
  total.achieved_qps =
      elapsed > 0 ? static_cast<double>(total.ok) / elapsed : 0.0;
  std::sort(latencies.begin(), latencies.end());
  total.p50_ms = percentile_ms(latencies, 0.50);
  total.p99_ms = percentile_ms(latencies, 0.99);
  return total;
}

double measure_capacity(std::uint16_t port, const data::Dataset& queries,
                        std::size_t connections,
                        std::chrono::milliseconds duration) {
  std::vector<std::unique_ptr<LoadConnection>> conns;
  for (std::size_t i = 0; i < connections; ++i)
    conns.push_back(std::make_unique<LoadConnection>(port, queries));
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& conn : conns)
    threads.emplace_back(
        [&conn, duration] { conn->run_closed_loop(duration, /*window=*/64); });
  for (auto& thread : threads) thread.join();
  const double elapsed = seconds_between(start, Clock::now());
  std::uint64_t ok = 0;
  for (auto& conn : conns) ok += conn->result().ok;
  return elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
}

void write_json(const std::string& path, double capacity_qps,
                const PhaseResult results[3]) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  static const char* kSections[3] = {"load_0.5x", "load_1x", "load_2x"};
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n", common::active_backend().name);
  std::fprintf(f, "  \"threads\": %u,\n", common::configured_num_threads());
  std::fprintf(f, "  \"max_pending\": %zu,\n", kMaxPending);
  std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  for (int i = 0; i < 3; ++i) {
    const PhaseResult& r = results[i];
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"offered_qps\": %.1f,\n"
                 "    \"achieved_qps\": %.1f,\n"
                 "    \"ok\": %llu,\n"
                 "    \"rejected\": %llu,\n"
                 "    \"reject_rate\": %.4f,\n"
                 "    \"p50_ms\": %.3f,\n"
                 "    \"p99_ms\": %.3f\n"
                 "  }%s\n",
                 kSections[i], r.offered_qps, r.achieved_qps,
                 static_cast<unsigned long long>(r.ok),
                 static_cast<unsigned long long>(r.rejected),
                 r.reject_rate(), r.p50_ms, r.p99_ms, i < 2 ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int run(int argc, const char* const* argv) {
  common::CliParser cli(
      "Open-loop load benchmark for the serve:: TCP ingress tier.");
  cli.add_flag("duration", "2000", "milliseconds per load phase");
  cli.add_flag("connections", "4", "concurrent client connections");
  cli.add_bool_flag("json-only", "skip the human-readable table");
  if (!cli.parse(argc, argv)) return 1;
  const auto duration = std::chrono::milliseconds(cli.get_int("duration"));
  const auto connections =
      static_cast<std::size_t>(std::max(1, cli.get_int("connections")));
  const bool json_only = cli.get_bool("json-only");

  // Small multi-modal task; queries come from the held-out test split.
  // Sized so scoring capacity sits well below what the single-threaded
  // event loop can parse and NACK: the 2x phase then measures the bounded
  // queue (the property under test), not ingress parse throughput.
  data::SyntheticConfig data_cfg;
  data_cfg.num_classes = 8;
  data_cfg.num_features = 256;
  data_cfg.latent_dim = 12;
  data_cfg.modes_per_class = 4;
  data_cfg.train_per_class = 120;
  data_cfg.test_per_class = 60;
  common::Rng rng(17);
  const data::TrainTestSplit split = data::generate_synthetic(data_cfg, rng);

  api::ModelOptions model_opts;
  model_opts.dim = 8192;
  model_opts.columns = 32;
  model_opts.epochs = 2;
  model_opts.seed = 9;
  auto model = api::make(kModelName, split.train.num_features(),
                         split.train.num_classes(), model_opts);
  model->fit(split.train);

  api::BatchServerOptions server_opts;
  server_opts.max_batch = 64;
  server_opts.max_delay = std::chrono::milliseconds(1);
  server_opts.max_pending = kMaxPending;
  server_opts.shards = 2;
  server_opts.shard_quantum = 16;

  serve::Router router;
  router.add_model(kModelName, std::move(model), server_opts);
  serve::Server server(router);
  server.start();

  if (!json_only)
    std::printf("measuring capacity (closed loop, %zu connections)...\n",
                connections);
  const double capacity = measure_capacity(
      server.port(), split.test, connections,
      std::chrono::milliseconds(std::max<int>(500, cli.get_int("duration"))));

  static const double kMultipliers[3] = {0.5, 1.0, 2.0};
  static const char* kLabels[3] = {"0.5x", "  1x", "  2x"};
  PhaseResult results[3];
  for (int i = 0; i < 3; ++i) {
    if (!json_only)
      std::printf("open loop at %s capacity (%.0f q/s)...\n", kLabels[i],
                  capacity * kMultipliers[i]);
    results[i] = run_phase(server.port(), split.test, connections,
                           capacity * kMultipliers[i], duration);
  }

  server.request_stop();
  server.join();

  const char* path_env = std::getenv("MEMHD_BENCH_JSON");
  const std::string path =
      (path_env && *path_env) ? path_env : "BENCH_serve.json";
  write_json(path, capacity, results);

  if (!json_only) {
    std::printf(
        "\nserve ingress [%s kernel, %u thread(s)], capacity %.0f q/s, "
        "max_pending %zu:\n",
        common::active_backend().name, common::configured_num_threads(),
        capacity, kMaxPending);
    std::printf("  %-6s %12s %12s %9s %9s %10s\n", "load", "offered q/s",
                "achieved q/s", "p50 ms", "p99 ms", "reject");
    for (int i = 0; i < 3; ++i) {
      const PhaseResult& r = results[i];
      std::printf("  %-6s %12.0f %12.0f %9.2f %9.2f %9.2f%%\n", kLabels[i],
                  r.offered_qps, r.achieved_qps, r.p50_ms, r.p99_ms,
                  100.0 * r.reject_rate());
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace memhd

int main(int argc, char** argv) { return memhd::run(argc, argv); }
