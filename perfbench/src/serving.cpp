// The two serving workloads, behind serve::Router / serve::Server over
// loopback with bench_serve's BatchServer options.
//
//   serve        fixed model; rounds of [Poisson open loop at 1,000 q/s,
//                Poisson open loop at 2,500 q/s, closed loop with 64
//                requests in flight].
//   serve-train  the same model in an online::ModelStore (Router::add_store)
//                with drifted queries, Poisson at 1,000 q/s, while one trainer
//                thread runs a fixed sequence of partial_fit + publish steps;
//                then a verification pass sends every query once more.
//
// The model and its training data are the same on every run, so set-up
// and accuracy do not move with the seed; the seed orders the queries,
// draws the arrival times and orders serve-train's training minibatches.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>
#include <unordered_map>

#include "loadgen.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/data/synthetic.hpp"
#include "src/online/model_store.hpp"
#include "src/serve/server.hpp"
#include "traced_classifier.hpp"
#include "workload.hpp"

namespace memhd::perfbench {

namespace {

constexpr const char* kModelName = "memhd";
/// Client connections; with the open loop's sender thread that makes three
/// client threads, under the host's four cores.
constexpr std::size_t kConnections = 2;
constexpr std::size_t kClosedWindow = 64;
constexpr int kSetups = 3;
/// Each phase is measured in this many windows; figures are the median
/// over windows (median_of_windows). serve interleaves its three phases
/// round by round.
constexpr int kWindows = 7;
constexpr std::size_t kPoolRows = 8192;
/// Warm-up traffic before the first measured window (not measured).
constexpr std::size_t kWarmupRequests = 500;
/// bench_online's drift: even features +0.4, odd features -0.4.
constexpr float kDrift = 0.4f;
constexpr std::size_t kTrainBatch = 64;
/// partial_fit minibatches per second of --seconds: sized so the fixed
/// training sequence lasts about as long as the serving phase it overlaps.
constexpr double kTrainStepsPerSecond = 120.0;

api::BatchServerOptions batch_server_options() {
  api::BatchServerOptions o;
  o.max_batch = 64;
  o.max_delay = std::chrono::milliseconds(1);
  o.max_pending = 256;
  o.shards = 2;
  o.shard_quantum = 16;
  return o;
}

/// bench_serve's model: MEMHD, D = 8192, C = 32, two QAT epochs.
api::ModelOptions serving_model_options() {
  api::ModelOptions o;
  o.dim = 8192;
  o.columns = 32;
  o.epochs = 2;
  o.seed = 9;
  return o;
}

struct ServingData {
  data::Dataset train;
  common::Matrix pool;             // the test split: every query row
  std::vector<data::Label> truth;  // its true labels
};

/// bench_serve's 8-class, 256-feature stand-in (fixed draw), with the test
/// split in a seeded order.
ServingData make_serving_data(std::uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 8;
  cfg.num_features = 256;
  cfg.latent_dim = 12;
  cfg.modes_per_class = 4;
  cfg.train_per_class = 120;
  cfg.test_per_class = kPoolRows / cfg.num_classes;
  common::Rng data_rng(17);
  data::TrainTestSplit split = data::generate_synthetic(cfg, data_rng);
  common::Rng order_rng(0x0DE40000ULL + seed);
  split.test.shuffle(order_rng);
  return {std::move(split.train), split.test.features(), split.test.labels()};
}

common::Matrix drift(const common::Matrix& features) {
  common::Matrix out = features;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    auto row = out.row(i);
    for (std::size_t j = 0; j < row.size(); ++j)
      row[j] = std::clamp(row[j] + (j % 2 == 0 ? kDrift : -kDrift), 0.0f,
                          1.0f);
  }
  return out;
}

/// Seed of the `index`-th open-loop schedule of a run.
std::uint64_t arrival_seed(std::uint64_t seed, std::uint64_t index) {
  return 0xA2217A1ULL * (seed + 1) + index;
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One deployed stack. Destruction drains the server (every admitted
/// request completes) and joins its threads before the router goes.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) {
      server->request_stop();
      server->join();
    }
  }

  /// The model the server scores with right now (kept alive by the
  /// returned handle when it is a store version).
  std::shared_ptr<const api::Classifier> deployed() const {
    if (store != nullptr) return store->pin().model;
    return {std::shared_ptr<const api::Classifier>{},
            router->model(kModelName)};
  }
  api::BatchServer& batch_server() const {
    return *router->server(kModelName);
  }

  std::shared_ptr<online::ModelStore> store;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::Server> server;
};

/// api::make -> fit -> save/load, then Router -> Server::start; the
/// deployed model is the api::load copy. Adds the set-up time to `setups`.
std::unique_ptr<Deployment> deploy(const data::Dataset& train,
                                   bool versioned, Tracer* tracer,
                                   FitResult& fit,
                                   std::vector<double>& setups) {
  fit = make_fit_roundtrip(train, serving_model_options(), tracer);
  const auto start = Clock::now();
  auto d = std::make_unique<Deployment>();
  {
    Scope span(tracer, "serve.start");
    std::unique_ptr<api::Classifier> model = std::move(fit.loaded);
    if (tracer != nullptr) model = wrap_traced(std::move(model), *tracer);
    d->router = std::make_unique<serve::Router>();
    if (versioned) {
      d->store = std::make_shared<online::ModelStore>(std::move(model));
      d->router->add_store(kModelName, d->store, batch_server_options());
    } else {
      d->router->add_model(kModelName, std::move(model),
                           batch_server_options());
    }
    d->server = std::make_unique<serve::Server>(*d->router);
    d->server->start();
  }
  setups.push_back(fit.seconds + s_between(start, Clock::now()));
  return d;
}

/// Deploys kSetups times (once when traced), keeping the last stack;
/// checks the api::load copy and reports the set-up figures. Returns the
/// fitted model's labels for `queries`.
std::unique_ptr<Deployment> set_up(WorkloadResult& result,
                                   const data::Dataset& train,
                                   const common::Matrix& queries,
                                   bool versioned, Tracer* tracer,
                                   std::vector<data::Label>& expected) {
  std::vector<double> setups;
  FitResult fit;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < (tracer != nullptr ? 1 : kSetups); ++i) {
    d.reset();  // tear the previous stack down first (untimed)
    d = deploy(train, versioned, tracer, fit, setups);
  }
  expected = check_load_copy(result, *fit.fitted, *d->deployed(), queries);
  FitDecomposition stages;
  if (tracer != nullptr)
    stages = decompose_fit(train, serving_model_options(), *fit.fitted, tracer);
  report_setup(result, setups, fit, tracer != nullptr ? &stages : nullptr);
  return d;
}

/// Client connections to a deployment (kConnections sockets).
struct Connections {
  explicit Connections(std::uint16_t port) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      owned.push_back(std::make_unique<ServeConnection>(port, kModelName));
      raw.push_back(owned.back().get());
    }
  }
  std::span<ServeConnection* const> span() const { return raw; }
  std::vector<std::unique_ptr<ServeConnection>> owned;
  std::vector<ServeConnection*> raw;
};

/// Counters read at a window boundary.
struct Boundary {
  serve::IngressStats ingress;
  api::BatchServerStats batches;
  static Boundary read(const Deployment& d) {
    return {d.server->stats(), d.batch_server().stats()};
  }
};

/// One measured window of a phase.
struct Window {
  std::string name;
  double offered = 0.0;  // q/s; 0 for closed loops
  PhaseRun run;
  PhaseSummary summary;
  Boundary before, after;
  std::vector<ScoreCall> calls;  // traced runs only
};

std::string format_window(const Window& w) {
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "window %-10s offered %6.0f/s  sent %6zu  ok %6llu  failed %3llu  "
      "ok/s %8.1f  p50 %7.3f  p90 %7.3f  p99 %7.3f ms (n=%zu)  "
      "gen late p99 %.3f ms",
      w.name.c_str(), w.offered, w.run.records.size(),
      static_cast<unsigned long long>(w.summary.tally.ok),
      static_cast<unsigned long long>(w.summary.tally.failed()),
      w.summary.ok_per_s, w.summary.p50_ms.value, w.summary.p90_ms.value,
      w.summary.p99_ms.value, w.summary.p99_ms.samples,
      w.summary.late_p99_ms.value);
  return line;
}

/// Runs one window between two counter reads and folds its outcomes into
/// the run's tally.
template <class RunFn>
Window run_window(const char* name, double offered, const Deployment& d,
                  Tracer* tracer, WorkloadResult& result, RunFn&& run_fn) {
  Window w;
  w.name = name;
  w.offered = offered;
  if (tracer != nullptr) tracer->take_calls();  // drop earlier traffic
  w.before = Boundary::read(d);
  w.run = run_fn();
  w.after = Boundary::read(d);
  if (tracer != nullptr) w.calls = tracer->take_calls();
  w.summary = summarize(w.run.records, w.run.start, w.run.end);
  result.tally += w.summary.tally;
  const Tally& t = w.summary.tally;
  if (t.failed() > 0)
    result.failures.push_back(
        "window " + w.name + ": " + std::to_string(t.failed()) +
        " failed requests (" + std::to_string(t.mismatch) + " wrong labels, " +
        std::to_string(t.refused) + " refused, " + std::to_string(t.errored) +
        " errored, " + std::to_string(t.lost) + " lost)");
  result.lines.push_back(format_window(w));
  return w;
}

/// The serve and api layers of a traced phase (all of its windows).
/// Every answered request is matched with the scoring call that served it:
/// the call's rows are pool rows, and the request carrying a row is the
/// one in flight when the call started (a row is never in flight twice at
/// once). Each request also gets its spans: due -> sent (loadgen.late),
/// sent -> scoring start (api.wait), the scoring call (api.score), and
/// scoring end -> response read (serve.post).
Metrics serving_layers(const std::vector<Window>& windows, Tracer& tracer,
                       std::int64_t& request_base) {
  std::vector<double> wait_ms, post_ms, late_ms;
  std::vector<ScoreCall> all_calls;
  std::size_t answered = 0;
  double wall_s = 0.0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_of;
  Boundary total{};
  const auto add = [](std::uint64_t& sum, std::uint64_t a, std::uint64_t b) {
    sum += b - a;
  };
  for (const Window& w : windows) {
    const std::vector<RequestRecord>& records = w.run.records;
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_row;
    for (std::size_t i = 0; i < records.size(); ++i)
      by_row[records[i].row].push_back(i);
    std::vector<const ScoreCall*> served_by(records.size(), nullptr);
    for (const ScoreCall& call : w.calls)
      for (const std::uint32_t row : call.rows) {
        const auto it = by_row.find(row);
        if (it == by_row.end()) continue;
        for (const std::size_t i : it->second) {
          const RequestRecord& r = records[i];
          if (r.sent <= call.start &&
              (r.outcome == Outcome::kPending || call.start <= r.done)) {
            served_by[i] = &call;
            break;
          }
        }
      }
    Clock::time_point end = w.run.start;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const RequestRecord& r = records[i];
      late_ms.push_back(ms_between(r.due, r.sent));
      if (r.outcome == Outcome::kPending) continue;
      ++answered;
      end = std::max(end, r.done);
      const std::int64_t request = request_base + static_cast<std::int64_t>(i);
      const Span root{tracer.new_id(), 0, "loadgen.request", r.due, r.done,
                      request};
      tracer.add(root);
      tracer.add({tracer.new_id(), root.id, "loadgen.late", r.due, r.sent,
                  request});
      const ScoreCall* call = served_by[i];
      if (call == nullptr) continue;
      wait_ms.push_back(ms_between(r.sent, call->start));
      post_ms.push_back(ms_between(call->end, r.done));
      tracer.add({tracer.new_id(), root.id, "api.wait", r.sent, call->start,
                  request});
      tracer.add({tracer.new_id(), root.id, "api.score", call->start,
                  call->end, request, call->count});
      tracer.add({tracer.new_id(), root.id, "serve.post", call->end, r.done,
                  request});
    }
    request_base += static_cast<std::int64_t>(records.size());
    wall_s += s_between(w.run.start, end);
    spans_of.emplace_back(w.run.start, end);
    all_calls.insert(all_calls.end(), w.calls.begin(), w.calls.end());
    const serve::IngressStats &i0 = w.before.ingress, &i1 = w.after.ingress;
    add(total.ingress.requests, i0.requests, i1.requests);
    add(total.ingress.responses, i0.responses, i1.responses);
    add(total.ingress.malformed, i0.malformed, i1.malformed);
    add(total.ingress.evicted_slow, i0.evicted_slow + i0.evicted_stalled,
        i1.evicted_slow + i1.evicted_stalled);
    const api::BatchServerStats &b0 = w.before.batches, &b1 = w.after.batches;
    add(total.batches.batches, b0.batches, b1.batches);
    add(total.batches.sharded_batches, b0.sharded_batches, b1.sharded_batches);
    add(total.batches.shard_jobs, b0.shard_jobs, b1.shard_jobs);
    add(total.batches.rejected, b0.rejected, b1.rejected);
    add(total.batches.timed_out, b0.timed_out, b1.timed_out);
    total.batches.queue_depth_peak = b1.queue_depth_peak;
  }

  Metrics out;
  add_timing(out, "serve.post_ms", post_ms);
  add_timing(out, "api.wait_ms", wait_ms);
  out.set("serve.gen_late_ms.p99", percentile(late_ms, 0.99).value, "ms",
          "n=" + std::to_string(late_ms.size()));
  out.set("trace.mapped_share",
          answered == 0 ? 0.0
                        : static_cast<double>(wait_ms.size()) /
                              static_cast<double>(answered),
          "fraction", "answered requests matched to a scoring call");
  const auto count = [&](const char* name, std::uint64_t v,
                         std::string note = {}) {
    out.set(name, static_cast<double>(v), "count", std::move(note));
  };
  count("serve.requests", total.ingress.requests);
  count("serve.responses", total.ingress.responses);
  count("serve.malformed", total.ingress.malformed);
  count("serve.evicted", total.ingress.evicted_slow);
  count("api.batches", total.batches.batches);
  count("api.sharded_batches", total.batches.sharded_batches);
  count("api.shard_jobs", total.batches.shard_jobs);
  count("api.queue_depth_peak", total.batches.queue_depth_peak,
        "high-water mark since start");
  count("api.rejected", total.batches.rejected);
  count("api.timed_out", total.batches.timed_out);

  std::vector<double> builds;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) != "api.context_build") continue;
    for (const auto& [from, to] : spans_of)
      if (s.start >= from && s.start <= to) {
        builds.push_back(ms_between(s.start, s.end));
        break;
      }
  }
  count("api.context_builds", builds.size());
  out.set("api.context_build_ms", common::mean_of(builds), "ms",
          "mean per build");
  report_scoring_layers(out, all_calls, wall_s);
  return out;
}

void append_layer_lines(WorkloadResult& result, const char* phase,
                        const Metrics& layers) {
  for (const Metric& m : layers.items()) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-10s %-32s %14.4f %-8s %s", phase,
                  m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
    result.lines.push_back(line);
  }
}

std::vector<PhaseSummary> summaries(const std::vector<Window>& windows) {
  std::vector<PhaseSummary> out;
  for (const Window& w : windows) out.push_back(w.summary);
  return out;
}

}  // namespace

WorkloadResult run_serve(const Options& options, Tracer* tracer) {
  WorkloadResult result;
  const ServingData data = make_serving_data(options.seed);
  std::vector<data::Label> expected;
  const auto d = set_up(result, data.train, data.pool, /*versioned=*/false,
                        tracer, expected);

  const RowIndex index(data.pool);
  if (tracer != nullptr) {
    result.check(index.unique(), "query rows are unique");
    tracer->set_row_index(&index);
  }
  Connections conns(d->server->port());
  // Each window starts where the previous one stopped in the query pool.
  std::size_t sent = 0;
  const auto next_pool = [&] {
    return QueryPool{&data.pool, &expected, sent % data.pool.rows()};
  };
  const auto counted = [&](PhaseRun run) {
    sent += run.records.size();
    return run;
  };
  // Every open-loop window draws its own arrival schedule from the seed.
  std::uint64_t schedules = 0;
  const auto open_loop = [&](double rate, std::size_t count) {
    return OpenLoop{rate, count, arrival_seed(options.seed, schedules++)};
  };
  run_window("warmup", 1000, *d, nullptr, result, [&] {
    return counted(run_open_loop(conns.span(), next_pool(),
                                 open_loop(1000.0, kWarmupRequests)));
  });

  // Rounds of the three phases: 50% / 25% / 25% of --seconds in total.
  const double round_s = options.seconds / kWindows;
  std::vector<Window> open_1k, open_2k5, closed;
  for (int round = 0; round < kWindows; ++round) {
    open_1k.push_back(run_window("open-1k", 1000, *d, tracer, result, [&] {
      return counted(run_open_loop(
          conns.span(), next_pool(),
          open_loop(1000.0, static_cast<std::size_t>(1000 * 0.5 * round_s))));
    }));
    open_2k5.push_back(run_window("open-2k5", 2500, *d, tracer, result, [&] {
      return counted(run_open_loop(
          conns.span(), next_pool(),
          open_loop(2500.0, static_cast<std::size_t>(2500 * 0.25 * round_s))));
    }));
    closed.push_back(run_window("closed-64", 0, *d, tracer, result, [&] {
      return counted(run_closed_loop(conns.span(), next_pool(), kClosedWindow,
                                     seconds(0.25 * round_s)));
    }));
  }
  if (tracer != nullptr) tracer->set_row_index(nullptr);

  const std::string how = "median of " + std::to_string(kWindows) + " windows";
  const PhaseSummary s1k = median_of_windows(summaries(open_1k));
  const PhaseSummary s2k5 = median_of_windows(summaries(open_2k5));
  const PhaseSummary sclosed = median_of_windows(summaries(closed));
  report_latency(result, s1k, "", how + " at 1,000 q/s");
  report_latency(result, s1k, "_1k", how);
  report_latency(result, s2k5, "_2k5", how);
  result.e2e.set("goodput_per_s", sclosed.ok_per_s, "1/s",
                 "closed loop, 64 in flight, " + how);
  result.e2e.set("max_qps", sclosed.ok_per_s, "req/s", how);
  result.e2e.set("accuracy", common::accuracy(data.truth, expected),
                 "fraction");
  report_outcomes(result);

  if (tracer != nullptr) {
    // The run's per-layer figures are the 1,000 q/s phase's, like p50_ms
    // and p90_ms; the other two phases are listed for reading.
    std::int64_t request_base = 0;
    result.layer.append(serving_layers(open_1k, *tracer, request_base));
    append_layer_lines(result, "open-2k5",
                       serving_layers(open_2k5, *tracer, request_base));
    append_layer_lines(result, "closed-64",
                       serving_layers(closed, *tracer, request_base));
    result.check(check_split_matches_inner(
                     dynamic_cast<const TracedClassifier&>(*d->deployed()),
                     data.pool) == 0,
                 "traced encode/search split matches predict_batch_into");
  }
  return result;
}

WorkloadResult run_serve_train(const Options& options, Tracer* tracer) {
  WorkloadResult result;
  const ServingData data = make_serving_data(options.seed);
  const common::Matrix queries = drift(data.pool);
  const common::Matrix train_rows = drift(data.train.features());
  std::vector<data::Label> initial;
  const auto d = set_up(result, data.train, queries, /*versioned=*/true,
                        tracer, initial);

  // The fixed training sequence: the drifted training split in a seeded
  // order, cut into minibatches that the trainer cycles through.
  std::vector<std::size_t> order(train_rows.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  common::Rng rng(0x7A1A0000ULL + options.seed);
  rng.shuffle(order);
  const auto steps = static_cast<std::size_t>(
      std::max(1.0, kTrainStepsPerSecond * options.seconds));
  std::vector<common::Matrix> batch_rows;
  std::vector<std::vector<data::Label>> batch_labels;
  for (std::size_t b = 0; b < order.size() / kTrainBatch; ++b) {
    common::Matrix rows(kTrainBatch, train_rows.cols());
    std::vector<data::Label> labels(kTrainBatch);
    for (std::size_t i = 0; i < kTrainBatch; ++i) {
      const std::size_t src = order[b * kTrainBatch + i];
      std::copy_n(train_rows.row(src).begin(), train_rows.cols(),
                  rows.row(i).begin());
      labels[i] = data.train.label(src);
    }
    batch_rows.push_back(std::move(rows));
    batch_labels.push_back(std::move(labels));
  }

  const RowIndex index(queries);
  if (tracer != nullptr) {
    result.check(index.unique(), "query rows are unique");
    tracer->set_row_index(&index);
  }
  Connections conns(d->server->port());
  run_window("warmup", 1000, *d, nullptr, result, [&] {
    return run_open_loop(
        conns.span(), QueryPool{&queries, &initial, 0},
        OpenLoop{1000.0, kWarmupRequests, arrival_seed(options.seed, 0)});
  });

  // Trainer: partial_fit + publish per minibatch, beside the 1,000 q/s
  // open loop, which runs until the sequence is done.
  struct Step {
    double publish_ms = 0.0;
    Clock::time_point published{};
    std::uint64_t serial = 0;  // traced: the published version's decorator
  };
  std::vector<Step> log;
  std::set<online::VersionId> served;
  std::uint64_t trained = 0, missed = 0;
  double train_seconds = 0.0;
  std::string trainer_error;
  std::atomic<bool> training_done{false};
  online::ModelStore& store = *d->store;
  const auto note_served = [&] {
    for (const online::VersionStats& v : store.stats())
      if (v.rows_served > 0) served.insert(v.id);
  };
  // A jthread joins on every path out of this scope, exceptions included.
  std::jthread trainer([&] {
    try {
      const auto start = Clock::now();
      for (std::size_t s = 0; s < steps; ++s) {
        Scope span(tracer, "online.train_step", kTrainBatch);
        const std::size_t b = s % batch_rows.size();
        const core::PartialFitReport report =
            store.partial_fit(batch_rows[b], batch_labels[b]);
        Step step;
        {
          Scope publish(tracer, "online.publish");
          store.publish();
          step.published = publish.close();
          step.publish_ms = ms_between(publish.start(), step.published);
        }
        trained += report.samples;
        missed += report.mispredicted;
        if (tracer != nullptr) {
          step.serial =
              dynamic_cast<const TracedClassifier&>(*store.pin().model)
                  .serial();
          note_served();
        }
        log.push_back(step);
      }
      train_seconds = s_between(start, Clock::now());
    } catch (const std::exception& e) {
      trainer_error = e.what();
    }
    training_done.store(true, std::memory_order_release);
  });
  Window phase = run_window("train-1k", 1000, *d, tracer, result, [&] {
    // Capped at three times the nominal length; the trainer normally
    // finishes near the nominal length.
    return run_open_loop(
        conns.span(), QueryPool{&queries, nullptr, 0},
        OpenLoop{1000.0, static_cast<std::size_t>(3000 * options.seconds),
                 arrival_seed(options.seed, 1), &training_done});
  });
  trainer.join();
  result.check(trainer_error.empty(), "trainer: " + trainer_error);
  result.check(log.size() == steps, "trainer finished its sequence");
  note_served();

  // Verification: every query once more, against the final version.
  const auto final_model = d->deployed();
  const std::vector<data::Label> final_labels =
      untraced(*final_model).predict_batch(queries);
  const Window verify = run_window("verify", 0, *d, nullptr, result, [&] {
    return run_closed_loop(conns.span(), QueryPool{&queries, &final_labels, 0},
                           kClosedWindow, std::chrono::seconds(60),
                           queries.rows());
  });
  result.check(verify.run.records.size() == queries.rows(),
               "verification pass sent every query");
  if (tracer != nullptr) tracer->set_row_index(nullptr);

  // Latency: the training phase cut into kWindows consecutive windows.
  std::vector<PhaseSummary> parts;
  const std::vector<RequestRecord>& records = phase.run.records;
  for (int w = 0; w < kWindows; ++w) {
    const std::size_t from = records.size() * w / kWindows;
    const std::size_t to = records.size() * (w + 1) / kWindows;
    if (to == from) continue;
    const std::span<const RequestRecord> part(records.data() + from, to - from);
    parts.push_back(summarize(part, part.front().due, part.back().due));
  }
  const double train_sps =
      train_seconds > 0 ? static_cast<double>(trained) / train_seconds : 0.0;
  const std::string how = "median of " + std::to_string(parts.size()) +
                          " windows";
  report_latency(result, median_of_windows(parts), "",
                 how + " at 1,000 q/s while training");
  report_latency(result, median_of_windows(parts), "_1k", how);
  result.e2e.set("goodput_per_s", train_sps, "1/s",
                 "partial_fit samples per second, publishes included");
  result.e2e.set("train_sps", train_sps, "samples/s",
                 std::to_string(steps) + " steps in " +
                     std::to_string(train_seconds) + " s");
  result.e2e.set("accuracy", common::accuracy(data.truth, final_labels),
                 "fraction", "final version, drifted test split");
  result.e2e.set("initial_accuracy", common::accuracy(data.truth, initial),
                 "fraction", "before training");
  report_outcomes(result);

  if (tracer != nullptr) {
    std::int64_t request_base = 0;
    Metrics& out = result.layer;
    out.append(serving_layers({phase}, *tracer, request_base));
    // publish -> first scoring call on that version.
    std::unordered_map<std::uint64_t, Clock::time_point> first_call;
    for (const ScoreCall& call : phase.calls) {
      const auto [it, inserted] = first_call.emplace(call.instance, call.start);
      if (!inserted) it->second = std::min(it->second, call.start);
    }
    std::vector<double> publish_ms, fresh_ms;
    for (const Step& s : log) {
      publish_ms.push_back(s.publish_ms);
      if (const auto it = first_call.find(s.serial); it != first_call.end())
        fresh_ms.push_back(ms_between(s.published, it->second));
    }
    add_timing(out, "core.partial_fit_ms",
               durations_ms(tracer->spans(), "core.partial_fit"));
    add_timing(out, "online.publish_ms", std::move(publish_ms));
    add_timing(out, "online.fresh_ms", std::move(fresh_ms));
    out.set("core.miss_share",
            trained == 0 ? 0.0
                         : static_cast<double>(missed) /
                               static_cast<double>(trained),
            "fraction", "mispredicted / samples");
    const auto clones = durations_ms(tracer->spans(), "online.clone");
    out.set("online.clone_ms", common::mean_of(clones), "ms",
            "mean of " + std::to_string(clones.size()));
    out.set("online.versions_served", static_cast<double>(served.size()),
            "count");
    result.check(check_split_matches_inner(
                     dynamic_cast<const TracedClassifier&>(*final_model),
                     queries) == 0,
                 "traced encode/search split matches predict_batch_into");
  }
  return result;
}

}  // namespace memhd::perfbench
