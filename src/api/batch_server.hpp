// Micro-batching serve front end (the ROADMAP serve-path item).
//
// Single-query requests arriving from many threads are collected into one
// queue; a batch is cut when either `max_batch` requests are pending or the
// oldest request has waited `max_delay`, and the whole batch runs through
// one fused Classifier::predict_batch call — the software shape of driving
// a full wordline batch through the IMC array instead of one query at a
// time. Each submit() returns a future that completes with that request's
// label.
//
// Sharding: with `shards` > 1 the server owns a set of shard worker
// threads, the software analogue of a bank of independent IMC array groups.
// A cut batch larger than `shard_quantum` rows is split row-wise into up to
// `shards` contiguous pieces; each piece is scored by its shard worker
// through Classifier::predict_batch_into with that shard's pinned
// PredictContext (reusable scoring scratch — for MEMHD a pre-repacked
// common::BatchScorer), and each row's future completes as soon as its
// piece finishes. Shard workers score inline (common::InlineParallelScope)
// so the shard set itself is the parallelism — sibling shards never contend
// for the shared thread pool. Batches at or below the quantum run exactly
// as in the unsharded server.
//
// Bit-identity contract: predict_batch is bit-identical to per-sample
// predict() for every registry model, and predict_batch_into is
// bit-identical to predict_batch row by row (both asserted by tests/api/).
// Row-wise splitting therefore cannot change any answer: the server's
// labels do not depend on how requests are grouped into batches NOR on how
// a batch is cut into shard pieces — any interleaving and any shard count
// yield the labels one direct predict_batch over the same rows would.
//
//   api::BatchServer server(*clf);
//   auto f = server.submit(features);     // from any thread
//   data::Label label = f.get();
//
// Overload safety (the serve-tier contract; src/serve/ builds on it):
//
//   * Bounded queue: with `max_pending` > 0 a submit that finds the queue
//     full is resolved per `overload` — kRejectNew returns an IMMEDIATELY
//     errored future (ServeError, ServeErrc::kQueueFull; the caller never
//     blocks), kEvictOldest admits the new request and completes the oldest
//     pending one with that same error. Either way stats().rejected counts
//     exactly the requests that were refused admission or evicted.
//   * Deadlines: submit(features, deadline) attaches an absolute budget.
//     When a batch is cut, requests whose deadline has already passed are
//     completed with ServeErrc::kDeadlineExceeded instead of being scored —
//     dead work is shed before it reaches the kernels. Expiry is checked at
//     cut time, not continuously: a request can expire no earlier than the
//     batch cut that would have scored it.
//   * Lifecycle: drain() stops admission (subsequent submit()s fail fast
//     with an errored future, ServeErrc::kStopped — they are NOT enqueued
//     into a dying server), scores everything already admitted, completes
//     every promise, and joins the worker + shard threads. The destructor
//     runs the same sequence, so no future obtained from submit() is ever
//     broken (std::future_error/broken_promise cannot happen): every future
//     resolves with a label or with a typed ServeError.
//
// Deterministic/manual mode: construct with background = false and call
// flush() — no batching worker thread, batches are cut exactly where the
// caller says (shard workers still score the pieces when sharding is on),
// which is what the unit tests drive. The batch cut itself (swapping out
// pending_ and counting the batch) happens atomically under the queue
// mutex, so concurrent flush() callers take disjoint batches — every
// request is scored exactly once no matter how many flushers race.
//
// Hot swap (pin-at-batch-cut): the server scores against an api::ModelSource
// rather than a fixed model. Exactly one ModelSource::pin() happens per cut
// batch, and the returned refcounted snapshot is held until every row of
// that batch has completed — so a concurrent publish/swap/rollback on the
// source (online::ModelStore) never tears a batch: all rows of a batch are
// scored by the same frozen version, no lock is held across scoring, and
// each shard worker rebuilds its pinned PredictContext only when the version
// it is handed differs from the one its context was built for (version ids
// are never reused, so the id alone identifies a frozen model object).
//
// Cascade-enabled models ride the same mechanism: a MEMHD PredictContext
// pins the model version's immutable search::CascadeSearcher (prescreen
// sub-plane + exact plane) instead of a plain BatchScorer, so each shard
// holds exactly one prescreen plane per pinned version and swaps it
// atomically with the context at the next batch cut — a hot swap can never
// score one shard piece against the old version's prescreen and another
// against the new one (hammer-tested in tests/search/test_cascade_model.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/api/classifier.hpp"
#include "src/api/model_source.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace memhd::api {

/// Why a submitted request was completed without a label. Carried by
/// ServeError on the future; the ingress tier maps these onto wire statuses
/// (HTTP 429 / 504 / 503, or the binary protocol's NACK codes).
enum class ServeErrc : std::uint8_t {
  kQueueFull = 1,         // bounded queue at max_pending; request refused
  kDeadlineExceeded = 2,  // deadline passed before the batch was scored
  kStopped = 3,           // server draining/destroyed; request not admitted
};

/// Human-readable name for a ServeErrc ("queue-full", ...).
const char* serve_errc_name(ServeErrc code) noexcept;

/// The typed error a rejected/expired/unadmitted request's future carries.
/// Distinguishable from model errors (which surface as whatever the model
/// threw) via code().
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(ServeErrc code);
  ServeErrc code() const noexcept { return code_; }

 private:
  ServeErrc code_;
};

/// What submit() does when the pending queue is at max_pending.
enum class OverloadPolicy : std::uint8_t {
  /// Refuse the new request (immediately errored future). Favors requests
  /// already waiting — the default, and what maps onto HTTP 429.
  kRejectNew,
  /// Admit the new request and evict the oldest pending one (its future
  /// errors with kQueueFull). Favors fresh requests when old ones are
  /// likely past their useful latency anyway.
  kEvictOldest,
};

struct BatchServerOptions {
  /// Cut a batch as soon as this many requests are pending.
  std::size_t max_batch = 64;
  /// ... or when the oldest pending request has waited this long.
  std::chrono::microseconds max_delay{200};
  /// Spawn the background batching thread. false = manual mode: nothing
  /// runs until flush().
  bool background = true;
  /// Server-owned shard workers a cut batch is split across (>= 1). 1 =
  /// the single fused call of the unsharded server.
  std::size_t shards = 1;
  /// Minimum rows per shard piece: a batch of n rows is split into
  /// min(shards, ceil(n / shard_quantum)) pieces, and batches of at most
  /// shard_quantum rows are never split (must be >= 1).
  std::size_t shard_quantum = 32;
  /// Admission bound on the pending queue. 0 = unbounded (the pre-overload
  /// legacy behavior); > 0 bounds queueing delay: a submit that finds
  /// max_pending requests already waiting is resolved per `overload`.
  std::size_t max_pending = 0;
  /// Reject policy applied when the queue is full (see OverloadPolicy).
  OverloadPolicy overload = OverloadPolicy::kRejectNew;
};

struct BatchServerStats {
  std::uint64_t requests = 0;         // submits admitted into the queue
  std::uint64_t batches = 0;          // batch cuts (fused or sharded)
  std::uint64_t largest_batch = 0;    // max rows in one cut batch
  std::uint64_t sharded_batches = 0;  // batches split across shard workers
  std::uint64_t shard_jobs = 0;       // shard pieces dispatched
  std::uint64_t rejected = 0;         // queue-full refusals + evictions
  std::uint64_t timed_out = 0;        // requests shed at cut past deadline
  std::uint64_t queue_depth_peak = 0; // high-water mark of pending()
};

class BatchServer {
 public:
  using Clock = std::chrono::steady_clock;
  /// "No deadline" sentinel for submit().
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// The classifier must be fitted and must outlive the server. Inference
  /// is const and the server serializes its own batches, so one model may
  /// sit behind several servers. (Wraps the model in a FixedModelSource:
  /// pin() always resolves to it as version 0.)
  explicit BatchServer(const Classifier& model,
                       const BatchServerOptions& options = {});
  /// Versioned form: scores against whatever `source` resolves to at each
  /// batch cut (see the pin-at-batch-cut contract above). The source must
  /// be non-null and is shared with the caller — publishes/swaps on it are
  /// picked up by the next cut without any server-side coordination.
  explicit BatchServer(std::shared_ptr<const ModelSource> source,
                       const BatchServerOptions& options = {});
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues one query (copied; length must equal model.num_features(),
  /// else std::invalid_argument — a caller bug, unlike overload, which is
  /// reported on the future). Thread-safe. The returned future completes
  /// with the label, or with a ServeError when the request was refused
  /// (queue full), shed (deadline), or submitted after drain()/destruction
  /// began. `deadline` is the absolute steady-clock point after which the
  /// request is not worth scoring.
  std::future<data::Label> submit(std::span<const float> features,
                                  Clock::time_point deadline = kNoDeadline)
      MEMHD_EXCLUDES(mutex_);

  /// Synchronously runs one batch over everything pending right now
  /// (possibly a partial batch) and returns its size; the batch is split
  /// across the shard workers when large enough. The deterministic path for
  /// tests and for draining in manual mode. Concurrent flush() callers are
  /// safe: the cut is atomic, so they take disjoint batches.
  std::size_t flush() MEMHD_EXCLUDES(mutex_, dispatch_mutex_);

  /// Graceful shutdown: atomically stops admission (every later submit()
  /// fails fast with ServeErrc::kStopped), joins the background worker,
  /// scores everything already admitted, completes every outstanding
  /// promise, and joins the shard workers. Returns once all of that is
  /// done. Idempotent and safe to call from any thread; the destructor
  /// calls it. After drain() the server only answers pending()/stats().
  void drain() MEMHD_EXCLUDES(drain_mutex_, mutex_, dispatch_mutex_);

  std::size_t pending() const MEMHD_EXCLUDES(mutex_);
  BatchServerStats stats() const MEMHD_EXCLUDES(mutex_);

  /// Version id the NEXT batch cut would score against (resolved from the
  /// source right now; a concurrent swap can change it immediately after).
  /// Always 0 for a fixed-model server.
  std::uint64_t active_version() const;

 private:
  struct Request {
    std::vector<float> features;
    std::promise<data::Label> promise;
    Clock::time_point arrival{};
    Clock::time_point deadline = kNoDeadline;
  };

  /// One server-owned scoring worker. Pieces are handed to a specific
  /// shard (piece i -> shard i) so each worker's PredictContext is only
  /// ever touched by its own thread.
  struct Shard {
    std::thread thread;
    common::Mutex mutex;
    common::CondVar cv;
    /// Assigned rows; nullptr when idle.
    Request* piece MEMHD_GUARDED_BY(mutex) = nullptr;
    std::size_t count MEMHD_GUARDED_BY(mutex) = 0;
    bool stop MEMHD_GUARDED_BY(mutex) = false;
    /// Model + version the current piece must be scored with (set by the
    /// dispatcher with the piece; the dispatcher's pin keeps *model alive
    /// until the completion wait returns).
    const Classifier* model MEMHD_GUARDED_BY(mutex) = nullptr;
    std::uint64_t version MEMHD_GUARDED_BY(mutex) = 0;
    /// Worker-private scoring scratch, rebuilt only when `version` differs
    /// from the version it was built for (steady serving on one version
    /// pays the repack once; a swap pays it once per shard). Deliberately
    /// NOT guarded: thread-confined to the shard thread, which touches it
    /// only between the handoff points above (both under `mutex`).
    std::unique_ptr<Classifier::PredictContext> context;
    std::uint64_t context_version = kNoContextVersion;
  };
  static constexpr std::uint64_t kNoContextVersion = ~std::uint64_t{0};

  void worker_loop() MEMHD_EXCLUDES(mutex_, dispatch_mutex_);
  void shard_loop(Shard& shard) MEMHD_EXCLUDES(shard.mutex);
  /// Signals every shard worker to stop, joins them, and clears the set
  /// (destructor teardown; also the constructor's unwind path when a later
  /// thread spawn fails with shard threads already running).
  void stop_shards() MEMHD_EXCLUDES(dispatch_mutex_);
  /// The serialized batch cut: swaps out pending_ and counts the batch in
  /// stats_. Requires mutex_ held — this is the one place a batch boundary
  /// is decided, so racing flushers/worker cuts take disjoint batches.
  std::vector<Request> cut_batch_locked() MEMHD_REQUIRES(mutex_);
  /// Sheds expired requests, then completes the rest, splitting across the
  /// shard set when the live count exceeds the shard quantum.
  void run_batch(std::vector<Request> batch)
      MEMHD_EXCLUDES(mutex_, dispatch_mutex_);
  /// The sharded arm of run_batch: takes the dispatch lock, splits `batch`
  /// across the shard workers, and waits for completion. Returns false —
  /// without dispatching anything — when teardown already cleared the shard
  /// set or the batch only merits one piece; the caller then scores inline.
  bool run_sharded(std::vector<Request>& batch, const PinnedModel& pinned)
      MEMHD_EXCLUDES(dispatch_mutex_, mutex_);
  /// Scores `count` requests through one predict_batch_into call on
  /// `model` and completes their promises (exceptions complete every
  /// promise too).
  void run_rows(Request* requests, std::size_t count, const Classifier& model,
                Classifier::PredictContext* context) const;

  std::shared_ptr<const ModelSource> source_;
  std::size_t num_features_ = 0;  // cached; a source never changes schema
  BatchServerOptions options_;

  // Lock order (see src/common/README.md): drain_mutex_ -> dispatch_mutex_
  // -> mutex_ -> Shard::mutex. Declared as ACQUIRED_BEFORE edges so the
  // analysis rejects a future inversion.
  mutable common::Mutex mutex_;
  common::CondVar cv_;
  std::vector<Request> pending_ MEMHD_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point oldest_arrival_
      MEMHD_GUARDED_BY(mutex_){};
  bool stop_ MEMHD_GUARDED_BY(mutex_) = false;
  BatchServerStats stats_ MEMHD_GUARDED_BY(mutex_);
  std::thread worker_;

  /// Serializes drain() callers (including the destructor) so only one
  /// joins the worker and tears down the shard set.
  common::Mutex drain_mutex_ MEMHD_ACQUIRED_BEFORE(mutex_);

  /// Serializes sharded dispatch (concurrent flush() callers take turns at
  /// the shard set instead of interleaving pieces on one worker).
  common::Mutex dispatch_mutex_ MEMHD_ACQUIRED_BEFORE(mutex_);
  std::vector<std::unique_ptr<Shard>> shards_
      MEMHD_GUARDED_BY(dispatch_mutex_);
};

}  // namespace memhd::api
