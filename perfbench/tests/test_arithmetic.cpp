// Tests of the benchmark's own arithmetic: percentile selection, due-time
// latency under a stalled sender, and failure counting. The load generator
// runs against an in-process fake connection, so no server is involved.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>

#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace memhd::perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  // Reverse so selection cannot rely on sorted input.
  std::reverse(v.begin(), v.end());
  return v;
}

TEST(Percentile, NearestRankWithSampleCount) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);  // ten samples lie above it
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(percentile(one_to(1000), 0.50).value, 500.0);
  EXPECT_EQ(percentile(one_to(100), 0.99).value, 99.0);
  EXPECT_EQ(percentile(one_to(101), 0.99).value, 100.0);  // rank ceil(99.99)
  EXPECT_EQ(percentile(one_to(1), 0.99).value, 1.0);
  EXPECT_EQ(percentile(one_to(1), 0.50).samples, 1u);
  EXPECT_EQ(percentile({}, 0.99).samples, 0u);
}

TEST(Percentile, FailuresAreInfiniteLatency) {
  std::vector<double> v = one_to(995);
  v.insert(v.end(), 5, kInf);  // 0.5% failed: p99 is still a real sample
  EXPECT_EQ(percentile(v, 0.99).value, 990.0);
  v.insert(v.end(), 10, kInf);  // 1.5% failed: p99 is a failure
  EXPECT_TRUE(std::isinf(percentile(v, 0.99).value));
  EXPECT_EQ(percentile(v, 0.99).samples, 1010u);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Classify, EveryStatus) {
  using serve::Status;
  EXPECT_EQ(classify({Status::kOk, 3}, 3), Outcome::kOk);
  EXPECT_EQ(classify({Status::kOk, 3}, 4), Outcome::kMismatch);
  EXPECT_EQ(classify({Status::kOk, 3}, -1), Outcome::kOk);
  EXPECT_EQ(classify({Status::kQueueFull, 0}, 0), Outcome::kRefused);
  EXPECT_EQ(classify({Status::kShuttingDown, 0}, 0), Outcome::kRefused);
  EXPECT_EQ(classify({Status::kDeadlineExceeded, 0}, 0), Outcome::kErrored);
  EXPECT_EQ(classify({Status::kInternalError, 0}, 0), Outcome::kErrored);
}

TEST(Summarize, EachFailureKindCountsAndIsInfinite) {
  const auto t0 = Clock::now();
  std::vector<RequestRecord> records(5);
  const Outcome outcomes[] = {Outcome::kOk, Outcome::kRefused,
                              Outcome::kErrored, Outcome::kMismatch,
                              Outcome::kPending};
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].due = records[i].sent = t0;
    records[i].done = t0 + std::chrono::milliseconds(2);
    records[i].outcome = outcomes[i];
  }
  const PhaseSummary s = summarize(records, t0, t0 + std::chrono::seconds(1));
  EXPECT_EQ(s.tally.attempted, 5u);
  EXPECT_EQ(s.tally.ok, 1u);
  EXPECT_EQ(s.tally.refused, 1u);
  EXPECT_EQ(s.tally.errored, 1u);
  EXPECT_EQ(s.tally.mismatch, 1u);
  EXPECT_EQ(s.tally.lost, 1u);  // never answered
  EXPECT_EQ(s.tally.failed(), 4u);
  EXPECT_DOUBLE_EQ(s.tally.failed_share(), 0.8);
  // One finite sample (2 ms) and four infinite ones.
  EXPECT_TRUE(std::isinf(s.p50_ms.value));
  EXPECT_EQ(s.p50_ms.samples, 5u);
  EXPECT_DOUBLE_EQ(s.ok_per_s, 1.0);
}

/// In-process stand-in for ServeConnection: answers each frame right away
/// with label = features[0], optionally scripted per send index.
class FakeConnection {
 public:
  struct Script {
    std::function<void(std::size_t)> before_send;  // e.g. stall the sender
    std::function<serve::Response(std::size_t, data::Label)> answer;
    std::size_t die_after = SIZE_MAX;  // sends answered before the link dies
  };
  explicit FakeConnection(Script script) : script_(std::move(script)) {}

  void send(std::span<const float> features) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      index = sends_++;
    }
    if (script_.before_send) script_.before_send(index);
    const auto label = static_cast<data::Label>(features[0]);
    std::lock_guard<std::mutex> lock(mutex_);
    if (index >= script_.die_after) {
      aborted_ = true;
      cv_.notify_all();
      return;
    }
    answers_.push_back(script_.answer ? script_.answer(index, label)
                                      : serve::Response{serve::Status::kOk,
                                                        label});
    cv_.notify_all();
  }
  bool receive(serve::Response& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !answers_.empty() || aborted_; });
    if (answers_.empty()) return false;
    out = answers_.front();
    answers_.pop_front();
    return true;
  }
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  Script script_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<serve::Response> answers_;
  std::size_t sends_ = 0;
  bool aborted_ = false;
};

/// Pool row r carries label r % 7 in feature 0.
struct Pool {
  explicit Pool(std::size_t rows) : rows(rows, 4), labels(rows) {
    for (std::size_t r = 0; r < rows; ++r) {
      labels[r] = static_cast<data::Label>(r % 7);
      this->rows(r, 0) = labels[r];
    }
  }
  QueryPool query() const { return {&rows, &labels, 0}; }
  common::Matrix rows;
  std::vector<data::Label> labels;
};

TEST(OpenLoop, StalledSenderShowsAsDueTimeLatency) {
  const Pool pool(256);
  constexpr std::size_t kStallAt = 20;
  constexpr auto kStall = std::chrono::milliseconds(60);
  FakeConnection conn({.before_send = [&](std::size_t i) {
    if (i == kStallAt) std::this_thread::sleep_for(kStall);
  }});
  FakeConnection* conns[] = {&conn};
  const PhaseRun run = run_open_loop<FakeConnection>(
      conns, pool.query(), OpenLoop{1000.0, 200, /*seed=*/7});
  ASSERT_EQ(run.records.size(), 200u);
  // Request kStallAt+1 fell due while the sender was stalled and could only
  // be sent when the stall ended; its latency says so.
  const RequestRecord& stalled = run.records[kStallAt];
  const RequestRecord& late = run.records[kStallAt + 1];
  const double owed = 60.0 - ms_between(stalled.sent, late.due);
  ASSERT_GT(owed, 30.0);  // the seeded schedule puts it early in the stall
  EXPECT_EQ(late.outcome, Outcome::kOk);
  EXPECT_GE(ms_between(late.due, late.done), owed);
  EXPECT_GE(ms_between(late.due, late.sent), owed);
  // Timed from its send instead, the same request would look instant.
  EXPECT_LT(ms_between(late.sent, late.done), 10.0);
  // Requests due after the sender caught up are unaffected.
  const RequestRecord& after = run.records[150];
  EXPECT_LT(ms_between(after.due, after.done), 10.0);

  const PhaseSummary s = summarize(run.records, run.start, run.end);
  EXPECT_EQ(s.tally.ok, 200u);
  EXPECT_EQ(s.tally.failed(), 0u);
  // About 60 requests fell due during the stall: p99 and the generator's
  // own lateness both show it.
  EXPECT_GE(s.p99_ms.value, 30.0);
  EXPECT_GE(s.late_p99_ms.value, 30.0);
  EXPECT_LT(s.p50_ms.value, 10.0);
}

TEST(OpenLoop, RefusedErroredMismatchedAndLostAllFail) {
  const Pool pool(64);
  FakeConnection conn({.answer = [](std::size_t i, data::Label label) {
                         switch (i) {
                           case 3: return serve::Response{
                               serve::Status::kQueueFull, 0};
                           case 4: return serve::Response{
                               serve::Status::kInternalError, 0};
                           case 5: return serve::Response{
                               serve::Status::kOk,
                               static_cast<data::Label>(label + 1)};
                           default: return serve::Response{
                               serve::Status::kOk, label};
                         }
                       },
                       .die_after = 40});
  FakeConnection* conns[] = {&conn};
  const PhaseRun run = run_open_loop<FakeConnection>(
      conns, pool.query(), OpenLoop{2000.0, 50},
      std::chrono::milliseconds(200));
  const PhaseSummary s = summarize(run.records, run.start, run.end);
  EXPECT_EQ(s.tally.attempted, 50u);
  EXPECT_EQ(s.tally.refused, 1u);
  EXPECT_EQ(s.tally.errored, 1u);
  EXPECT_EQ(s.tally.mismatch, 1u);
  EXPECT_EQ(s.tally.lost, 10u);  // sends 40..49 never got an answer
  EXPECT_EQ(s.tally.ok, 37u);
  EXPECT_EQ(s.tally.failed(), 13u);
  // 13 of 50 failed: both percentiles above the 74th rank are infinite.
  EXPECT_TRUE(std::isinf(s.p99_ms.value));
  EXPECT_FALSE(std::isinf(s.p50_ms.value));
  EXPECT_EQ(s.p99_ms.samples, 50u);
}

TEST(ClosedLoop, KeepsTheWindowAndChecksLabels) {
  const Pool pool(64);
  FakeConnection a({}), b({});
  FakeConnection* conns[] = {&a, &b};
  const PhaseRun run = run_closed_loop<FakeConnection>(
      conns, pool.query(), 8, std::chrono::seconds(5), /*max_requests=*/100);
  const PhaseSummary s = summarize(run.records, run.start, run.end);
  EXPECT_EQ(s.tally.attempted, 100u);
  EXPECT_EQ(s.tally.ok, 100u);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const auto t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<Span> spans = {
      {1, 0, "parent", at(0), at(10)},
      {2, 1, "child", at(1), at(4)},
      {3, 1, "child", at(3), at(6)},    // overlaps the first child
      {4, 1, "child", at(9), at(12)},   // runs past the parent's end
  };
  const auto times = self_times(spans);
  EXPECT_NEAR(times.at("parent").total_ms, 10.0, 1e-9);
  EXPECT_NEAR(times.at("parent").self_ms, 10.0 - 5.0 - 1.0, 1e-9);
  EXPECT_EQ(times.at("child").count, 3u);
}

}  // namespace
}  // namespace memhd::perfbench
