// Load generation over pipelined connections: a fixed-rate open loop and a
// fixed-window closed loop.
//
// Both generators are templates over the connection type so the tests can
// drive them through an in-process fake; the benchmark uses ServeConnection
// (one serve::Client socket). A connection offers
//
//   void send(std::span<const float> features);   // may throw
//   bool receive(serve::Response& out);            // false = connection gone
//   void abort();                                  // unblocks a receive()
//
// and answers in send order, as the binary protocol guarantees.
//
// Open loop (independent users): requests arrive as a Poisson process at
// the given mean rate (exponential gaps between due times, from a seeded
// generator, so a seed fixes the schedule). A fixed-period schedule would
// lock into one phase against the server's own 1 ms batch window and event
// loop tick and make a whole run read fast or slow. Request k goes out on
// connection k % C from one sender thread, whether or not earlier requests
// were answered; one receiver thread per connection reads the answers. A
// sender that falls behind sends the overdue requests at once and the
// lateness shows in RequestRecord::sent - due. Closed loop
// (callers that wait): each connection keeps its share of `window`
// requests in flight and sends the next one as each answer arrives.
//
// Neither generator can hang a run: once the schedule is over, connections
// still waiting after a grace period are aborted and their unanswered
// requests stay kPending, which summarize() counts as lost.
#pragma once

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"
#include "src/serve/client.hpp"
#include "stats.hpp"

namespace memhd::perfbench {

/// The rows a phase sends: request k carries row (offset + k) mod rows.
struct QueryPool {
  const common::Matrix* rows = nullptr;
  /// The label the deployed model gives each row; null skips the check.
  const std::vector<data::Label>* expected = nullptr;
  std::size_t offset = 0;

  std::uint32_t row_of(std::size_t k) const {
    return static_cast<std::uint32_t>((offset + k) % rows->rows());
  }
  int expected_of(std::uint32_t row) const {
    return expected == nullptr ? -1 : (*expected)[row];
  }
};

/// One loopback connection to serve::Server speaking the binary protocol.
class ServeConnection {
 public:
  ServeConnection(std::uint16_t port, std::string model)
      : client_("127.0.0.1", port), model_(std::move(model)) {}
  void send(std::span<const float> features) { client_.send(model_, features); }
  bool receive(serve::Response& out) { return client_.receive(out); }
  void abort() { ::shutdown(client_.fd(), SHUT_RDWR); }

 private:
  serve::Client client_;
  std::string model_;
};

/// Records of one phase plus the measurement window they were taken over.
struct PhaseRun {
  std::vector<RequestRecord> records;
  Clock::time_point start{};
  Clock::time_point end{};  // open loop: last due time; closed: the deadline
};

namespace detail {

/// Waits until `done` reaches `threads` or `deadline` passes; on timeout
/// aborts every connection so blocked receivers return.
template <class Conn>
void await_or_abort(std::span<Conn* const> conns,
                    const std::atomic<std::size_t>& done, std::size_t threads,
                    Clock::time_point deadline) {
  while (done.load(std::memory_order_acquire) < threads &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (done.load(std::memory_order_acquire) < threads)
    for (Conn* conn : conns) conn->abort();
}

}  // namespace detail

/// One open-loop phase's schedule.
struct OpenLoop {
  double rate = 1000.0;   // mean requests per second
  std::size_t count = 0;  // requests scheduled
  std::uint64_t seed = 1;  // fixes the arrival times
  /// Optional: scheduling stops early once this reads true.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs `load` with the sender on the calling thread and one receiver
/// thread per connection.
template <class Conn>
PhaseRun run_open_loop(std::span<Conn* const> conns, const QueryPool& pool,
                       const OpenLoop& load,
                       std::chrono::milliseconds grace =
                           std::chrono::milliseconds(10000)) {
  const std::size_t num_conns = conns.size();
  const std::size_t count = load.count;
  PhaseRun run;
  run.records.resize(count);
  // Number of requests scheduled so far; kDone marks the schedule closed.
  constexpr std::uint64_t kDone = std::uint64_t{1} << 63;
  std::atomic<std::uint64_t> scheduled{0};
  std::atomic<std::size_t> receivers_done{0};

  std::vector<std::thread> receivers;
  receivers.reserve(num_conns);
  for (std::size_t c = 0; c < num_conns; ++c) {
    receivers.emplace_back([&, c] {
      serve::Response response;
      for (std::size_t k = c;; k += num_conns) {
        std::uint64_t s = scheduled.load(std::memory_order_acquire);
        while (k >= (s & ~kDone) && (s & kDone) == 0) {
          scheduled.wait(s, std::memory_order_acquire);
          s = scheduled.load(std::memory_order_acquire);
        }
        if (k >= (s & ~kDone)) break;
        bool got = false;
        try {
          got = conns[c]->receive(response);
        } catch (...) {
        }
        if (!got) break;  // this and later requests stay pending (lost)
        RequestRecord& record = run.records[k];
        record.done = Clock::now();
        record.outcome = classify(response, pool.expected_of(record.row));
      }
      receivers_done.fetch_add(1, std::memory_order_release);
    });
  }

  common::Rng arrivals(load.seed);
  double due_s = 0.0;  // offset of request k's due time from run.start
  run.start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<bool> dead(num_conns, false);
  std::size_t k = 0;
  for (; k < count; ++k) {
    if (load.stop != nullptr && load.stop->load(std::memory_order_acquire))
      break;
    if (k > 0) due_s += -std::log1p(-arrivals.uniform()) / load.rate;
    const auto due = run.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    RequestRecord& record = run.records[k];
    record.due = due;
    record.row = pool.row_of(k);
    record.sent = Clock::now();
    scheduled.store(k + 1, std::memory_order_release);
    scheduled.notify_all();
    const std::size_t c = k % num_conns;
    if (dead[c]) continue;
    try {
      conns[c]->send(pool.rows->row(record.row));
    } catch (...) {
      dead[c] = true;  // its receiver sees the abort and stops
      conns[c]->abort();
    }
  }
  run.end = k == 0 ? run.start : run.records[k - 1].due;
  scheduled.store(k | kDone, std::memory_order_release);
  scheduled.notify_all();

  detail::await_or_abort(conns, receivers_done, num_conns,
                         std::max(Clock::now(), run.end) + grace);
  for (auto& receiver : receivers) receiver.join();
  run.records.resize(k);  // only after the receivers stopped touching it
  return run;
}

/// Closed loop: keeps `window` requests in flight across the connections
/// (one thread each) for `duration` or until `max_requests` have been sent,
/// then reads every outstanding answer.
template <class Conn>
PhaseRun run_closed_loop(std::span<Conn* const> conns, const QueryPool& pool,
                         std::size_t window, Clock::duration duration,
                         std::size_t max_requests = SIZE_MAX,
                         std::chrono::milliseconds grace =
                             std::chrono::milliseconds(10000)) {
  const std::size_t num_conns = conns.size();
  std::vector<std::vector<RequestRecord>> per_conn(num_conns);
  std::atomic<std::size_t> workers_done{0};
  PhaseRun run;
  run.start = Clock::now();
  run.end = run.start + duration;

  std::vector<std::thread> workers;
  workers.reserve(num_conns);
  for (std::size_t c = 0; c < num_conns; ++c) {
    workers.emplace_back([&, c] {
      std::vector<RequestRecord>& records = per_conn[c];
      const std::size_t share =
          window / num_conns + (c < window % num_conns ? 1 : 0);
      std::deque<std::size_t> outstanding;
      bool healthy = true;
      // Request ids interleave across connections: k = c + C * j.
      const auto next_id = [&] { return c + num_conns * records.size(); };
      const auto send_next = [&] {
        if (next_id() >= max_requests) return;
        RequestRecord record;
        record.row = pool.row_of(next_id());
        record.due = record.sent = Clock::now();
        records.push_back(record);
        try {
          conns[c]->send(pool.rows->row(record.row));
          outstanding.push_back(records.size() - 1);
        } catch (...) {
          healthy = false;  // stays pending: counted as lost
        }
      };
      while (healthy && outstanding.size() < share &&
             next_id() < max_requests && Clock::now() < run.end)
        send_next();
      serve::Response response;
      while (!outstanding.empty()) {
        bool got = false;
        try {
          got = conns[c]->receive(response);
        } catch (...) {
        }
        if (!got) break;
        RequestRecord& record = records[outstanding.front()];
        outstanding.pop_front();
        record.done = Clock::now();
        record.outcome = classify(response, pool.expected_of(record.row));
        if (healthy && record.done < run.end) send_next();
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }
  detail::await_or_abort(conns, workers_done, num_conns, run.end + grace);
  for (auto& worker : workers) worker.join();
  Clock::time_point last_done = run.start;
  for (auto& records : per_conn) {
    run.records.insert(run.records.end(), records.begin(), records.end());
    for (const RequestRecord& r : records)
      last_done = std::max(last_done, r.done);
  }
  // A run that hit max_requests before the deadline ends with its last
  // answer, so its rate covers only the time it was sending.
  run.end = std::min(run.end, last_done);
  return run;
}

}  // namespace memhd::perfbench
