// The benchmark's own arithmetic: percentile selection, outcome counting,
// and the per-request record every latency figure is computed from.
//
// Conventions (README.md, "Metric definitions"):
//   * Percentiles are nearest-rank: the reported p-th percentile is a real
//     sample, the smallest one with at least ceil(p * n) samples at or below
//     it, and it always travels with its sample count n.
//   * A request that failed in any way — refused, errored, lost with its
//     connection, or answered with the wrong label — counts as failed AND
//     enters the latency samples as +infinity, so failures can only push a
//     percentile up, never hide in a smaller sample.
//   * Open-loop latency runs from a request's DUE time (its slot in the
//     arrival schedule) to the moment its response was read, so a stalled
//     sender shows up as latency instead of silently thinning the load.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/serve/protocol.hpp"

namespace memhd::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double s_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One percentile and the sample count it was selected from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile of `samples` (q in (0, 1]); {0, 0} when empty.
Percentile percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the middle pair for even counts).
double median(std::vector<double> samples);

enum class Outcome : std::uint8_t {
  kPending,   // never answered; summarized as kLost
  kOk,
  kRefused,   // admission refused (queue full, server shutting down)
  kErrored,   // any other non-OK status (deadline, malformed, internal)
  kLost,      // the connection died before the response arrived
  kMismatch,  // kOk, but not the label the deployed model gives that row
};

/// Maps a wire response onto an outcome. `expected` < 0 skips the label
/// check (traffic scored while the model is being retrained).
Outcome classify(const serve::Response& response, int expected);

/// Attempted/failed counts by cause.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t errored = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatch = 0;

  void add(Outcome outcome);
  std::uint64_t failed() const { return attempted - ok; }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  Tally& operator+=(const Tally& other);
};

/// Everything the load generator learns about one request. `due` is the
/// schedule slot (closed loop: the send time), `sent` when its frame was
/// written, `done` when its response was read.
struct RequestRecord {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
  std::uint32_t row = 0;  // query-pool row the request carried
  Outcome outcome = Outcome::kPending;
};

/// Latency, lateness and failure summary of one load phase.
struct PhaseSummary {
  Tally tally;
  Percentile p50_ms;        // due -> response read; failures are +inf
  Percentile p90_ms;
  Percentile p99_ms;
  Percentile late_p99_ms;   // due -> sent: how far behind the sender ran
  double ok_per_s = 0.0;    // kOk responses read inside [start, end]
};

/// Summarizes `records`; responses read after `end` still count toward the
/// tally and the percentiles but not toward ok_per_s.
PhaseSummary summarize(std::span<const RequestRecord> records,
                       Clock::time_point start, Clock::time_point end);

/// A phase measured as several windows spread over the run: the tallies
/// add up, and every rate and percentile is the median of the windows'
/// values, so a burst of outside load that hits one window does not move
/// the figure. Sample counts are the total over all windows.
PhaseSummary median_of_windows(std::span<const PhaseSummary> windows);

}  // namespace memhd::perfbench
