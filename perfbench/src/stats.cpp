#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace memhd::perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return {};
  const std::size_t n = samples.size();
  // Nearest rank ceil(q * n), 1-based. The epsilon keeps q * n that is an
  // integer in exact arithmetic (0.99 * 1000) from rounding up a rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t index =
      std::min(n - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return {samples[index], n};
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Outcome classify(const serve::Response& response, int expected) {
  switch (response.status) {
    case serve::Status::kOk:
      return expected < 0 || response.label == expected ? Outcome::kOk
                                                        : Outcome::kMismatch;
    case serve::Status::kQueueFull:
    case serve::Status::kShuttingDown:
      return Outcome::kRefused;
    default:
      return Outcome::kErrored;
  }
}

void Tally::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kErrored: ++errored; break;
    case Outcome::kMismatch: ++mismatch; break;
    case Outcome::kPending:
    case Outcome::kLost: ++lost; break;
  }
}

Tally& Tally::operator+=(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  refused += other.refused;
  errored += other.errored;
  lost += other.lost;
  mismatch += other.mismatch;
  return *this;
}

PhaseSummary summarize(std::span<const RequestRecord> records,
                       Clock::time_point start, Clock::time_point end) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PhaseSummary out;
  std::vector<double> latency, late;
  latency.reserve(records.size());
  late.reserve(records.size());
  std::uint64_t ok_in_window = 0;
  for (const RequestRecord& r : records) {
    out.tally.add(r.outcome);
    if (r.sent != Clock::time_point{})
      late.push_back(ms_between(r.due, r.sent));
    if (r.outcome == Outcome::kOk) {
      latency.push_back(ms_between(r.due, r.done));
      if (r.done <= end) ++ok_in_window;
    } else {
      latency.push_back(kInf);
    }
  }
  out.p50_ms = percentile(latency, 0.50);
  out.p90_ms = percentile(latency, 0.90);
  out.p99_ms = percentile(latency, 0.99);
  out.late_p99_ms = percentile(std::move(late), 0.99);
  const double seconds = s_between(start, end);
  out.ok_per_s =
      seconds > 0 ? static_cast<double>(ok_in_window) / seconds : 0.0;
  return out;
}

PhaseSummary median_of_windows(std::span<const PhaseSummary> windows) {
  PhaseSummary out;
  if (windows.empty()) return out;
  std::vector<double> p50, p90, p99, late, rate;
  for (const PhaseSummary& w : windows) {
    out.tally += w.tally;
    p50.push_back(w.p50_ms.value);
    p90.push_back(w.p90_ms.value);
    p99.push_back(w.p99_ms.value);
    late.push_back(w.late_p99_ms.value);
    rate.push_back(w.ok_per_s);
    out.p50_ms.samples += w.p50_ms.samples;
    out.late_p99_ms.samples += w.late_p99_ms.samples;
  }
  out.p90_ms.samples = out.p99_ms.samples = out.p50_ms.samples;
  out.p50_ms.value = median(std::move(p50));
  out.p90_ms.value = median(std::move(p90));
  out.p99_ms.value = median(std::move(p99));
  out.late_p99_ms.value = median(std::move(late));
  out.ok_per_s = median(std::move(rate));
  return out;
}

}  // namespace memhd::perfbench
