// In-memory span tracing for the traced run (README.md, "Traced run").
//
// A span has a name, start, end, parent span and request id. Spans are kept
// in memory while the workload runs and written out as JSON lines when the
// benchmark ends, so recording costs one timestamp pair and a locked push.
// Scope nests spans on the calling thread automatically (a thread-local
// "current span"), which is how a ModelStore::partial_fit call made from a
// trainer step ends up as that step's child without the library knowing.
// Spans that describe one request (due -> sent -> scored -> read) are built
// after the phase from the load generator's records and the scoring calls
// below, and added with explicit parents.
//
// A layer's self time is its span's duration minus the part of that
// interval its children cover (self_times()).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/matrix.hpp"
#include "stats.hpp"

namespace memhd::perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";     // static string: "<layer>.<operation>"
  Clock::time_point start{};
  Clock::time_point end{};
  std::int64_t request = -1;  // request id within its phase; -1 = none
  std::uint32_t rows = 0;     // rows handled (scoring and encode calls)
};

/// Maps a query row's bytes back to its index in the phase's query pool, so
/// a scoring call's rows can be matched with the requests that carried them.
class RowIndex {
 public:
  explicit RowIndex(const common::Matrix& pool);
  std::optional<std::uint32_t> find(std::span<const float> row) const;
  /// False when two pool rows are byte-identical (attribution ambiguous).
  bool unique() const { return unique_; }

 private:
  const common::Matrix* pool_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_hash_;
  bool unique_ = true;
};

/// One scoring call as the traced classifier saw it: the call span's start
/// and end plus where its encode and search children ended.
struct ScoreCall {
  std::uint64_t instance = 0;  // TracedClassifier serial (one per version)
  Clock::time_point start{};
  Clock::time_point encode_end{};
  Clock::time_point search_end{};
  Clock::time_point end{};
  std::uint32_t count = 0;  // rows scored
  /// Pool row of each scored row (empty when no RowIndex is set);
  /// kUnmapped where the lookup failed.
  std::vector<std::uint32_t> rows;
  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};
};

class Tracer {
 public:
  std::uint64_t new_id();
  void add(const Span& span);
  void add_call(ScoreCall call);
  /// Rows of scoring calls are looked up in `index` (null = not recorded).
  void set_row_index(const RowIndex* index);
  const RowIndex* row_index() const;

  std::vector<Span> spans() const;
  /// The scoring calls recorded since the last take_calls().
  std::vector<ScoreCall> take_calls();
  /// Writes every span as one JSON object per line, times in microseconds
  /// since the first span. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<ScoreCall> calls_;
  std::uint64_t next_id_ = 1;
  const RowIndex* row_index_ = nullptr;
};

/// RAII span on the calling thread; its parent is whatever Scope is open on
/// this thread. With a null tracer it still times (start()/close()) but
/// records nothing, so untraced runs share the same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t rows = 0);
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Clock::time_point start() const { return span_.start; }
  /// Ends the span now (idempotent) and returns its end time.
  Clock::time_point close();

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t previous_ = 0;
  bool open_ = false;
};

/// Per span name: how many, their total time and their total self time.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans);

/// Durations (ms) of every span called `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name);

}  // namespace memhd::perfbench
