// Coarse-to-fine associative search: a two-stage cascade over a packed
// centroid plane for the many-class / many-centroid regime.
//
// Exhaustive associative search scores every one of the C centroids against
// every query — C * D bit-ops per query — although at C in the thousands
// almost none of those centroids were ever going to win. The cascade spends
// a small fraction of that:
//
//   stage 1 (prescreen): score the query against a bit-sampled sub-plane —
//     D' = sample_fraction * D bits, chosen word-granularly so the packed
//     kernel backends serve it unchanged through a dedicated BatchScorer;
//   stage 2 (rescore): exact AND-popcount of only the surviving shortlist
//     rows through BatchScorer::scores_rows (the gather entry point — the
//     kernels touch nothing but survivors).
//
// The result is exact iff the true winner survives the prescreen (the
// shortlist hit-rate, reported by bench_cascade); with the early exit off,
// a shortlist covering every row is exact. Optional confidence early exit:
// accept the prescreen winner with no rescore when its sub-score margin
// reaches early_exit_margin bits.
//
// Thread contract: like BasisProvider and BatchScorer, a CascadeSearcher is
// IMMUTABLE after construction — no locks, no mutable members — so one
// searcher is safely shared, unsynchronized, by every serving thread and
// every copy-on-write model version. Per-call statistics go to a
// caller-owned CascadeStats, never to shared state. Rebuild the searcher
// when the centroid plane changes (MemhdModel::refresh_cascade does; the
// api::BatchServer shards re-pin it through their PredictContext rebuild on
// hot swap).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/search/cascade_config.hpp"

namespace memhd::search {

/// Per-call counters, accumulated into a caller-owned instance (the
/// searcher itself stays immutable and lock-free).
struct CascadeStats {
  std::uint64_t queries = 0;
  /// Rows exactly scored in stage 2 (the gather path's total work; a
  /// degenerate searcher scores every row of every query).
  std::uint64_t rescored_rows = 0;
  /// Queries answered from the prescreen alone (the confidence margin).
  std::uint64_t early_exits = 0;

  void merge(const CascadeStats& other) {
    queries += other.queries;
    rescored_rows += other.rescored_rows;
    early_exits += other.early_exits;
  }
};

/// The two-stage searcher over one frozen row (centroid) plane. Snapshots
/// everything it needs — the exact plane and the sampled sub-plane — so the
/// source matrix may be freed or mutated after construction.
class CascadeSearcher {
 public:
  /// Throws std::invalid_argument for out-of-range config values
  /// (sample_fraction outside (0, 1], shortlist == 0).
  CascadeSearcher(const common::BitMatrix& rows, const CascadeConfig& config);

  const CascadeConfig& config() const { return config_; }
  std::size_t rows() const { return full_.rows(); }
  std::size_t cols() const { return full_.cols(); }
  /// Number of 64-bit words the prescreen scores per row (D' / 64).
  std::size_t sampled_words() const { return word_index_.size(); }
  /// True when sample_fraction selected every word: the prescreen would be
  /// the full score, so dot_argmax simply runs the exhaustive kernel.
  bool degenerate() const { return sampled_words() == words_; }

  /// out[q] = first-wins argmax over the shortlist of
  /// popcount(row_r AND query_q); same signature family as
  /// BatchScorer::dot_argmax.
  /// Each query must have exactly cols() bits.
  void dot_argmax(std::span<const common::BitVector> queries,
                  std::vector<std::uint32_t>& out,
                  CascadeStats* stats = nullptr) const;
  void dot_argmax(const std::uint64_t* const* queries,
                  std::size_t num_queries, std::uint32_t* out,
                  CascadeStats* stats = nullptr) const;

 private:
  /// Resolves queries [q0, q1) of one prescreened chunk: selection +
  /// stage-2 rescore.
  void resolve_block(const std::uint64_t* const* queries,
                     const std::uint32_t* sub_scores, std::size_t q0,
                     std::size_t q1, std::uint32_t* out,
                     CascadeStats& stats) const;

  CascadeConfig config_;
  std::size_t words_ = 0;              // words per row of the full plane
  std::vector<std::uint32_t> word_index_;  // sampled words, ascending
  common::BatchScorer full_;           // exact plane (stage 2 + degenerate)
  common::BatchScorer sub_;            // prescreen plane (stage 1)
};

}  // namespace memhd::search
