// Blocked batch kernels for packed binary scoring: the software analogue of
// driving a whole query batch through an IMC array instead of one wordline
// pattern at a time.
//
// The core operation is BitMatrix x query-batch popcount scoring,
//
//   out[q][r] = popcount(row_r OP query_q),   OP in {AND, XOR},
//
// which is the associative-search MVM (AND = dot similarity) and the
// Hamming-distance table (XOR) over a batch of queries. Per-query calls
// walk the full row matrix once per query; the batch kernels tile over the
// row (centroid) dimension with independent accumulators per tile and
// parallel_for over query blocks, so the row matrix streams through cache
// once per block instead of once per query.
//
// The entry points below are thin dispatchers over the kernel-backend
// registry (src/common/kernels/backend.hpp): a portable register-tiled
// path, an AVX2 vpshufb-popcount path, an AVX-512 VPOPCNTDQ path, and a
// NEON vcntq path, selected at runtime by CPU feature (override with
// common::select_backend() or MEMHD_BATCH_KERNEL). Every backend is
// bit-identical to the per-query loops — popcounts are exact integer
// arithmetic — so callers batch freely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/kernels/popcount_core.hpp"

namespace memhd::common {

namespace detail {
/// Collects the word pointers of a query span, validating each query's
/// length against the row matrix once.
inline std::vector<const std::uint64_t*> query_word_ptrs(
    std::span<const BitVector> queries, std::size_t cols) {
  std::vector<const std::uint64_t*> ptrs(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    MEMHD_EXPECTS(queries[q].size() == cols);
    ptrs[q] = queries[q].words();
  }
  return ptrs;
}
}  // namespace detail

struct KernelBackend;

/// Scores every query row pointer against every row of `rows`:
/// out[q * rows.rows() + r] = popcount(rows.row(r) OP queries[q]).
/// Each queries[q] must point at words_for_bits(rows.cols()) words with the
/// tail bits beyond cols() clear (BitVector/BitMatrix storage guarantees
/// this). `out` must hold num_queries * rows.rows() entries.
void blocked_popcount_scores(const BitMatrix& rows,
                             const std::uint64_t* const* queries,
                             std::size_t num_queries, PopcountOp op,
                             std::uint32_t* out);

/// Convenience over a span of BitVectors (each of length rows.cols());
/// resizes `out` to queries.size() * rows.rows().
inline void blocked_popcount_scores(const BitMatrix& rows,
                                    std::span<const BitVector> queries,
                                    PopcountOp op,
                                    std::vector<std::uint32_t>& out) {
  out.resize(queries.size() * rows.rows());
  if (queries.empty() || rows.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows.cols());
  blocked_popcount_scores(rows, ptrs.data(), ptrs.size(), op, out.data());
}

/// Convenience over a query matrix (queries.cols() == rows.cols()).
inline void blocked_popcount_scores(const BitMatrix& rows,
                                    const BitMatrix& queries, PopcountOp op,
                                    std::vector<std::uint32_t>& out) {
  MEMHD_EXPECTS(queries.cols() == rows.cols());
  out.resize(queries.rows() * rows.rows());
  if (queries.empty() || rows.empty()) return;
  std::vector<const std::uint64_t*> ptrs(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) ptrs[q] = queries.row(q);
  blocked_popcount_scores(rows, ptrs.data(), ptrs.size(), op, out.data());
}

/// Fused batch associative recall: out[q] = argmax over r of
/// popcount(rows.row(r) AND queries[q]), first occurrence winning ties —
/// exactly argmax_u32 over the query's score row, but computed inside the
/// scoring tiles (a running winner-take-all in the accumulator lanes, the
/// software analogue of the IMC array's in-place winner search) without
/// materializing the batch * rows score table.
void blocked_dot_argmax(const BitMatrix& rows,
                        const std::uint64_t* const* queries,
                        std::size_t num_queries, std::uint32_t* out);

/// Convenience over a span of BitVectors; resizes `out` to queries.size().
inline void blocked_dot_argmax(const BitMatrix& rows,
                               std::span<const BitVector> queries,
                               std::vector<std::uint32_t>& out) {
  out.resize(queries.size());
  if (queries.empty() || rows.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows.cols());
  blocked_dot_argmax(rows, ptrs.data(), ptrs.size(), out.data());
}

/// Reusable batch engine over a fixed row matrix: performs the kernel's
/// word-major repack once at construction and then serves any number of
/// query batches. This is the steady-state shape of the heavy callers — a
/// QAT epoch scores every training chunk against one frozen binary AM, and
/// an evaluation sweep scores every test chunk against the deployed AM —
/// so the repack cost amortizes to zero instead of recurring per call.
/// The scorer snapshots the rows AND pins the backend it was packed for:
/// a later select_backend() switch does not touch live scorers (the repack
/// geometry is backend-specific). Rebuild the scorer after the AM changes.
class BatchScorer {
 public:
  explicit BatchScorer(const BitMatrix& rows);

  std::size_t rows() const { return rows_.rows(); }
  std::size_t cols() const { return rows_.cols(); }

  /// The backend this scorer was packed for (== active_backend() at
  /// construction time).
  const KernelBackend& backend() const { return *backend_; }

  /// out[q * rows() + r] = popcount(row_r OP query_q); same contract as
  /// blocked_popcount_scores.
  void scores(std::span<const BitVector> queries, PopcountOp op,
              std::vector<std::uint32_t>& out) const;
  void scores(const std::uint64_t* const* queries, std::size_t num_queries,
              PopcountOp op, std::uint32_t* out) const;

  /// out[q] = first-wins argmax_r popcount(row_r AND query_q); same
  /// contract as blocked_dot_argmax.
  void dot_argmax(std::span<const BitVector> queries,
                  std::vector<std::uint32_t>& out) const;
  void dot_argmax(const std::uint64_t* const* queries,
                  std::size_t num_queries, std::uint32_t* out) const;

  /// Gather/shortlist entry point: exact scores of ONE query against only
  /// the listed rows — out[i] = popcount(row row_ids[i] OP query). Runs
  /// over the row-major snapshot through the same combined_popcount core
  /// as every kernel backend's tail loop, so it is bit-identical to the
  /// full scores() restricted to row_ids while touching no other row's
  /// words. This is the cascade's stage-2 rescore (src/search/): survivors
  /// of a prescreen are typically a few dozen rows, far below where the
  /// word-major batch tiling pays for itself.
  void scores_rows(const std::uint64_t* query,
                   std::span<const std::uint32_t> row_ids, PopcountOp op,
                   std::uint32_t* out) const;
  /// AND (dot-similarity) shorthand — the associative-search case.
  void scores_rows(const std::uint64_t* query,
                   std::span<const std::uint32_t> row_ids,
                   std::uint32_t* out) const {
    scores_rows(query, row_ids, PopcountOp::kAnd, out);
  }

 private:
  const KernelBackend* backend_;         // pinned at construction
  BitMatrix rows_;                       // snapshot (row-major path + shape)
  std::vector<std::uint64_t> packed_;    // backend's word-major repack
  std::size_t rpad_ = 0;                 // rows padded for the lane width
};

inline void BatchScorer::scores(std::span<const BitVector> queries,
                                PopcountOp op,
                                std::vector<std::uint32_t>& out) const {
  out.resize(queries.size() * rows_.rows());
  if (queries.empty() || rows_.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows_.cols());
  scores(ptrs.data(), ptrs.size(), op, out.data());
}

inline void BatchScorer::dot_argmax(std::span<const BitVector> queries,
                                    std::vector<std::uint32_t>& out) const {
  out.resize(queries.size());
  if (queries.empty() || rows_.empty()) return;
  const auto ptrs = detail::query_word_ptrs(queries, rows_.cols());
  dot_argmax(ptrs.data(), ptrs.size(), out.data());
}

/// Runs the fused batch recall over `queries` in bounded chunks through one
/// reusable scorer and calls visit(query_index, best_row) for each query —
/// the shared scaffold of the evaluation loops (chunking bounds the
/// per-call working set while the scorer's repack amortizes across chunks).
template <typename Visit>
void chunked_dot_argmax(const BitMatrix& rows,
                        std::span<const BitVector> queries, Visit&& visit,
                        std::size_t chunk = 2048) {
  if (queries.empty() || rows.empty()) return;
  const BatchScorer scorer(rows);
  std::vector<std::uint32_t> best;
  for (std::size_t begin = 0; begin < queries.size(); begin += chunk) {
    const std::size_t n = std::min(chunk, queries.size() - begin);
    scorer.dot_argmax(queries.subspan(begin, n), best);
    for (std::size_t i = 0; i < n; ++i) visit(begin + i, best[i]);
  }
}

}  // namespace memhd::common
