#include "src/search/cascade.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"

namespace memhd::search {

namespace {

// Queries per resolve work item: one task owns one slice of `out`, so tasks
// never share output cache lines (same discipline as bitops_batch.cpp).
constexpr std::size_t kResolveBlock = 16;
// Rows per selection block. Candidate selection is O(rows) per query, which
// at many-centroid scale rivals the prescreen kernel itself if done row by
// row; instead one pass computes each block's score maximum (a pure u32 max
// reduction the compiler vectorizes) and the scalar selection loops then
// skip every block whose maximum cannot beat the running threshold.
constexpr std::size_t kSelBlock = 64;
// Queries per prescreen scores() call: bounds the sub-score table to
// kScoreChunk * rows u32 (16 MB at 16k rows) regardless of batch size.
constexpr std::size_t kScoreChunk = 256;

void validate(const CascadeConfig& config) {
  if (!(config.sample_fraction > 0.0) || config.sample_fraction > 1.0)
    throw std::invalid_argument(
        "CascadeSearcher: sample_fraction must be in (0, 1]");
  if (config.shortlist == 0)
    throw std::invalid_argument("CascadeSearcher: shortlist must be >= 1");
}

/// Deterministic word-granular sample: round(fraction * words) distinct
/// word indices (at least 1), ascending. Pure function of (seed, words,
/// fraction) — a reloaded model re-derives the same prescreen plane from
/// the persisted config.
std::vector<std::uint32_t> select_words(std::size_t words,
                                        const CascadeConfig& config) {
  validate(config);
  if (words == 0) return {};
  std::size_t n_sel = static_cast<std::size_t>(
      config.sample_fraction * static_cast<double>(words) + 0.5);
  n_sel = std::clamp<std::size_t>(n_sel, 1, words);
  common::Rng rng(config.seed ^ (0x5EA2C4ULL + words));
  auto picked = rng.sample_without_replacement(words, n_sel);
  std::sort(picked.begin(), picked.end());
  std::vector<std::uint32_t> out(picked.size());
  for (std::size_t i = 0; i < picked.size(); ++i)
    out[i] = static_cast<std::uint32_t>(picked[i]);
  return out;
}

/// Copies the sampled words of every row into a dedicated packed plane of
/// sampled_words * 64 columns. Tail-masked source words stay masked, so
/// AND-popcounts over the sub-plane see exactly the sampled bits. Returns
/// an empty plane when the sample is degenerate (all words selected): the
/// searcher forwards those to the exhaustive kernel instead.
common::BitMatrix build_sub_plane(const common::BitMatrix& rows,
                                  std::span<const std::uint32_t> words) {
  if (rows.empty() || words.size() == rows.words_per_row())
    return common::BitMatrix();
  common::BitMatrix sub(rows.rows(), words.size() * 64);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const std::uint64_t* src = rows.row(r);
    std::uint64_t* dst = sub.row(r);
    for (std::size_t j = 0; j < words.size(); ++j) dst[j] = src[words[j]];
  }
  return sub;
}

}  // namespace

CascadeSearcher::CascadeSearcher(const common::BitMatrix& rows,
                                 const CascadeConfig& config)
    : config_(config),
      words_(rows.words_per_row()),
      word_index_(select_words(rows.words_per_row(), config)),
      full_(rows),
      sub_(build_sub_plane(rows, word_index_)) {}

void CascadeSearcher::dot_argmax(std::span<const common::BitVector> queries,
                                 std::vector<std::uint32_t>& out,
                                 CascadeStats* stats) const {
  out.resize(queries.size());
  if (queries.empty() || rows() == 0) return;
  const auto ptrs = common::detail::query_word_ptrs(queries, cols());
  dot_argmax(ptrs.data(), ptrs.size(), out.data(), stats);
}

void CascadeSearcher::dot_argmax(const std::uint64_t* const* queries,
                                 std::size_t num_queries, std::uint32_t* out,
                                 CascadeStats* stats) const {
  if (num_queries == 0 || rows() == 0) return;

  CascadeStats local;
  local.queries = num_queries;

  if (degenerate()) {
    // The sample is the whole plane: the prescreen would BE the exact
    // score. Run the exhaustive kernel, which scores every row.
    full_.dot_argmax(queries, num_queries, out);
    local.rescored_rows = num_queries * rows();
    if (stats != nullptr) stats->merge(local);
    return;
  }

  const std::size_t n_sel = word_index_.size();

  // ---- stage 1: gather the sampled words of every query.
  std::vector<std::uint64_t> sub_words(num_queries * n_sel);
  std::vector<const std::uint64_t*> sub_ptrs(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    const std::uint64_t* full_q = queries[q];
    std::uint64_t* sub_q = sub_words.data() + q * n_sel;
    for (std::size_t j = 0; j < n_sel; ++j) sub_q[j] = full_q[word_index_[j]];
    sub_ptrs[q] = sub_q;
  }

  // ---- prescreen scores in bounded chunks, resolving each chunk's queries
  // in parallel blocks before the next chunk's table overwrites the buffer.
  std::vector<std::uint32_t> sub_scores;
  const std::size_t nrows = rows();
  for (std::size_t c0 = 0; c0 < num_queries; c0 += kScoreChunk) {
    const std::size_t cn = std::min(kScoreChunk, num_queries - c0);
    sub_scores.resize(cn * nrows);
    sub_.scores(sub_ptrs.data() + c0, cn, common::PopcountOp::kAnd,
                sub_scores.data());

    const std::size_t nblocks = (cn + kResolveBlock - 1) / kResolveBlock;
    std::vector<CascadeStats> block_stats(nblocks);
    common::parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          const std::size_t q0 = b * kResolveBlock;
          const std::size_t q1 = std::min(cn, q0 + kResolveBlock);
          resolve_block(queries + c0, sub_scores.data(), q0, q1, out + c0,
                        block_stats[b]);
        },
        /*grain=*/1);
    for (const auto& s : block_stats) local.merge(s);
  }

  if (stats != nullptr) stats->merge(local);
}

void CascadeSearcher::resolve_block(const std::uint64_t* const* queries,
                                    const std::uint32_t* sub_scores,
                                    std::size_t q0, std::size_t q1,
                                    std::uint32_t* out,
                                    CascadeStats& stats) const {
  const std::size_t nrows = rows();
  const std::size_t cap = config_.shortlist;
  const std::size_t nb = (nrows + kSelBlock - 1) / kSelBlock;
  std::vector<std::uint32_t> bm(nb);     // per-block prescreen maxima
  std::vector<std::uint32_t> bm_sorted;  // scratch for the T0 quantile
  std::vector<std::uint64_t> keys;       // (score << 32 | ~index) candidates
  std::vector<std::uint32_t> cands;
  std::vector<std::uint32_t> exact;
  cands.reserve(cap + 1);
  exact.reserve(cap + 1);

  for (std::size_t q = q0; q < q1; ++q) {
    const std::uint32_t* s = sub_scores + q * nrows;

    // Pass 1: per-block score maxima — a branchless max reduction (the
    // vector-friendly pass: full blocks have a fixed trip count);
    // everything below works block-at-a-time off it.
    const std::size_t nfull = nrows / kSelBlock;
    for (std::size_t b = 0; b < nfull; ++b) {
      const std::uint32_t* blk = s + b * kSelBlock;
      std::uint32_t mx = 0;
      for (std::size_t r = 0; r < kSelBlock; ++r) mx = std::max(mx, blk[r]);
      bm[b] = mx;
    }
    if (nfull < nb) {
      std::uint32_t mx = 0;
      for (std::size_t r = nfull * kSelBlock; r < nrows; ++r)
        mx = std::max(mx, s[r]);
      bm[nfull] = mx;
    }
    std::uint32_t m = 0;
    for (std::size_t b = 0; b < nb; ++b) m = std::max(m, bm[b]);

    // Confidence early exit: the prescreen winner leads by a comfortable
    // sub-score margin, skip stage 2 entirely. The winner and runner-up
    // come from the block maxima: the first block attaining m holds the
    // first-wins winner; the runner-up is the best of the other blocks'
    // maxima and the winner block's next-best score.
    if (config_.early_exit_margin > 0) {
      std::size_t wb = 0;
      std::uint32_t other = 0;
      for (std::size_t b = 0; b < nb; ++b) {
        if (bm[b] == m) {
          wb = b;
          for (++b; b < nb; ++b) other = std::max(other, bm[b]);
          break;
        }
        other = std::max(other, bm[b]);
      }
      std::uint32_t winner = 0, in_block = 0;
      bool found = false;
      const std::size_t r1 = std::min(nrows, (wb + 1) * kSelBlock);
      for (std::size_t r = wb * kSelBlock; r < r1; ++r) {
        if (!found && s[r] == m) {
          winner = static_cast<std::uint32_t>(r);
          found = true;
        } else {
          in_block = std::max(in_block, s[r]);
        }
      }
      const std::uint32_t second = std::max(other, in_block);
      if (static_cast<std::uint64_t>(m - second) >=
          config_.early_exit_margin) {
        out[q] = winner;
        ++stats.early_exits;
        continue;
      }
    }

    // Top-`cap` rows by (sub-score desc, index asc), heap-free. T0 = the
    // cap-th largest BLOCK maximum is a provable lower bound on the cap-th
    // largest score (each of those cap blocks contributes at least one row
    // scoring >= T0), so one scan of only the blocks reaching T0 collects
    // every possible top-cap row as a packed (score << 32 | ~index) key —
    // the same key order as a per-row heap: descending key = (score desc,
    // index asc), ties impossible. A small nth_element over the survivors
    // (typically a few hundred rows, not nrows) then cuts the exact
    // shortlist.
    std::uint32_t t0 = 0;
    if (nb > cap) {
      bm_sorted.assign(bm.begin(), bm.end());
      std::nth_element(bm_sorted.begin(), bm_sorted.begin() + (cap - 1),
                       bm_sorted.end(), std::greater<>{});
      t0 = bm_sorted[cap - 1];
    }
    keys.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (bm[b] < t0) continue;
      const std::size_t r1 = std::min(nrows, (b + 1) * kSelBlock);
      for (std::size_t r = b * kSelBlock; r < r1; ++r)
        if (s[r] >= t0)
          keys.push_back((static_cast<std::uint64_t>(s[r]) << 32) |
                         (0xFFFFFFFFULL - static_cast<std::uint64_t>(r)));
    }
    if (keys.size() > cap) {
      std::nth_element(keys.begin(), keys.begin() + (cap - 1), keys.end(),
                       std::greater<>{});
      keys.resize(cap);
    }
    cands.clear();
    for (const auto key : keys)
      cands.push_back(static_cast<std::uint32_t>(
          0xFFFFFFFFULL - (key & 0xFFFFFFFFULL)));
    std::sort(cands.begin(), cands.end());
    exact.resize(cands.size());
    full_.scores_rows(queries[q], cands, exact.data());
    std::uint32_t best = cands[0], best_score = exact[0];
    for (std::size_t i = 1; i < cands.size(); ++i)
      if (exact[i] > best_score) {
        best_score = exact[i];
        best = cands[i];
      }
    out[q] = best;
    stats.rescored_rows += cands.size();
  }
}

}  // namespace memhd::search
