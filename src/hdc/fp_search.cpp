#include "src/hdc/fp_search.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bitops.hpp"
#include "src/common/parallel.hpp"

namespace memhd::hdc {

namespace {

/// Floats of the dim-major plane one dimension tile spans (128 KB): a
/// query block re-reads its tile once per query, so the tile stays in L2.
constexpr std::size_t kTileFloats = 32768;

/// Calls visit(j) for every set bit j of `words[w_begin, w_end)`, in
/// ascending j. Bits past a BitVector's size are clear by its storage
/// invariant, so whole words can be walked.
template <typename Visit>
void for_each_set_bit(const std::uint64_t* words, std::size_t w_begin,
                      std::size_t w_end, Visit&& visit) {
  for (std::size_t w = w_begin; w < w_end; ++w)
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
      visit(w * common::kBitsPerWord +
            static_cast<std::size_t>(std::countr_zero(bits)));
}

/// sum_j row[j], accumulated in ascending j.
float fp_row_total(std::span<const float> row) {
  float total = 0.0f;
  for (const float v : row) total += v;
  return total;
}

}  // namespace

float fp_bipolar_dot(std::span<const float> row,
                     const common::BitVector& query) {
  MEMHD_EXPECTS(query.size() == row.size());
  float set_sum = 0.0f;
  for_each_set_bit(query.words(), 0, query.num_words(),
                   [&](std::size_t j) { set_sum += row[j]; });
  return 2.0f * set_sum - fp_row_total(row);
}

void fp_bipolar_argmax(const common::Matrix& plane,
                       std::span<const std::uint32_t> rows,
                       std::span<const common::BitVector> queries,
                       std::span<std::uint32_t> out) {
  MEMHD_EXPECTS(out.size() == queries.size());
  const std::size_t dim = plane.cols();
  for (const auto& q : queries) MEMHD_EXPECTS(q.size() == dim);
  if (queries.empty()) return;

  // Dim-major copy of the listed rows: by_dim[j * width + r] holds
  // plane(rows[r], j), so one set bit j adds a contiguous run of `width`
  // floats into a query's `width` accumulators.
  const std::size_t width = rows.size();
  std::vector<float> by_dim(dim * width);
  std::vector<float> totals(width);
  for (std::size_t r = 0; r < width; ++r) {
    MEMHD_EXPECTS(rows[r] < plane.rows());
    MEMHD_EXPECTS(r == 0 || rows[r - 1] < rows[r]);
    const auto row = plane.row(rows[r]);
    totals[r] = fp_row_total(row);
    for (std::size_t j = 0; j < dim; ++j) by_dim[j * width + r] = row[j];
  }

  const std::size_t words = common::words_for_bits(dim);
  const std::size_t tile_words = std::max<std::size_t>(
      1, kTileFloats /
             (common::kBitsPerWord * std::max<std::size_t>(1, width)));
  const std::size_t blocks =
      (queries.size() + kFpQueryBlock - 1) / kFpQueryBlock;
  common::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t q0 = b * kFpQueryBlock;
        const std::size_t q1 = std::min(queries.size(), q0 + kFpQueryBlock);
        std::vector<float> acc((q1 - q0) * width, 0.0f);
        // Tiles advance in ascending j and each query's set bits are
        // visited in ascending j within a tile, so every accumulator sees
        // its row's set entries in the per-row order.
        for (std::size_t w0 = 0; w0 < words; w0 += tile_words) {
          const std::size_t w1 = std::min(words, w0 + tile_words);
          for (std::size_t q = q0; q < q1; ++q) {
            float* a = acc.data() + (q - q0) * width;
            for_each_set_bit(queries[q].words(), w0, w1, [&](std::size_t j) {
              const float* col = by_dim.data() + j * width;
              for (std::size_t r = 0; r < width; ++r) a[r] += col[r];
            });
          }
        }
        for (std::size_t q = q0; q < q1; ++q) {
          const float* a = acc.data() + (q - q0) * width;
          std::uint32_t best = 0;
          float best_score = -std::numeric_limits<float>::infinity();
          for (std::size_t r = 0; r < width; ++r) {
            const float score = 2.0f * a[r] - totals[r];
            if (score > best_score) {
              best_score = score;
              best = rows[r];
            }
          }
          out[q] = best;
        }
      },
      /*grain=*/2);
}

}  // namespace memhd::hdc
