// FP associative search over binary queries read as bipolar (+1 set,
// -1 clear): the pre-quantization search the FP shadow of an AM answers
// (single-centroid refinement in hdc::train_iterative, the multi-centroid
// AM's validation during clustering initialization).
//
// A query q scores against a float row r as
//
//   dot(r, bipolar(q)) = sum_{j set} r[j] - sum_{j clear} r[j]
//                      = 2 * sum_{j set} r[j] - sum_j r[j].
//
// Both sums are single float add chains in ascending j: the set sum adds
// only the entries at q's set bits, and the total depends on the row
// alone. Both entry points below perform exactly those adds in exactly
// that order, so a row scored alone (fp_bipolar_dot) and a batch scored
// against a dim-major copy of the plane (fp_bipolar_argmax) agree to the
// bit with each other and with a plain loop over j that adds row[j] to
// the total always and to the set sum when bit j is set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/bit_vector.hpp"
#include "src/common/matrix.hpp"

namespace memhd::hdc {

/// dot(row, bipolar(query)) for one row; query.size() must equal
/// row.size().
float fp_bipolar_dot(std::span<const float> row,
                     const common::BitVector& query);

/// Queries per task of fp_bipolar_argmax's parallel split.
inline constexpr std::size_t kFpQueryBlock = 16;

/// Batched FP argmax: out[q] is the first of `rows` (ascending row indices
/// into `plane`) whose fp_bipolar_dot with queries[q] is strictly greater
/// than -inf and than every earlier candidate's, or 0 when none is (no
/// rows, or all scores NaN). Rows not listed never compete. The listed
/// rows are copied dim-major once per call with each row's total computed
/// once; query blocks of kFpQueryBlock then fan out across the thread pool
/// and walk the copy in cache-sized dimension tiles, visiting only each
/// query's set bits. Bit-identical to fp_bipolar_dot plus that argmax per
/// query, at any thread count. out.size() must equal queries.size().
void fp_bipolar_argmax(const common::Matrix& plane,
                       std::span<const std::uint32_t> rows,
                       std::span<const common::BitVector> queries,
                       std::span<std::uint32_t> out);

}  // namespace memhd::hdc
