#include "src/hdc/projection_encoder.hpp"

#include <array>
#include <cstring>
#include <numeric>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"

namespace memhd::hdc {

namespace {

/// 64 packed sign bits -> 64 floats via a byte-indexed table of 8-float
/// groups (8 KB, L1-resident): one 32-byte copy per byte of the word
/// replaces 64 test-and-branch stores. Fallback for targets without
/// AVX-512 mask blends.
[[maybe_unused]] constexpr auto kBitFloats = [] {
  std::array<std::array<float, 8>, 256> table{};
  for (std::size_t b = 0; b < 256; ++b)
    for (std::size_t i = 0; i < 8; ++i)
      table[b][i] = (b >> i) & 1 ? 1.0f : -1.0f;
  return table;
}();

/// 64 packed sign bits -> 64 floats (+1.0f for a set bit, -1.0f clear), bit
/// i to out[i]. Called inside the projection kernel's FMA loop, where the
/// expansion micro-ops overlap the math; identical float output on every
/// path (the AVX-512 mask blend and the byte-LUT copy agree bit for bit).
inline void expand_sign_word(std::uint64_t word, float* out) {
#if defined(__AVX512F__)
  // Mask-blend: each 16-bit slice of the word selects +1/-1 lanes directly
  // (bit i of the mask -> lane i), no table traffic at all.
  const __m512 plus = _mm512_set1_ps(1.0f);
  const __m512 minus = _mm512_set1_ps(-1.0f);
  for (std::size_t b = 0; b < 4; ++b)
    _mm512_storeu_ps(
        out + b * 16,
        _mm512_mask_blend_ps(static_cast<__mmask16>(word >> (b * 16)), minus,
                             plus));
#else
  for (std::size_t b = 0; b < 8; ++b)
    std::memcpy(out + b * 8, kBitFloats[(word >> (b * 8)) & 0xFF].data(),
                8 * sizeof(float));
#endif
}

}  // namespace

ProjectionEncoder::ProjectionEncoder(const ProjectionEncoderConfig& config)
    : config_(config),
      basis_(make_basis_provider(config.basis, config.dim,
                                 config.num_features, config.seed)) {}

const common::BitMatrix& ProjectionEncoder::sign_matrix() const {
  const auto* materialized =
      dynamic_cast<const MaterializedBasis*>(basis_.get());
  MEMHD_EXPECTS(materialized != nullptr);  // materialized mode only
  return materialized->sign_matrix();
}

void ProjectionEncoder::project_sparse(std::span<const float> features,
                                       std::span<float> out) const {
  const std::size_t nf = config_.num_features;
  // Non-zero features in ascending order — the same accumulation order as
  // the dense loop minus its exactly-zero terms — and the distinct basis
  // words they live in (the only words fetched per output dim).
  std::vector<std::uint32_t> nz;          // feature indices
  std::vector<std::uint32_t> word_list;   // distinct words, ascending
  std::vector<std::uint32_t> word_slot;   // nz[i]'s index into word_list
  for (std::size_t f = 0; f < nf; ++f) {
    if (features[f] == 0.0f) continue;
    const std::uint32_t w = static_cast<std::uint32_t>(f >> 6);
    if (word_list.empty() || word_list.back() != w) word_list.push_back(w);
    nz.push_back(static_cast<std::uint32_t>(f));
    word_slot.push_back(static_cast<std::uint32_t>(word_list.size() - 1));
  }
  std::vector<std::uint64_t> words(word_list.size());
  for (std::size_t d = 0; d < config_.dim; ++d) {
    basis_->sign_words(d, word_list.data(), word_list.size(), words.data());
    float acc = 0.0f;
    for (std::size_t i = 0; i < nz.size(); ++i) {
      const std::uint32_t f = nz[i];
      const bool positive = (words[word_slot[i]] >> (f & 63)) & 1ULL;
      acc += (positive ? 1.0f : -1.0f) * features[f];
    }
    out[d] = acc;
  }
}

std::vector<float> ProjectionEncoder::project(
    std::span<const float> features) const {
  MEMHD_EXPECTS(features.size() == config_.num_features);
  std::vector<float> h(config_.dim, 0.0f);
  std::size_t nnz = 0;
  for (const float v : features) nnz += (v != 0.0f);
  if (nnz * kSparseInverseDensity <= config_.num_features) {
    project_sparse(features, h);
  } else {
    const float* row = features.data();
    project_block(&row, 1, h.data());
  }
  return h;
}

float ProjectionEncoder::binarize_threshold(
    std::span<const float> projected) const {
  switch (config_.binarize) {
    case BinarizeMode::kZeroThreshold:
      return 0.0f;
    case BinarizeMode::kSampleMean: {
      const float sum =
          std::accumulate(projected.begin(), projected.end(), 0.0f);
      return sum / static_cast<float>(projected.size());
    }
  }
  return 0.0f;
}

common::BitVector ProjectionEncoder::encode(
    std::span<const float> features) const {
  const std::vector<float> h = project(features);
  const float threshold = binarize_threshold(h);
  return common::BitVector::from_threshold(h.data(), h.size(), threshold);
}

void ProjectionEncoder::project_block(const float* const* rows,
                                      std::size_t count, float* block) const {
  MEMHD_EXPECTS(count <= kSampleBlock);
  const std::size_t nf = config_.num_features;
  const std::size_t dim = config_.dim;

  // Feature-major transpose of the block, padded to kSampleBlock columns:
  // xt[f * kSampleBlock + s] = rows[s][f]. One weight element then
  // multiplies a contiguous run of samples, so the inner sample loop below
  // vectorizes while each sample's own accumulation stays in feature order
  // — the float sequence of a sequential scalar dot, with kSampleBlock
  // independent chains instead of one. A lone row (project()) takes the
  // same path as a full block, so the result never depends on the count.
  std::vector<float> xt(nf * kSampleBlock, 0.0f);
  for (std::size_t s = 0; s < count; ++s)
    for (std::size_t f = 0; f < nf; ++f) xt[f * kSampleBlock + s] = rows[s][f];

  // One vector register of per-sample accumulators; four output dimensions
  // in flight so the per-lane FMA chains overlap instead of serializing on
  // FMA latency. Lane s accumulates sample s's projection in feature order,
  // exactly like the sequential scalar dot.
  //
  // Weights arrive as PACKED sign rows (sign_rows) and are expanded to
  // float +/-1 one 64-feature word tile at a time, inside the FMA loop: the
  // expansion micro-ops (mask blends / table copies + L1 stores) fill port
  // slack the FMA chains leave open instead of running as a serial phase,
  // a materialized plane streams one bit per weight, and a rematerialized
  // plane replays the same words at the same cost.
  // Either way the float values and accumulation order are identical, so
  // the two modes encode bit-identically.
  const std::size_t wpr = basis_->words_per_row();
  // Double-buffered word groups: the NEXT group's rows are fetched (or, for
  // a rematerialized plane, regenerated) before the current group's FMA
  // loop, so the generation integer ops retire in that loop's port bubbles
  // instead of serializing in front of it.
  std::vector<std::uint64_t> wbuf(8 * wpr);
  std::uint64_t* wcur = wbuf.data();
  std::uint64_t* wnext = wbuf.data() + 4 * wpr;
  alignas(64) float tile[4][64];
  typedef float SampleVec
      __attribute__((vector_size(kSampleBlock * sizeof(float)), aligned(4)));
  const SampleVec* xv = reinterpret_cast<const SampleVec*>(xt.data());
  std::size_t d = 0;
  if (dim >= 4) basis_->sign_rows(0, 4, wcur);
  for (; d + 4 <= dim; d += 4) {
    if (d + 8 <= dim) basis_->sign_rows(d + 4, 4, wnext);
    SampleVec a0{}, a1{}, a2{}, a3{};
    for (std::size_t w = 0; w < wpr; ++w) {
      expand_sign_word(wcur[w], tile[0]);
      expand_sign_word(wcur[wpr + w], tile[1]);
      expand_sign_word(wcur[2 * wpr + w], tile[2]);
      expand_sign_word(wcur[3 * wpr + w], tile[3]);
      const std::size_t f0 = w * 64;
      const std::size_t fn = std::min<std::size_t>(64, nf - f0);
      for (std::size_t k = 0; k < fn; ++k) {
        const SampleVec x = xv[f0 + k];
        a0 += x * tile[0][k];
        a1 += x * tile[1][k];
        a2 += x * tile[2][k];
        a3 += x * tile[3][k];
      }
    }
    for (std::size_t s = 0; s < count; ++s) {
      float* o = block + s * dim + d;
      o[0] = a0[s];
      o[1] = a1[s];
      o[2] = a2[s];
      o[3] = a3[s];
    }
    std::swap(wcur, wnext);
  }
  for (; d < dim; ++d) {
    basis_->sign_rows(d, 1, wcur);
    SampleVec a{};
    for (std::size_t w = 0; w < wpr; ++w) {
      expand_sign_word(wcur[w], tile[0]);
      const std::size_t f0 = w * 64;
      const std::size_t fn = std::min<std::size_t>(64, nf - f0);
      for (std::size_t k = 0; k < fn; ++k) a += xv[f0 + k] * tile[0][k];
    }
    for (std::size_t s = 0; s < count; ++s) block[s * dim + d] = a[s];
  }
}

std::vector<common::BitVector> ProjectionEncoder::encode_batch(
    const common::Matrix& features, std::size_t begin,
    std::size_t count) const {
  MEMHD_EXPECTS(features.cols() == config_.num_features);
  MEMHD_EXPECTS(begin + count <= features.rows());
  std::vector<common::BitVector> out(count);
  const std::size_t dim = config_.dim;
  const std::size_t nblocks = (count + kSampleBlock - 1) / kSampleBlock;
  common::parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        const std::size_t lo = b * kSampleBlock;
        const std::size_t n = std::min(kSampleBlock, count - lo);
        const float* rows[kSampleBlock];
        for (std::size_t s = 0; s < n; ++s)
          rows[s] = features.row(begin + lo + s).data();
        std::vector<float> block(n * dim);
        project_block(rows, n, block.data());
        for (std::size_t s = 0; s < n; ++s) {
          const std::span<const float> hs(block.data() + s * dim, dim);
          out[lo + s] = common::BitVector::from_threshold(
              hs.data(), hs.size(), binarize_threshold(hs));
        }
      },
      /*grain=*/8);
  return out;
}

std::vector<common::BitVector> ProjectionEncoder::encode_batch(
    const common::Matrix& features) const {
  return encode_batch(features, 0, features.rows());
}

EncodedDataset ProjectionEncoder::encode_dataset(
    const data::Dataset& dataset) const {
  MEMHD_EXPECTS(dataset.num_features() == config_.num_features);
  EncodedDataset out;
  out.dim = config_.dim;
  out.num_classes = dataset.num_classes();
  out.labels = dataset.labels();
  out.hypervectors = encode_batch(dataset.features());
  return out;
}

std::size_t ProjectionEncoder::memory_bits() const {
  return basis_->model_bits();
}

std::size_t ProjectionEncoder::resident_bytes() const {
  return basis_->resident_bytes();
}

}  // namespace memhd::hdc
