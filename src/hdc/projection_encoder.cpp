#include "src/hdc/projection_encoder.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__AVX512BW__)
#include <immintrin.h>
#endif

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"

namespace memhd::hdc {

namespace {

/// 64 packed sign bits -> 64 floats via a byte-indexed table of 8-float
/// groups (8 KB, L1-resident): one 32-byte copy per byte of the word
/// replaces 64 test-and-branch stores. Fallback for targets without
/// AVX-512BW mask registers.
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
#if defined(__AVX512BW__)
  // Mask-blend: the word goes into one 64-bit mask register, and each
  // 16-bit slice of it selects +1/-1 lanes directly (bit i of the mask ->
  // lane i), no table traffic at all.
  const __m512 plus = _mm512_set1_ps(1.0f);
  const __m512 minus = _mm512_set1_ps(-1.0f);
  const __mmask64 bits = _cvtu64_mask64(word);
  const __mmask64 slices[4] = {bits, _kshiftri_mask64(bits, 16),
                               _kshiftri_mask64(bits, 32),
                               _kshiftri_mask64(bits, 48)};
  for (std::size_t b = 0; b < 4; ++b)
    _mm512_storeu_ps(out + b * 16,
                     _mm512_mask_blend_ps(static_cast<__mmask16>(slices[b]),
                                          minus, plus));
#else
  for (std::size_t b = 0; b < 8; ++b)
    std::memcpy(out + b * 8, kBitFloats[(word >> (b * 8)) & 0xFF].data(),
                8 * sizeof(float));
#endif
}

/// 16 float lanes: one output-dimension accumulator vector.
typedef float DimVec __attribute__((vector_size(16 * sizeof(float))));
constexpr std::size_t kLanes = 16;
/// Dimension words (64 dims each) per plane tile: 256 dims, the width one
/// row's 16 accumulators cover.
constexpr std::size_t kTileWords = 4;

/// The rows of one accumulator group (R <= 4 rows of a chunk), reduced to
/// the features that are non-zero in at least one of them: x[i * R + r] is
/// row r's value of feature active[i]. A feature that is +/-0 in every row
/// adds +/-0.0 to every accumulator, which leaves a sum that starts at +0
/// unchanged, so dropping it is exact.
struct RowGroup {
  std::size_t first;  // first row of the group within the chunk
  std::size_t rows;
  std::vector<std::uint32_t> active;
  std::vector<float> x;
};

/// Adds +/-x of every active feature, in ascending order, into R x 4W
/// accumulators (R rows x W dimension words of `signs` from dimension d),
/// then stores the dims below `dim` into `block`. x * (+/-1) is exact, so
/// each dimension gets the float sequence of a sequential dot from +0.
template <std::size_t R, std::size_t W>
void project_tile(const std::uint64_t* signs, std::size_t stride,
                  const RowGroup& group, float* block, std::size_t dim,
                  std::size_t d) {
  DimVec acc[R][4 * W] = {};
  alignas(64) float pm[W][64];
  for (std::size_t i = 0; i < group.active.size(); ++i) {
    const std::uint64_t* words = signs + group.active[i] * stride;
    for (std::size_t w = 0; w < W; ++w) expand_sign_word(words[w], pm[w]);
    for (std::size_t r = 0; r < R; ++r) {
      const float x = group.x[i * R + r];
      for (std::size_t v = 0; v < 4 * W; ++v) {
        DimVec sign;
        std::memcpy(&sign, &pm[v / 4][(v % 4) * kLanes], sizeof(sign));
        acc[r][v] += x * sign;
      }
    }
  }
  const std::size_t nd = std::min(W * 64, dim - d);
  for (std::size_t r = 0; r < R; ++r) {
    float* out = block + (group.first + r) * dim + d;
    for (std::size_t v = 0; v * kLanes < nd; ++v) {
      if (nd - v * kLanes >= kLanes)
        std::memcpy(out + v * kLanes, &acc[r][v], sizeof(DimVec));
      else
        std::memcpy(out + v * kLanes, &acc[r][v],
                    (nd - v * kLanes) * sizeof(float));
    }
  }
}

/// One plane tile (`count` <= kTileWords dimension words from output
/// dimension d0) for one group: W = kTileWords / R words per pass keeps 16
/// accumulators live; a narrower tail tile takes one word per pass.
template <std::size_t R>
void project_group(const SignTile& tile, std::size_t count,
                   const RowGroup& group, float* block, std::size_t dim,
                   std::size_t d0) {
  constexpr std::size_t W = kTileWords / R;
  std::size_t w = 0;
  for (; w + W <= count; w += W)
    project_tile<R, W>(tile.words + w, tile.stride, group, block, dim,
                       d0 + w * 64);
  for (; w < count; ++w)
    project_tile<R, 1>(tile.words + w, tile.stride, group, block, dim,
                       d0 + w * 64);
}

}  // namespace

ProjectionEncoder::ProjectionEncoder(const ProjectionEncoderConfig& config)
    : config_(config),
      basis_(make_basis_provider(config.basis, config.dim,
                                 config.num_features, config.seed)) {}

std::vector<float> ProjectionEncoder::project(
    std::span<const float> features) const {
  MEMHD_EXPECTS(features.size() == config_.num_features);
  std::vector<float> h(config_.dim);
  const float* row = features.data();
  project_block(&row, 1, h.data());
  return h;
}

void ProjectionEncoder::binarize_thresholds(const float* block,
                                            std::size_t count,
                                            float* thresholds) const {
  const std::size_t dim = config_.dim;
  if (config_.binarize == BinarizeMode::kZeroThreshold) {
    std::fill(thresholds, thresholds + count, 0.0f);
    return;
  }
  // Each row's sum runs in ascending order from +0; four rows at a time so
  // their add chains overlap (a short group repeats its last row).
  for (std::size_t s = 0; s < count; s += 4) {
    const float* r[4];
    for (std::size_t i = 0; i < 4; ++i)
      r[i] = block + std::min(s + i, count - 1) * dim;
    float sum[4] = {};
    for (std::size_t d = 0; d < dim; ++d)
      for (std::size_t i = 0; i < 4; ++i) sum[i] += r[i][d];
    for (std::size_t i = 0; i < 4 && s + i < count; ++i)
      thresholds[s + i] = sum[i] / static_cast<float>(dim);
  }
}

common::BitVector ProjectionEncoder::encode(
    std::span<const float> features) const {
  const std::vector<float> h = project(features);
  float threshold = 0.0f;
  binarize_thresholds(h.data(), 1, &threshold);
  return common::BitVector::from_threshold(h.data(), h.size(), threshold);
}

void ProjectionEncoder::project_block(const float* const* rows,
                                      std::size_t count, float* block) const {
  MEMHD_EXPECTS(count <= kSampleBlock);
  const std::size_t nf = config_.num_features;
  const std::size_t dim = config_.dim;

  std::vector<RowGroup> groups;  // of up to four rows
  for (std::size_t first = 0; first < count; first += 4) {
    const std::size_t r = std::min<std::size_t>(4, count - first);
    RowGroup& g = groups.emplace_back(RowGroup{first, r, {}, {}});
    g.active.reserve(nf);
    g.x.reserve(nf * r);
    for (std::size_t f = 0; f < nf; ++f) {
      bool any = false;
      for (std::size_t i = 0; i < r; ++i) any |= rows[first + i][f] != 0.0f;
      if (!any) continue;
      g.active.push_back(static_cast<std::uint32_t>(f));
      for (std::size_t i = 0; i < r; ++i) g.x.push_back(rows[first + i][f]);
    }
  }

  // Tile-outer: each tile of the plane is read (or rematerialized) once
  // for every group of the block.
  const std::size_t dim_words = common::words_for_bits(dim);
  std::vector<std::uint64_t> scratch;
  for (std::size_t w0 = 0; w0 < dim_words; w0 += kTileWords) {
    const std::size_t n = std::min(kTileWords, dim_words - w0);
    const SignTile tile = basis_->feature_words(w0, n, scratch);
    for (const RowGroup& g : groups) {
      switch (g.rows) {
        case 4: project_group<4>(tile, n, g, block, dim, w0 * 64); break;
        case 3: project_group<3>(tile, n, g, block, dim, w0 * 64); break;
        case 2: project_group<2>(tile, n, g, block, dim, w0 * 64); break;
        default: project_group<1>(tile, n, g, block, dim, w0 * 64); break;
      }
    }
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
        float thresholds[kSampleBlock];
        binarize_thresholds(block.data(), n, thresholds);
        for (std::size_t s = 0; s < n; ++s)
          out[lo + s] = common::BitVector::from_threshold(
              block.data() + s * dim, dim, thresholds[s]);
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
