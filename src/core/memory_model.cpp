#include "src/core/memory_model.hpp"

#include "src/common/assert.hpp"

namespace memhd::core {

namespace {
constexpr double kBitsPerKb = 8.0 * 1024.0;
}

const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kBasicHDC: return "BasicHDC";
    case ModelKind::kQuantHD: return "QuantHD";
    case ModelKind::kSearcHD: return "SearcHD";
    case ModelKind::kLeHDC: return "LeHDC";
    case ModelKind::kMemhd: return "MEMHD";
  }
  return "?";
}

double MemoryBreakdown::encoder_kb() const {
  return static_cast<double>(encoder_bits) / kBitsPerKb;
}
double MemoryBreakdown::am_kb() const {
  return static_cast<double>(am_bits) / kBitsPerKb;
}
double MemoryBreakdown::total_kb() const {
  return static_cast<double>(total_bits()) / kBitsPerKb;
}
double MemoryBreakdown::resident_kb() const {
  return static_cast<double>(total_resident_bytes()) / 1024.0;
}

namespace {

/// Software-resident bytes of a projection encoder plane: the packed
/// feature-major sign plane the encode kernel reads, f rows of ceil(D / 64)
/// words — or a small constant when the plane is rematerialized from its
/// seed on demand.
std::size_t projection_resident_bytes(std::size_t num_features,
                                      std::size_t dim, hdc::BasisKind basis) {
  if (basis == hdc::BasisKind::kRematerialized)
    return sizeof(hdc::RematerializedBasis);
  const std::size_t words_per_row = (dim + 63) / 64;
  return num_features * words_per_row * sizeof(std::uint64_t);
}

/// AM residency: packed binary rows plus the float shadow kept for
/// training-time bundling (4 bytes per model bit).
std::size_t am_resident_bytes(std::size_t am_bits) {
  return am_bits / 8 + am_bits * sizeof(float);
}

}  // namespace

MemoryBreakdown memory_requirement(ModelKind kind,
                                   const MemoryParams& p) {
  MEMHD_EXPECTS(p.num_features > 0 && p.dim > 0 && p.num_classes > 0);
  MemoryBreakdown out;
  switch (kind) {
    case ModelKind::kSearcHD:
      out.encoder_bits = (p.num_features + p.num_levels) * p.dim;
      out.am_bits = p.num_classes * p.dim * p.n_models;
      // ID-Level codebooks are stored packed, bit for bit.
      out.encoder_resident_bytes = out.encoder_bits / 8;
      break;
    case ModelKind::kQuantHD:
    case ModelKind::kLeHDC:
      out.encoder_bits = (p.num_features + p.num_levels) * p.dim;
      out.am_bits = p.num_classes * p.dim;
      out.encoder_resident_bytes = out.encoder_bits / 8;
      break;
    case ModelKind::kBasicHDC:
      out.encoder_bits = p.num_features * p.dim;
      out.am_bits = p.num_classes * p.dim;
      out.encoder_resident_bytes =
          projection_resident_bytes(p.num_features, p.dim, p.basis);
      break;
    case ModelKind::kMemhd:
      MEMHD_EXPECTS(p.columns >= p.num_classes);
      out.encoder_bits = p.num_features * p.dim;
      out.am_bits = p.columns * p.dim;
      out.encoder_resident_bytes =
          projection_resident_bytes(p.num_features, p.dim, p.basis);
      break;
  }
  out.am_resident_bytes = am_resident_bytes(out.am_bits);
  return out;
}

}  // namespace memhd::core
