// Memory-requirement formulas of Table I.
//
// All five models are binary at deployment, so memory is counted in bits:
//
//   model     | encoding module | associative memory
//   ----------+-----------------+-------------------
//   SearcHD   | (f + L) * D     | k * D * N
//   QuantHD   | (f + L) * D     | k * D
//   LeHDC     | (f + L) * D     | k * D
//   BasicHDC  | f * D           | k * D
//   MEMHD     | f * D           | C * D
//
// with f features, L levels (paper: 256), D dimensions, k classes,
// C memory columns, N vector-quantization factor (paper: 64).
//
// Table I counts MODEL bits — what a deployed IMC chip stores. The software
// runtime of this library holds more: the projection encoders pad each
// packed sign row to whole 64-bit words, and the AM keeps a float shadow
// for training. memory_requirement() therefore also reports
// software-RESIDENT bytes, and the two diverge sharply once the basis is
// rematerialized (encoder residency collapses to O(1) while the model bits
// stay f * D).
#pragma once

#include <cstddef>
#include <string>

#include "src/hdc/basis_provider.hpp"

namespace memhd::core {

enum class ModelKind { kBasicHDC, kQuantHD, kSearcHD, kLeHDC, kMemhd };

const char* model_name(ModelKind kind);

struct MemoryParams {
  std::size_t num_features = 0;  // f
  std::size_t dim = 0;           // D
  std::size_t num_classes = 0;   // k
  std::size_t columns = 0;       // C   (MEMHD only)
  std::size_t num_levels = 256;  // L   (ID-Level encoders)
  std::size_t n_models = 64;     // N   (SearcHD)
  /// Basis mode of the projection plane (BasicHDC / MEMHD only). Does not
  /// change the Table I bits, only the software-resident bytes.
  hdc::BasisKind basis = hdc::BasisKind::kMaterialized;
};

struct MemoryBreakdown {
  std::size_t encoder_bits = 0;
  std::size_t am_bits = 0;
  /// Software-resident footprints (bytes): what this library's runtime
  /// actually allocates, as opposed to the deployed model bits above.
  std::size_t encoder_resident_bytes = 0;
  std::size_t am_resident_bytes = 0;

  std::size_t total_bits() const { return encoder_bits + am_bits; }
  std::size_t total_resident_bytes() const {
    return encoder_resident_bytes + am_resident_bytes;
  }
  double encoder_kb() const;
  double am_kb() const;
  double total_kb() const;
  double resident_kb() const;
};

/// Table I formula for one model.
MemoryBreakdown memory_requirement(ModelKind kind, const MemoryParams& params);

}  // namespace memhd::core
