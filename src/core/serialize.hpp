// Binary model persistence.
//
// Layout (host byte order — little-endian on every supported target —
// version-tagged; the 115-byte header is pinned byte for byte in
// tests/core/test_serialize.cpp):
//   magic "MEMHD003"
//   u64 dim, columns, num_features, num_classes, epochs, kmeans_iters, seed
//   f64 initial_ratio; f32 learning_rate
//   u8 init_method, allocation_policy, normalization_mode
//   u8 basis kind; u8 basis derivation (always 0, the counter stream)
//   u8 cascade enabled; u8 cascade mode (always 1, threshold)
//   f64 cascade sample_fraction; u64 shortlist, early_exit_margin, seed
//   u16[columns]            centroid owners
//   f32[columns * dim]      FP shadow AM
//   u64[columns * wpr]      packed binary AM rows
//
// The projection encoder is NOT stored: it is deterministic in
// (seed, num_features, dim) and is rebuilt on load. A reload therefore
// reproduces bit-exact predictions, which tests/core/test_serialize.cpp
// asserts. The MEMHD001 and MEMHD002 revisions, and a derivation byte of 1
// (the retired sequential stream), throw std::runtime_error naming what is
// unsupported. A cascade mode byte of 0 (the retired exact mode, whose
// contract was the exhaustive argmax) loads with the cascade disabled.
//
// The stream overloads exist so this record can be embedded in a larger
// container — the tagged api:: model format (src/api/classifier.hpp) writes
// its own header and then delegates the MEMHD payload here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace memhd::hdc {
enum class BasisKind : std::uint8_t;  // src/hdc/basis_provider.hpp
}  // namespace memhd::hdc

namespace memhd::core {

class MemhdModel;

/// Writes `model` (must be fitted) to `path` / onto a binary stream.
/// Throws std::runtime_error on I/O errors.
void save_model(const MemhdModel& model, const std::string& path);
void save_model(const MemhdModel& model, std::ostream& out);

/// Reads a model written by save_model. Throws std::runtime_error on
/// malformed input.
MemhdModel load_model(const std::string& path);
MemhdModel load_model(std::istream& in);

/// The two basis bytes of the MEMHD003 header and the MHDAPI03 baseline
/// frame: the basis kind, then the derivation byte, always 0 (the counter
/// stream).
void write_basis_bytes(std::ostream& out, hdc::BasisKind kind);
/// Reads the two basis bytes back. A derivation byte of 1 (the sequential
/// stream of pre-basis-seam models) and any value no writer emits throw
/// std::runtime_error, its message prefixed with `reader`.
hdc::BasisKind read_basis_bytes(std::istream& in, const char* reader);

}  // namespace memhd::core
