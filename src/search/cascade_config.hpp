// Configuration of the coarse-to-fine associative search cascade.
//
// Split from cascade.hpp so that core::MemhdConfig (and everything built on
// it — options, serialization) can carry the knobs without pulling the
// batch-scoring machinery into every config include.
#pragma once

#include <cstddef>
#include <cstdint>

namespace memhd::search {

/// Knobs for the two-stage search. Persisted verbatim in model containers
/// (MEMHD003), so a loaded model searches exactly like the saved one.
struct CascadeConfig {
  /// Off by default: every model keeps exhaustive scoring unless asked.
  bool enabled = false;
  /// Fraction of the packed 64-bit words each query is prescreened on
  /// (word-granular so the packed kernels serve the sub-plane unchanged).
  /// Clamped to at least one word; 1.0 degenerates to exhaustive scoring.
  double sample_fraction = 0.125;
  /// Stage-2 candidates per query: the top-`shortlist` prescreen rows are
  /// rescored exactly. With the early exit off, a shortlist covering every
  /// row is exact.
  std::size_t shortlist = 64;
  /// When > 0, accept the prescreen winner without any stage-2 rescore if
  /// its sub-score leads the runner-up by at least this many bits — the
  /// confidence early exit. 0 disables it.
  std::size_t early_exit_margin = 0;
  /// Seed of the deterministic word-sampling permutation. Persisted, so the
  /// prescreen plane of a reloaded model samples the same words.
  std::uint64_t seed = 0xC05CADEULL;
};

}  // namespace memhd::search
