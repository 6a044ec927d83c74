#include "src/core/serialize.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/common/assert.hpp"
#include "src/common/io.hpp"
#include "src/core/model.hpp"

namespace memhd::core {

using common::read_pod;
using common::write_pod;

namespace {
// The only container revision read or written. The projection matrix is
// never stored: the loader re-derives it from {seed, shape}.
constexpr char kMagic[8] = {'M', 'E', 'M', 'H', 'D', '0', '0', '3'};
// Revisions whose readers were removed: MEMHD001 (no basis bytes) and
// MEMHD002 (no cascade block). No model file in the repository uses them.
constexpr const char* kRetiredMagics[] = {"MEMHD001", "MEMHD002"};
// The derivation byte after the basis kind is always 0, the counter
// stream. A 1 marks the sequential stream of pre-basis-seam models, which
// no longer loads.
constexpr std::uint8_t kDerivationCounter = 0;
constexpr std::uint8_t kDerivationSequential = 1;
// The cascade block's mode byte. Threshold is the only mode; 0 marks a
// model saved in the retired exact mode, whose contract was the exhaustive
// argmax, so it loads with the cascade disabled.
constexpr std::uint8_t kCascadeModeExact = 0;
constexpr std::uint8_t kCascadeModeThreshold = 1;
}  // namespace

void save_model(const MemhdModel& model, std::ostream& out) {
  const MemhdConfig& cfg = model.config();
  const MultiCentroidAM& am = model.am();

  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(out, cfg.dim);
  write_pod<std::uint64_t>(out, cfg.columns);
  write_pod<std::uint64_t>(out, model.num_features());
  write_pod<std::uint64_t>(out, model.num_classes());
  write_pod<std::uint64_t>(out, cfg.epochs);
  write_pod<std::uint64_t>(out, cfg.kmeans_max_iterations);
  write_pod<std::uint64_t>(out, cfg.seed);
  write_pod<double>(out, cfg.initial_ratio);
  write_pod<float>(out, cfg.learning_rate);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.init));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.allocation));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.normalization));
  write_basis_bytes(out, cfg.basis);
  write_pod<std::uint8_t>(out, cfg.cascade.enabled ? 1 : 0);
  write_pod<std::uint8_t>(out, kCascadeModeThreshold);
  write_pod<double>(out, cfg.cascade.sample_fraction);
  write_pod<std::uint64_t>(out, cfg.cascade.shortlist);
  write_pod<std::uint64_t>(out, cfg.cascade.early_exit_margin);
  write_pod<std::uint64_t>(out, cfg.cascade.seed);

  for (std::size_t col = 0; col < am.columns(); ++col)
    write_pod<std::uint16_t>(out, am.owner(col));

  common::write_matrix(out, am.fp());
  common::write_bit_matrix(out, am.binary());
  if (!out) throw std::runtime_error("save_model: write failed");
}

void save_model(const MemhdModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_model: cannot open " + path);
  save_model(model, out);
  if (!out) throw std::runtime_error("save_model: write failed for " + path);
}

MemhdModel load_model(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in) throw std::runtime_error("load_model: bad magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    for (const char* retired : kRetiredMagics)
      if (std::memcmp(magic, retired, sizeof(magic)) == 0)
        throw std::runtime_error(
            std::string("load_model: unsupported container revision ") +
            retired);
    throw std::runtime_error("load_model: bad magic");
  }

  MemhdConfig cfg;
  cfg.dim = read_pod<std::uint64_t>(in);
  cfg.columns = read_pod<std::uint64_t>(in);
  const auto num_features = read_pod<std::uint64_t>(in);
  const auto num_classes = read_pod<std::uint64_t>(in);
  cfg.epochs = read_pod<std::uint64_t>(in);
  cfg.kmeans_max_iterations = read_pod<std::uint64_t>(in);
  cfg.seed = read_pod<std::uint64_t>(in);
  cfg.initial_ratio = read_pod<double>(in);
  cfg.learning_rate = read_pod<float>(in);
  cfg.init = static_cast<InitMethod>(read_pod<std::uint8_t>(in));
  cfg.allocation = static_cast<AllocationPolicy>(read_pod<std::uint8_t>(in));
  cfg.normalization =
      static_cast<NormalizationMode>(read_pod<std::uint8_t>(in));
  cfg.basis = read_basis_bytes(in, "load_model");

  const auto enabled = read_pod<std::uint8_t>(in);
  const auto mode = read_pod<std::uint8_t>(in);
  cfg.cascade.sample_fraction = read_pod<double>(in);
  cfg.cascade.shortlist = read_pod<std::uint64_t>(in);
  cfg.cascade.early_exit_margin = read_pod<std::uint64_t>(in);
  cfg.cascade.seed = read_pod<std::uint64_t>(in);
  // The same corrupt-header discipline as the basis bytes: reject values
  // no writer emits before they reach the searcher's contract checks.
  const bool cascade_sane =
      enabled <= 1 && mode <= kCascadeModeThreshold &&
      cfg.cascade.sample_fraction > 0.0 &&
      cfg.cascade.sample_fraction <= 1.0 && cfg.cascade.shortlist >= 1 &&
      cfg.cascade.shortlist <= (1ULL << 24);
  if (!cascade_sane)
    throw std::runtime_error("load_model: corrupt cascade config");
  cfg.cascade.enabled = enabled != 0 && mode != kCascadeModeExact;

  // Reject corrupt headers before they reach constructor contract checks
  // (which abort) or drive multi-GB allocations.
  constexpr std::uint64_t kShapeCap = 1ULL << 24;
  const bool sane = cfg.dim >= 1 && cfg.dim <= kShapeCap &&
                    cfg.columns <= kShapeCap && num_features >= 1 &&
                    num_features <= kShapeCap && num_classes >= 2 &&
                    num_classes <= kShapeCap && cfg.columns >= num_classes;
  if (!sane) throw std::runtime_error("load_model: corrupt model header");

  MemhdModel model(cfg, num_features, num_classes);

  std::vector<std::uint16_t> owners(cfg.columns);
  for (auto& o : owners) o = read_pod<std::uint16_t>(in);

  const common::Matrix fp = common::read_matrix(in, cfg.columns, cfg.dim);
  const common::BitMatrix bin =
      common::read_bit_matrix(in, cfg.columns, cfg.dim);

  auto am = std::make_unique<MultiCentroidAM>(num_classes, cfg.dim,
                                              cfg.columns);
  for (std::size_t col = 0; col < cfg.columns; ++col) {
    if (owners[col] >= num_classes)
      throw std::runtime_error("load_model: bad centroid owner");
    am->set_centroid(col, static_cast<data::Label>(owners[col]),
                     fp.row(col));
  }
  am->restore_binary(bin);
  model.am_ = std::move(am);
  model.refresh_cascade();
  return model;
}

void write_basis_bytes(std::ostream& out, hdc::BasisKind kind) {
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(kind));
  write_pod<std::uint8_t>(out, kDerivationCounter);
}

hdc::BasisKind read_basis_bytes(std::istream& in, const char* reader) {
  const auto kind = read_pod<std::uint8_t>(in);
  const auto derivation = read_pod<std::uint8_t>(in);
  if (derivation == kDerivationSequential)
    throw std::runtime_error(
        std::string(reader) +
        ": unsupported basis derivation (sequential stream)");
  if (kind > static_cast<std::uint8_t>(hdc::BasisKind::kRematerialized) ||
      derivation != kDerivationCounter)
    throw std::runtime_error(std::string(reader) + ": corrupt basis bytes");
  return static_cast<hdc::BasisKind>(kind);
}

MemhdModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  try {
    return load_model(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

}  // namespace memhd::core
