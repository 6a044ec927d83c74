// The tagged api:: model container.
//
// Layout (host byte order; see src/common/io.hpp):
//   magic "MHDAPI03"
//   u8  core::ModelKind
//   --- kind == kMemhd: the core record (src/core/serialize.cpp, own magic)
//   --- otherwise: the generic baseline frame
//       u64 dim, epochs, num_levels, n_models, seed, num_features,
//           num_classes; f32 learning_rate; u8 basis; u8 basis derivation
//           (always 0, the counter stream)
//       then BaselineModel::save_state payload (trained tensors only; the
//       encoders are deterministic in the config and rebuilt on load)
//
// Revision history: MHDAPI01 was the pre-basis-seam layout (no basis bytes);
// its reader is gone and its magic throws "unsupported container revision".
// "MHDAPI02" was never an api container revision — the online ModelStore
// container (src/online/store_io.cpp) uses that magic — so the revision
// skips to 03.
//
// One format for five model kinds means a serving process can reload
// whatever the training job produced without knowing the kind up front —
// api::load dispatches on the tag and hands back the Classifier interface.
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/api/adapters.hpp"
#include "src/common/io.hpp"
#include "src/core/serialize.hpp"

namespace memhd::api {

using common::read_pod;
using common::write_pod;

namespace {
constexpr char kMagic[8] = {'M', 'H', 'D', 'A', 'P', 'I', '0', '3'};
constexpr char kRetiredMagic[8] = {'M', 'H', 'D', 'A', 'P', 'I', '0', '1'};
}  // namespace

void save(const Classifier& classifier, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(classifier.kind()));
  classifier.save_payload(out);
  if (!out) throw std::runtime_error("api::save: write failed");
}

void save(const Classifier& classifier, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("api::save: cannot open " + path);
  save(classifier, out);
  if (!out) throw std::runtime_error("api::save: write failed for " + path);
}

std::unique_ptr<Classifier> load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in) throw std::runtime_error("api::load: bad magic");
  if (std::memcmp(magic, kRetiredMagic, sizeof(kRetiredMagic)) == 0)
    throw std::runtime_error(
        "api::load: unsupported container revision MHDAPI01");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("api::load: bad magic");

  const auto tag = read_pod<std::uint8_t>(in);
  if (tag > static_cast<std::uint8_t>(core::ModelKind::kMemhd))
    throw std::runtime_error("api::load: unknown model kind tag");
  const auto kind = static_cast<core::ModelKind>(tag);

  // The embedded core record carries its own magic.
  if (kind == core::ModelKind::kMemhd)
    return std::make_unique<MemhdClassifier>(core::load_model(in));
  return BaselineClassifier::load_payload(kind, in);
}

std::unique_ptr<Classifier> load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("api::load: cannot open " + path);
  try {
    return load(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

}  // namespace memhd::api
