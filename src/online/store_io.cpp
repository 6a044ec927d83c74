// Versioned store container ("MHDAPI02").
//
//   magic "MHDAPI02"
//   u32  version count (>= 1)
//   u64  current version id
//   u64  next id to assign
//   then per retained version, ascending id:
//     u64 id, u64 parent, u64 samples_trained
//     one tagged api::save frame (self-delimiting; api::load consumes it)
//
// The single-model api container ("MHDAPI03") is untouched, and embedding
// whole api::save frames here means one reader serves both layers.
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/io.hpp"
#include "src/online/model_store.hpp"

namespace memhd::online {

namespace {

using common::read_pod;
using common::write_pod;

constexpr char kMagic[8] = {'M', 'H', 'D', 'A', 'P', 'I', '0', '2'};

}  // namespace

void save_store(const ModelStore& store, std::ostream& out) {
  // One consistent cut of the store state: serialize the models OUTSIDE the
  // state lock (shared_ptr snapshots keep them frozen), metadata from the
  // same cut.
  std::vector<std::pair<VersionId, ModelStore::Snapshot>> versions;
  VersionId current = 0;
  VersionId next_id = 0;
  {
    common::MutexLock lock(store.mutex_);
    versions.assign(store.versions_.begin(), store.versions_.end());
    current = store.current_;
    next_id = store.next_id_;
  }
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(versions.size()));
  write_pod<std::uint64_t>(out, current);
  write_pod<std::uint64_t>(out, next_id);
  for (const auto& [id, snapshot] : versions) {
    write_pod<std::uint64_t>(out, id);
    write_pod<std::uint64_t>(out, snapshot.parent);
    write_pod<std::uint64_t>(out, snapshot.samples_trained);
    api::save(*snapshot.model, out);
  }
  if (!out) throw std::runtime_error("online store stream: write failed");
}

std::unique_ptr<ModelStore> load_store(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(magic)) != 0)
    throw std::runtime_error("online store stream: bad magic");
  const auto count = read_pod<std::uint32_t>(in);
  if (count == 0)
    throw std::runtime_error("online store stream: empty store");
  const auto current = read_pod<std::uint64_t>(in);
  const auto next_id = read_pod<std::uint64_t>(in);

  std::unique_ptr<ModelStore> store(new ModelStore());
  // Uncontended (the store is private to this function until returned);
  // taken so the guarded writes satisfy the capability analysis.
  common::MutexLock lock(store->mutex_);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = read_pod<std::uint64_t>(in);
    ModelStore::Snapshot snapshot;
    snapshot.parent = read_pod<std::uint64_t>(in);
    snapshot.samples_trained = read_pod<std::uint64_t>(in);
    snapshot.model =
        std::shared_ptr<const api::Classifier>(api::load(in));
    if (!store->versions_.emplace(id, std::move(snapshot)).second)
      throw std::runtime_error("online store stream: duplicate version id");
    if (id >= next_id)
      throw std::runtime_error("online store stream: id beyond next_id");
  }
  if (store->versions_.find(current) == store->versions_.end())
    throw std::runtime_error("online store stream: current id not retained");
  store->current_ = current;
  store->next_id_ = next_id;
  store->num_features_ =
      store->versions_.begin()->second.model->num_features();
  // max_versions stays at its default; it is a runtime retention policy,
  // not part of the persisted lineage.
  return store;
}

void save_store(const ModelStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("online store: cannot open for write: " + path);
  save_store(store, out);
}

std::unique_ptr<ModelStore> load_store(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("online store: cannot open: " + path);
  return load_store(in);
}

}  // namespace memhd::online
