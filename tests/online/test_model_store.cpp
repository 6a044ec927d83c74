// ModelStore: COW versioning semantics, swap/rollback, retention, the
// MHDAPI02 lineage round-trip (bit-identical per version), and how a
// single-model api::save file relates to the store container.
#include "src/online/model_store.hpp"

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.hpp"
#include "src/api/registry.hpp"
#include "test_util.hpp"

namespace memhd::online {
namespace {

struct Fixture {
  data::TrainTestSplit split;
  std::vector<data::Label> v0_direct;

  Fixture() : split(testing::tiny_multimodal(/*seed=*/19,
                                             /*train_per_class=*/50,
                                             /*test_per_class=*/25)) {}

  std::unique_ptr<api::Classifier> fitted() const {
    api::ModelOptions opts;
    opts.dim = 256;
    opts.columns = 16;
    opts.epochs = 2;
    opts.seed = 9;
    auto model = api::make("memhd", split.train.num_features(),
                           split.train.num_classes(), opts);
    model->fit(split.train);
    return model;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(ModelStore, PublishesV0AndPinsIt) {
  const auto& f = fixture();
  ModelStore store(f.fitted());
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.has_pending());
  const auto pinned = store.pin();
  EXPECT_EQ(pinned.version, 0u);
  ASSERT_NE(pinned.model, nullptr);
  EXPECT_TRUE(pinned.model->fitted());
  EXPECT_THROW(store.publish(), std::logic_error);  // nothing pending
}

TEST(ModelStore, PartialFitIsInvisibleUntilPublish) {
  const auto& f = fixture();
  ModelStore store(f.fitted());
  const auto pinned_before = store.pin();
  const auto baseline =
      pinned_before.model->predict_batch(f.split.test.features());

  store.partial_fit(f.split.test.features(), f.split.test.labels());
  EXPECT_TRUE(store.has_pending());
  // Still serving v0, bit-identically: the working copy is private.
  const auto pinned_mid = store.pin();
  EXPECT_EQ(pinned_mid.version, 0u);
  EXPECT_EQ(pinned_mid.model->predict_batch(f.split.test.features()),
            baseline);

  const VersionId v1 = store.publish();
  EXPECT_EQ(v1, 1u);
  EXPECT_FALSE(store.has_pending());
  EXPECT_EQ(store.current_version(), v1);
  // The old pin is still alive and still v0's answers (immutability).
  EXPECT_EQ(pinned_before.model->predict_batch(f.split.test.features()),
            baseline);
}

TEST(ModelStore, SwapAndRollbackMoveTheCurrentPointer) {
  const auto& f = fixture();
  ModelStore store(f.fitted());
  store.partial_fit(f.split.test.features(), f.split.test.labels());
  const VersionId v1 = store.publish();
  store.partial_fit(f.split.train.features(), f.split.train.labels());
  const VersionId v2 = store.publish();
  EXPECT_EQ(store.current_version(), v2);

  store.swap(0);
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.pin().version, 0u);
  store.swap(v2);
  store.rollback();  // v2's parent is v1
  EXPECT_EQ(store.current_version(), v1);
  store.rollback();  // v1's parent is v0
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_THROW(store.rollback(), std::logic_error);  // root
  EXPECT_THROW(store.swap(99), UnknownVersionError);

  const auto stats = store.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].id, 0u);
  EXPECT_TRUE(stats[0].current);
  EXPECT_EQ(stats[1].parent, 0u);
  EXPECT_EQ(stats[2].parent, v1);
  EXPECT_EQ(stats[1].samples_trained, f.split.test.size());
  EXPECT_EQ(stats[2].samples_trained,
            f.split.test.size() + f.split.train.size());
}

TEST(ModelStore, PrunesOldestNonCurrentBeyondMaxVersions) {
  const auto& f = fixture();
  ModelStoreOptions options;
  options.max_versions = 2;
  ModelStore store(f.fitted(), options);
  // Keep an external pin on v0: pruning must not invalidate it.
  const auto pinned_v0 = store.pin();
  const auto v0_answers =
      pinned_v0.model->predict_batch(f.split.test.features());

  store.partial_fit(f.split.test.features(), f.split.test.labels());
  store.publish();  // v1 -> {v0, v1}
  store.partial_fit(f.split.test.features(), f.split.test.labels());
  store.publish();  // v2 -> v0 pruned, {v1, v2}
  EXPECT_EQ(store.size(), 2u);
  EXPECT_THROW(store.swap(0), UnknownVersionError);
  // The in-flight pin outlives the prune.
  EXPECT_EQ(pinned_v0.model->predict_batch(f.split.test.features()),
            v0_answers);
  // note_scored on a pruned version is silently ignored.
  store.note_scored(0, 17);
}

TEST(ModelStore, LineageRoundTripsBitIdentically) {
  const auto& f = fixture();
  ModelStore store(f.fitted());
  store.partial_fit(f.split.test.features(), f.split.test.labels());
  const VersionId v1 = store.publish();
  store.partial_fit(f.split.train.features(), f.split.train.labels());
  const VersionId v2 = store.publish();
  store.swap(v1);  // persist a non-tip current pointer too

  std::stringstream stream;
  save_store(store, stream);
  const auto loaded = load_store(stream);

  EXPECT_EQ(loaded->current_version(), v1);
  EXPECT_EQ(loaded->size(), 3u);
  const auto before = store.stats();
  const auto after = loaded->stats();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].id, after[i].id);
    EXPECT_EQ(before[i].parent, after[i].parent);
    EXPECT_EQ(before[i].current, after[i].current);
    EXPECT_EQ(before[i].samples_trained, after[i].samples_trained);
    EXPECT_EQ(after[i].batches_served, 0u);  // counters reset on load
  }

  // Every version predicts bit-identically to its pre-save self.
  for (const VersionId id : {VersionId{0}, v1, v2}) {
    store.swap(id);
    loaded->swap(id);
    EXPECT_EQ(loaded->pin().model->predict_batch(f.split.test.features()),
              store.pin().model->predict_batch(f.split.test.features()))
        << "version " << id;
  }

  // A published version trained past the deployed class space survives the
  // round trip too (extended models re-serialize their grown shape).
  std::vector<data::Label> shifted(f.split.test.labels());
  for (auto& l : shifted)
    l = static_cast<data::Label>(l + f.split.test.num_classes());
  loaded->partial_fit(f.split.test.features(), shifted);
  const auto v3 = loaded->publish();
  std::stringstream stream2;
  save_store(*loaded, stream2);
  const auto reloaded = load_store(stream2);
  EXPECT_EQ(reloaded->current_version(), v3);
  EXPECT_EQ(reloaded->pin().model->predict_batch(f.split.test.features()),
            loaded->pin().model->predict_batch(f.split.test.features()));
}

TEST(ModelStore, SingleModelFileSeedsAStoreButIsNotOne) {
  // A single-model MHDAPI03 file written by api::save loads through
  // api::load — the MHDAPI02 store container did not disturb it — and can
  // seed a fresh store as v0.
  const auto& f = fixture();
  auto model = f.fitted();
  const auto direct = model->predict_batch(f.split.test.features());
  std::stringstream stream;
  api::save(*model, stream);
  auto back = api::load(stream);
  EXPECT_EQ(back->predict_batch(f.split.test.features()), direct);

  ModelStore store(std::move(back));
  EXPECT_EQ(store.pin().model->predict_batch(f.split.test.features()),
            direct);
  // And the store container rejects a bare model file (distinct magics).
  std::stringstream stream2;
  api::save(*model, stream2);
  EXPECT_THROW(load_store(stream2), std::runtime_error);
}

TEST(ModelStore, RematVersionsShareSeedOnlyEncoderAndHotSwap) {
  // With a rematerialized basis, every COW version's "shared encoder
  // plane" is nothing heavier than a seed: publishing versions adds AM
  // copies only, and a store round trip reconstructs the same seed-only
  // encoders.
  const auto& f = fixture();
  api::ModelOptions opts;
  opts.dim = 256;
  opts.columns = 16;
  opts.epochs = 2;
  opts.seed = 9;
  opts.basis = hdc::BasisKind::kRematerialized;
  auto model = api::make("memhd", f.split.train.num_features(),
                         f.split.train.num_classes(), opts);
  model->fit(f.split.train);

  // Same options, materialized: identical predictions (the basis knob
  // never changes outputs, even through the api registry path).
  auto mopts = opts;
  mopts.basis = hdc::BasisKind::kMaterialized;
  auto mat = api::make("memhd", f.split.train.num_features(),
                       f.split.train.num_classes(), mopts);
  mat->fit(f.split.train);
  const auto direct = model->predict_batch(f.split.test.features());
  EXPECT_EQ(mat->predict_batch(f.split.test.features()), direct);

  ModelStore store(std::move(model));
  store.partial_fit(f.split.test.features(), f.split.test.labels());
  const VersionId v1 = store.publish();

  // Every version holds a seed-only encoder plane; the versions share it
  // by construction (COW clones share the encoder shared_ptr).
  for (const VersionId id : {VersionId{0}, v1}) {
    store.swap(id);
    const auto pinned = store.pin();
    const auto* memhd =
        dynamic_cast<const api::MemhdClassifier*>(pinned.model.get());
    ASSERT_NE(memhd, nullptr);
    EXPECT_EQ(memhd->model().config().basis,
              hdc::BasisKind::kRematerialized);
    EXPECT_LE(memhd->model().encoder().resident_bytes(), 64u);
  }

  // Hot swap + store persistence round trip, still seed-only.
  std::stringstream stream;
  save_store(store, stream);
  const auto loaded = load_store(stream);
  EXPECT_EQ(loaded->current_version(), v1);
  for (const VersionId id : {VersionId{0}, v1}) {
    store.swap(id);
    loaded->swap(id);
    EXPECT_EQ(loaded->pin().model->predict_batch(f.split.test.features()),
              store.pin().model->predict_batch(f.split.test.features()));
    const auto* memhd = dynamic_cast<const api::MemhdClassifier*>(
        loaded->pin().model.get());
    ASSERT_NE(memhd, nullptr);
    EXPECT_LE(memhd->model().encoder().resident_bytes(), 64u);
  }
  EXPECT_EQ(loaded->pin().model->predict_batch(f.split.test.features()),
            direct);
}

TEST(ModelStore, NoteScoredAccumulatesPerVersion) {
  const auto& f = fixture();
  ModelStore store(f.fitted());
  store.partial_fit(f.split.test.features(), f.split.test.labels());
  const VersionId v1 = store.publish();
  store.note_scored(0, 10);
  store.note_scored(v1, 5);
  store.note_scored(v1, 7);
  const auto stats = store.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].batches_served, 1u);
  EXPECT_EQ(stats[0].rows_served, 10u);
  EXPECT_EQ(stats[1].batches_served, 2u);
  EXPECT_EQ(stats[1].rows_served, 12u);
}

}  // namespace
}  // namespace memhd::online
