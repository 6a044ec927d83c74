// The cascade threaded through the model stack: MemhdModel batch paths,
// api::Classifier knobs (predict == predict_batch even in threshold mode),
// MHDAPI/MEMHD003 serialization of the config, accuracy on a fitted model,
// and the hot-swap hammer with per-shard pinned prescreen planes.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/batch_server.hpp"
#include "src/api/registry.hpp"
#include "src/core/model.hpp"
#include "src/core/serialize.hpp"
#include "src/online/model_store.hpp"
#include "src/search/cascade.hpp"
#include "test_util.hpp"

namespace memhd::search {
namespace {

core::MemhdConfig cascade_config() {
  core::MemhdConfig cfg;
  cfg.dim = 512;
  cfg.columns = 24;
  cfg.epochs = 3;
  cfg.seed = 11;
  cfg.cascade.enabled = true;
  cfg.cascade.sample_fraction = 0.5;
  cfg.cascade.shortlist = 16;
  return cfg;
}

TEST(CascadeModel, PredictMatchesPredictBatchInThresholdMode) {
  // The api contract: per-sample predict must route through the SAME
  // search engine as the batch path — in threshold mode the shortlist is
  // part of the answer, so a predict() that bypassed the cascade would
  // diverge.
  const auto split = testing::tiny_multimodal();
  const auto cfg = cascade_config();
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train);
  const auto batch = model.predict_batch(split.test.features());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    ASSERT_EQ(model.predict(split.test.sample(i)), batch[i]) << "row " << i;
}

TEST(CascadeModel, ThresholdAccuracyWithinHalfPercent) {
  // The acceptance bar on a fitted model: threshold-mode evaluation within
  // 0.5% of exhaustive on held-out data.
  const auto split = testing::tiny_hard_multimodal();
  auto cfg = cascade_config();
  cfg.cascade.sample_fraction = 0.125;
  core::MemhdModel with(cfg, split.train.num_features(),
                        split.train.num_classes());
  with.fit(split.train);
  cfg.cascade.enabled = false;
  core::MemhdModel without(cfg, split.train.num_features(),
                           split.train.num_classes());
  without.fit(split.train);
  const double delta =
      without.evaluate(split.test) - with.evaluate(split.test);
  EXPECT_LE(delta, 0.005);
}

TEST(CascadeModel, RefreshAfterOnlineUpdates) {
  // partial_fit that mutates (or extends) the AM must rebuild the searcher:
  // the model's own cascade predictions stay consistent with a fresh
  // exhaustive model of the same state.
  const auto split = testing::tiny_multimodal();
  auto cfg = cascade_config();
  cfg.cascade.shortlist = cfg.columns;  // covers the plane: exact
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train);
  const auto* before = model.cascade();
  ASSERT_NE(before, nullptr);

  model.partial_fit(split.test.features(), split.test.labels());
  ASSERT_NE(model.cascade(), nullptr);
  ASSERT_EQ(model.am().columns(), cfg.cascade.shortlist);
  // The covering shortlist is exact against the POST-update AM only if
  // the searcher was rebuilt over it.
  common::BatchScorer fresh(model.am().binary());
  const auto encoded = model.encoder().encode_batch(split.test.features());
  std::vector<std::uint32_t> want, got;
  fresh.dot_argmax(std::span<const common::BitVector>(encoded), want);
  model.cascade()->dot_argmax(std::span<const common::BitVector>(encoded),
                              got);
  EXPECT_EQ(got, want);
}

TEST(CascadeModel, SerializeRoundTripsCascadeConfig) {
  const auto split = testing::tiny_multimodal();
  auto cfg = cascade_config();
  cfg.cascade.sample_fraction = 0.375;
  cfg.cascade.shortlist = 9;
  cfg.cascade.early_exit_margin = 5;
  cfg.cascade.seed = 0xFEEDULL;
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train);

  const std::string path = testing::temp_path("memhd_cascade.model");
  model.save(path);
  const core::MemhdModel loaded = core::MemhdModel::load(path);
  std::remove(path.c_str());

  const auto& c = loaded.config().cascade;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.sample_fraction, 0.375);
  EXPECT_EQ(c.shortlist, 9u);
  EXPECT_EQ(c.early_exit_margin, 5u);
  EXPECT_EQ(c.seed, 0xFEEDULL);
  // The searcher is rebuilt on load and re-derives the SAME prescreen
  // plane (word sampling is a pure function of the persisted config), so
  // threshold-mode answers round-trip bit-exactly too.
  ASSERT_NE(loaded.cascade(), nullptr);
  EXPECT_EQ(loaded.cascade()->sampled_words(),
            model.cascade()->sampled_words());
  EXPECT_EQ(loaded.predict_batch(split.test.features()),
            model.predict_batch(split.test.features()));
}

TEST(CascadeModel, DisabledConfigRoundTripsDisabled) {
  const auto split = testing::tiny_separable();
  auto cfg = cascade_config();
  cfg.cascade.enabled = false;
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train);
  const std::string path = testing::temp_path("memhd_nocascade.model");
  model.save(path);
  const core::MemhdModel loaded = core::MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.config().cascade.enabled);
  EXPECT_EQ(loaded.cascade(), nullptr);
}

TEST(CascadeModel, RetiredExactModeByteLoadsDisabled) {
  // A MEMHD003 file whose cascade mode byte is 0 was saved in the retired
  // exact mode. Its contract was the exhaustive argmax, so it loads with
  // the cascade disabled and predicts exactly like a cascade-off fit.
  const auto split = testing::tiny_multimodal();
  auto cfg = cascade_config();
  core::MemhdModel model(cfg, split.train.num_features(),
                         split.train.num_classes());
  model.fit(split.train);
  const std::string path = testing::temp_path("memhd_exact_mode.model");
  model.save(path);
  {
    // Offset 81 is the enabled byte, 82 the mode byte.
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(82);
    io.put(0);
  }
  const core::MemhdModel loaded = core::MemhdModel::load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.config().cascade.enabled);
  EXPECT_EQ(loaded.cascade(), nullptr);

  cfg.cascade.enabled = false;
  core::MemhdModel exhaustive(cfg, split.train.num_features(),
                              split.train.num_classes());
  exhaustive.fit(split.train);
  EXPECT_EQ(loaded.predict_batch(split.test.features()),
            exhaustive.predict_batch(split.test.features()));
}

TEST(CascadeApi, ClassifierKnobsReachTheModelAndSurviveSaveLoad) {
  const auto split = testing::tiny_multimodal();
  api::ModelOptions opts;
  opts.dim = 512;
  opts.columns = 24;
  opts.epochs = 2;
  opts.seed = 3;
  opts.cascade = true;
  opts.cascade_sample_fraction = 0.5;
  opts.cascade_shortlist = opts.columns;  // covers the plane: exact
  auto clf = api::make("memhd", split.train.num_features(),
                       split.train.num_classes(), opts);
  clf->fit(split.train);

  // predict == predict_batch per row (the registry-wide contract).
  const auto batch = clf->predict_batch(split.test.features());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    ASSERT_EQ(clf->predict(split.test.sample(i)), batch[i]);

  const std::string path = testing::temp_path("memhd_cascade_api.model");
  clf->save(path);
  const auto loaded = api::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded->predict_batch(split.test.features()), batch);
}

TEST(CascadeApi, HotSwapHammerWithShardedPrescreenPlanes) {
  // The satellite contract: per-shard pinned prescreen planes never tear a
  // batch. Cascade-enabled versions are swapped under live sharded traffic;
  // every response must be bit-equal to some published version's answer.
  const auto split = testing::tiny_multimodal(/*seed=*/53,
                                              /*train_per_class=*/50,
                                              /*test_per_class=*/20);
  api::ModelOptions opts;
  opts.dim = 256;
  opts.columns = 16;
  opts.epochs = 2;
  opts.seed = 7;
  opts.cascade = true;
  opts.cascade_sample_fraction = 0.5;
  opts.cascade_shortlist = 8;
  auto model = api::make("memhd", split.train.num_features(),
                         split.train.num_classes(), opts);
  model->fit(split.train);

  auto store = std::make_shared<online::ModelStore>(std::move(model));
  store->partial_fit(split.test.features(), split.test.labels());
  const online::VersionId v1 = store->publish();
  store->partial_fit(split.train.features(), split.train.labels());
  const online::VersionId v2 = store->publish();
  const std::vector<online::VersionId> versions{0, v1, v2};

  const common::Matrix& probes = split.test.features();
  std::vector<std::vector<data::Label>> expected;
  for (const auto id : versions) {
    store->swap(id);
    expected.push_back(store->pin().model->predict_batch(probes));
  }

  api::BatchServerOptions options;
  options.max_batch = 16;
  options.shards = 2;
  options.shard_quantum = 4;
  api::BatchServer server(store, options);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      store->swap(versions[i++ % versions.size()]);
  });

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 15;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t iter = 0; iter < kIters; ++iter) {
        for (std::size_t row = t; row < probes.rows(); row += kThreads) {
          const data::Label got = server.submit(probes.row(row)).get();
          bool known = false;
          for (std::size_t v = 0; v < versions.size(); ++v)
            known |= (expected[v][row] == got);
          if (!known) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  swapper.join();
  server.drain();

  EXPECT_EQ(mismatches.load(), 0u)
      << "a response matched NO version — a shard tore a batch across "
         "prescreen planes";
}

}  // namespace
}  // namespace memhd::search
