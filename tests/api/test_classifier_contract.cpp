// The registry-wide Classifier contract: every model api::make can build
// must (a) predict_batch bit-identically to per-sample predict, and
// (b) round-trip through the tagged save/load format bit-exactly.
#include "src/api/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.hpp"
#include "test_util.hpp"

namespace memhd::api {
namespace {

/// Small-but-trainable options per model kind (the shared synthetic task
/// has 64 features and 4 classes).
api::ModelOptions small_options(core::ModelKind kind) {
  api::ModelOptions opts;
  opts.dim = 256;
  opts.epochs = 3;
  opts.num_levels = 16;
  opts.n_models = 4;
  opts.seed = 9;
  switch (kind) {
    case core::ModelKind::kMemhd:
      opts.columns = 16;
      break;
    case core::ModelKind::kBasicHDC:
      opts.epochs = 0;  // the paper's BasicHDC row is single-pass
      break;
    case core::ModelKind::kLeHDC:
      opts.epochs = 2;
      opts.learning_rate = 0.01f;
      break;
    default:
      break;
  }
  return opts;
}

class RegistryContract : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryContract, BatchIsBitIdenticalToPerSamplePredict) {
  const auto split = testing::tiny_multimodal(/*seed=*/21,
                                              /*train_per_class=*/40,
                                              /*test_per_class=*/20);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  EXPECT_FALSE(model->fitted());
  model->fit(split.train);
  ASSERT_TRUE(model->fitted());
  EXPECT_EQ(model->kind(), info->kind);

  const auto batched = model->predict_batch(split.test.features());
  ASSERT_EQ(batched.size(), split.test.size());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    EXPECT_EQ(batched[i], model->predict(split.test.sample(i)))
        << model->name() << " row " << i;
}

TEST_P(RegistryContract, SaveLoadRoundTripsBitExactly) {
  const auto split = testing::tiny_multimodal(/*seed=*/22,
                                              /*train_per_class=*/40,
                                              /*test_per_class=*/20);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);

  const std::string path =
      testing::temp_path("api_roundtrip_" + GetParam() + ".mhd");
  model->save(path);
  const auto reloaded = api::load(path);
  std::remove(path.c_str());

  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->kind(), model->kind());
  EXPECT_TRUE(reloaded->fitted());
  EXPECT_EQ(reloaded->num_features(), model->num_features());
  EXPECT_EQ(reloaded->num_classes(), model->num_classes());
  EXPECT_EQ(reloaded->dim(), model->dim());

  EXPECT_EQ(reloaded->predict_batch(split.test.features()),
            model->predict_batch(split.test.features()))
      << model->name();
  EXPECT_DOUBLE_EQ(reloaded->evaluate(split.test), model->evaluate(split.test));
}

TEST_P(RegistryContract, ScoresBatchHasScoreRowsPerQuery) {
  const auto split = testing::tiny_multimodal(/*seed=*/23,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/10);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);

  ASSERT_GE(model->score_rows(), split.train.num_classes());
  std::vector<std::uint32_t> scores;
  model->scores_batch(split.test.features(), scores);
  EXPECT_EQ(scores.size(), split.test.size() * model->score_rows());
}

TEST_P(RegistryContract, PredictBatchIntoMatchesPredictBatch) {
  // The serve-path hook: with and without a pinned context — and with the
  // SAME context reused across calls, the BatchServer shard-worker shape —
  // predict_batch_into must reproduce predict_batch bit for bit.
  const auto split = testing::tiny_multimodal(/*seed=*/24,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/12);
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);

  auto model = api::make(GetParam(), split.train.num_features(),
                         split.train.num_classes(), small_options(info->kind));
  model->fit(split.train);
  const auto direct = model->predict_batch(split.test.features());

  std::vector<data::Label> out(split.test.size());
  model->predict_batch_into(split.test.features(), out);
  EXPECT_EQ(out, direct) << model->name() << " (no context)";

  const auto context = model->make_predict_context();
  for (int round = 0; round < 2; ++round) {
    std::fill(out.begin(), out.end(), data::Label{0xFFFF});
    model->predict_batch_into(split.test.features(), out, context.get());
    EXPECT_EQ(out, direct) << model->name() << " context round " << round;
  }
}

TEST_P(RegistryContract, MemoryBreakdownIsPopulated) {
  const auto* info = api::find_model(GetParam());
  ASSERT_NE(info, nullptr);
  auto model = api::make(GetParam(), 64, 4, small_options(info->kind));
  const auto mem = model->memory();
  EXPECT_GT(mem.encoder_bits, 0u);
  EXPECT_GT(mem.am_bits, 0u);
  EXPECT_EQ(mem.total_bits(), mem.encoder_bits + mem.am_bits);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryContract,
                         ::testing::ValuesIn(api::list_models()),
                         [](const auto& info) { return info.param; });

TEST(ApiRegistry, ListsFiveModelsInTableOrder) {
  const auto names = api::list_models();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.front(), "searchd");
  EXPECT_EQ(names.back(), "memhd");
}

TEST(ApiRegistry, FindModelIsCaseInsensitive) {
  EXPECT_NE(api::find_model("MEMHD"), nullptr);
  EXPECT_NE(api::find_model("LeHDC"), nullptr);
  EXPECT_EQ(api::find_model("not-a-model"), nullptr);
}

TEST(ApiRegistry, MakeRejectsUnknownNames) {
  EXPECT_THROW(api::make("hal9000", 8, 2, {}), std::invalid_argument);
}

TEST(ApiRegistry, ZeroColumnsMeansSquareMemhd) {
  api::ModelOptions opts;
  opts.dim = 64;
  opts.columns = 0;
  EXPECT_EQ(opts.memhd().columns, 64u);
  opts.columns = 16;
  EXPECT_EQ(opts.memhd().columns, 16u);
}

TEST(ApiRegistry, AdapterExposesTheWrappedModel) {
  api::ModelOptions opts = small_options(core::ModelKind::kMemhd);
  auto model = api::make("memhd", 64, 4, opts);
  auto* adapter = dynamic_cast<api::MemhdClassifier*>(model.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->model().config().columns, opts.columns);
}

TEST(ApiRegistry, DegenerateShapesThrowTypedConfigError) {
  // num_features == 0 and dim == 0 must be catchable errors at the API
  // boundary, not contract aborts.
  api::ModelOptions opts;
  EXPECT_THROW(api::make("memhd", 0, 4, opts), hdc::ConfigError);
  EXPECT_THROW(api::make("basichdc", 0, 4, opts), hdc::ConfigError);
  opts.dim = 0;
  EXPECT_THROW(api::make("memhd", 64, 4, opts), hdc::ConfigError);
  EXPECT_THROW(api::make("quanthd", 64, 4, opts), hdc::ConfigError);
  // ConfigError IS an invalid_argument, so generic handlers still work.
  EXPECT_THROW(api::make("memhd", 0, 4, api::ModelOptions{}),
               std::invalid_argument);
}

TEST(ApiRegistry, RematOptionFlowsThroughRegistryBitIdentically) {
  const auto split = testing::tiny_multimodal(/*seed=*/27,
                                              /*train_per_class=*/30,
                                              /*test_per_class=*/15);
  for (const char* name : {"memhd", "basichdc"}) {
    auto opts = small_options(api::find_model(name)->kind);
    auto mat = api::make(name, split.train.num_features(),
                         split.train.num_classes(), opts);
    opts.basis = hdc::BasisKind::kRematerialized;
    auto rem = api::make(name, split.train.num_features(),
                         split.train.num_classes(), opts);
    mat->fit(split.train);
    rem->fit(split.train);
    EXPECT_EQ(rem->predict_batch(split.test.features()),
              mat->predict_batch(split.test.features()))
        << name;
    // The resident split shows up in the memory breakdown; model bits
    // stay equal (Table I counts the deployed plane, not software bytes).
    // The materialized encoder holds the packed plane, f rows of
    // ceil(D / 64) words; the rematerialized one holds its seed and shape.
    const auto mm = mat->memory();
    const auto rm = rem->memory();
    EXPECT_EQ(mm.encoder_bits, rm.encoder_bits) << name;
    const std::size_t words_per_row = (opts.dim + 63) / 64;
    EXPECT_EQ(mm.encoder_resident_bytes,
              split.train.num_features() * words_per_row *
                  sizeof(std::uint64_t))
        << name;
    EXPECT_LE(rm.encoder_resident_bytes, 64u) << name;
  }
}

// The MHDAPI03 baseline frame header (magic through the two basis bytes at
// offsets 69-70) is a function of the options and shape alone. A change
// here breaks every saved baseline model.
std::string basichdc_frame_hex(hdc::BasisKind basis) {
  const auto split = testing::tiny_multimodal(/*seed=*/29,
                                              /*train_per_class=*/10,
                                              /*test_per_class=*/5);
  auto opts = small_options(core::ModelKind::kBasicHDC);
  opts.basis = basis;
  auto model = api::make("basichdc", split.train.num_features(),
                         split.train.num_classes(), opts);
  model->fit(split.train);
  std::ostringstream out(std::ios::binary);
  api::save(*model, out);
  return testing::hex_prefix(out.str(), 71);
}

TEST(ApiSerializeLayout, Mhdapi03BaselineFrameHeader) {
  const std::string frame =
      "4d48444150493033"  // magic "MHDAPI03"
      "00"                // u8 kind tag (BasicHDC)
      "0001000000000000"  // u64 dim 256
      "0000000000000000"  // u64 epochs 0
      "1000000000000000"  // u64 num_levels 16
      "0400000000000000"  // u64 n_models 4
      "0900000000000000"  // u64 seed 9
      "4000000000000000"  // u64 num_features 64
      "0400000000000000"  // u64 num_classes 4
      "cdcc4c3d";         // f32 learning_rate 0.05
  // Then u8 basis and u8 derivation (always 0, the counter stream).
  const std::string mat = basichdc_frame_hex(hdc::BasisKind::kMaterialized);
  EXPECT_EQ(mat.substr(0, 138), frame);
  EXPECT_EQ(mat.substr(138), "0000");
  const std::string rem = basichdc_frame_hex(hdc::BasisKind::kRematerialized);
  EXPECT_EQ(rem.substr(0, 138), frame);
  EXPECT_EQ(rem.substr(138), "0100");
}

/// The api::save bytes of a small fitted BasicHDC model.
std::string saved_basichdc() {
  const auto split = testing::tiny_multimodal(/*seed=*/29,
                                              /*train_per_class=*/10,
                                              /*test_per_class=*/5);
  auto model = api::make("basichdc", split.train.num_features(),
                         split.train.num_classes(),
                         small_options(core::ModelKind::kBasicHDC));
  model->fit(split.train);
  std::ostringstream out(std::ios::binary);
  api::save(*model, out);
  return out.str();
}

void expect_load_error(const std::string& bytes, const std::string& needle) {
  testing::expect_load_error(bytes, needle,
                             [](auto& source) { api::load(source); });
}

TEST(ApiSerialize, RetiredRevisionThrowsNamingTheRevision) {
  std::string bytes = saved_basichdc();
  bytes.replace(0, 8, "MHDAPI01");
  expect_load_error(bytes, "unsupported container revision MHDAPI01");
}

TEST(ApiSerialize, DerivationByteOtherThanCounterStreamThrows) {
  // Offset 69 is the basis kind, 70 the derivation: 1 was the retired
  // sequential stream, anything above it was never written.
  std::string bytes = saved_basichdc();
  ASSERT_EQ(bytes[70], 0);
  bytes[70] = 1;
  expect_load_error(bytes, "unsupported basis derivation");
  bytes[70] = 2;
  expect_load_error(bytes, "corrupt basis bytes");
}

TEST(ApiSerialize, LoadRejectsGarbage) {
  const std::string path = testing::temp_path("api_garbage.mhd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a model", f);
  std::fclose(f);
  EXPECT_THROW(api::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ApiSerialize, LoadThrowsOnCorruptFrameInsteadOfAborting) {
  // Valid magic + kind tag, zeroed config/shape frame: must surface as the
  // documented runtime_error, not as a contract abort deeper in the stack.
  // Tag 0 (BasicHDC), u64*7 + f32 of zeros, then the two basis bytes (a
  // materialized counter-stream basis), so the frame checks are reached.
  const std::string bytes =
      std::string("MHDAPI03") + std::string(1 + 7 * 8 + 4 + 2, '\0');
  expect_load_error(bytes, "corrupt baseline model frame");
}

}  // namespace
}  // namespace memhd::api
