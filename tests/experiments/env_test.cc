// Integration tests of the experiments harness: environment construction,
// configuration plumbing, pre-trained checkpoint caching, and the scale
// helper. Kept at miniature sizes so the suite stays fast.

#include "doduo/experiments/env.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <utility>
#include <vector>

#include "doduo/experiments/runners.h"
#include "doduo/util/metrics.h"
#include "gtest/gtest.h"

namespace doduo::experiments {
namespace {

EnvOptions TinyOptions(BenchmarkMode mode) {
  EnvOptions options;
  options.mode = mode;
  options.num_tables = 40;
  options.vocab_size = 700;
  options.hidden_dim = 16;
  options.num_layers = 1;
  options.num_heads = 2;
  options.ffn_dim = 32;
  options.max_positions = 96;
  options.pretrain_epochs = 1;
  options.corpus_fact_mentions = 1;
  options.corpus_type_mentions = 1;
  options.corpus_list_mentions = 2;
  options.use_cache = false;
  options.seed = 7;
  return options;
}

TEST(EnvTest, WikiTableEnvironmentIsConsistent) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  EXPECT_EQ(env.dataset().tables.size(), 40u);
  EXPECT_TRUE(env.dataset().multi_label);
  EXPECT_GT(env.dataset().relation_vocab.size(), 0);
  EXPECT_GT(env.vocab().size(), text::Vocab::kNumSpecialTokens);

  const auto config = env.MakeDoduoConfig();
  EXPECT_EQ(config.encoder.vocab_size, env.vocab().size());
  EXPECT_EQ(config.num_types, env.dataset().type_vocab.size());
  EXPECT_EQ(config.tasks, core::TaskSet::kTypesAndRelations);
  // Splits partition the tables.
  EXPECT_EQ(env.splits().train.size() + env.splits().valid.size() +
                env.splits().test.size(),
            env.dataset().tables.size());
}

TEST(EnvTest, VizNetEnvironmentDisablesRelations) {
  Env env(TinyOptions(BenchmarkMode::kVizNet));
  EXPECT_FALSE(env.dataset().multi_label);
  const auto config = env.MakeDoduoConfig();
  EXPECT_EQ(config.tasks, core::TaskSet::kTypesOnly);
  EXPECT_EQ(config.num_relations, 0);
  // Mode-specific serializer budget (see EXPERIMENTS.md).
  EXPECT_EQ(config.serializer.max_tokens_per_column, 8);
}

TEST(EnvTest, PretrainedInitializationCopiesWeights) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  auto config = env.MakeDoduoConfig();
  util::Rng rng(1);
  core::DoduoModel model(config, &rng);
  const auto before = model.SnapshotWeights();
  env.InitializeFromPretrained(&model);
  const auto after = model.SnapshotWeights();
  // Encoder weights changed; shapes identical.
  double diff = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(nn::SameShape(before[i], after[i]));
    for (int64_t j = 0; j < before[i].size(); ++j) {
      diff += static_cast<double>(
          std::abs(before[i].data()[j] - after[i].data()[j]));
    }
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(EnvTest, CheckpointCacheRoundTrips) {
  const std::string cache_dir = ::testing::TempDir() + "/doduo_env_cache";
  std::filesystem::remove_all(cache_dir);
  setenv("DODUO_CACHE_DIR", cache_dir.c_str(), 1);

  EnvOptions options = TinyOptions(BenchmarkMode::kWikiTable);
  options.use_cache = true;
  nn::Tensor first_weights;
  {
    Env env(options);
    env.PretrainedLm();  // trains and writes the cache
    EXPECT_FALSE(std::filesystem::is_empty(cache_dir));
    auto config = env.MakeDoduoConfig();
    util::Rng rng(2);
    core::DoduoModel model(config, &rng);
    env.InitializeFromPretrained(&model);
    first_weights = model.SnapshotWeights()[0];
  }
  {
    Env env(options);  // second environment loads from the cache
    auto config = env.MakeDoduoConfig();
    util::Rng rng(3);
    core::DoduoModel model(config, &rng);
    env.InitializeFromPretrained(&model);
    const nn::Tensor second_weights = model.SnapshotWeights()[0];
    ASSERT_TRUE(nn::SameShape(first_weights, second_weights));
    for (int64_t i = 0; i < first_weights.size(); ++i) {
      ASSERT_FLOAT_EQ(first_weights.data()[i], second_weights.data()[i]);
    }
  }
  unsetenv("DODUO_CACHE_DIR");
  std::filesystem::remove_all(cache_dir);
}

TEST(EnvTest, CacheHitFineTunesLikeCacheMiss) {
  // A cache hit leaves the pre-trained LM borrowing the mmap-ed checkpoint;
  // fine-tuning from it must neither trip the read-only CHECK nor change a
  // single bit relative to fine-tuning from the freshly trained weights.
  const std::string cache_dir = ::testing::TempDir() + "/doduo_env_cache_ft";
  std::filesystem::remove_all(cache_dir);
  setenv("DODUO_CACHE_DIR", cache_dir.c_str(), 1);

  EnvOptions options = TinyOptions(BenchmarkMode::kWikiTable);
  options.use_cache = true;
  DoduoVariant variant;
  variant.epochs = 1;
  std::vector<nn::Tensor> miss;
  {
    Env env(options);  // trains the LM and writes the cache
    miss = RunDoduo(&env, variant).model->SnapshotWeights();
  }
  util::Counter* mapped = util::GetCounter("load.bytes_mapped");
  const uint64_t mapped_before = mapped->value();
  std::vector<nn::Tensor> hit;
  {
    Env env(options);  // loads the LM from the cache
    hit = RunDoduo(&env, variant).model->SnapshotWeights();
  }
  EXPECT_GT(mapped->value(), mapped_before) << "second Env missed the cache";
  ASSERT_EQ(hit.size(), miss.size());
  for (size_t t = 0; t < miss.size(); ++t) {
    ASSERT_TRUE(nn::SameShape(miss[t], hit[t]));
    for (int64_t i = 0; i < miss[t].size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(std::as_const(miss[t]).data()[i]),
                std::bit_cast<uint32_t>(std::as_const(hit[t]).data()[i]))
          << "tensor " << t << " element " << i;
    }
  }
  unsetenv("DODUO_CACHE_DIR");
  std::filesystem::remove_all(cache_dir);
}

TEST(EnvTest, RunDoduoSmokeTest) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  DoduoVariant variant;
  variant.epochs = 2;
  const DoduoRun run = RunDoduo(&env, variant);
  EXPECT_GT(run.types.micro.f1, 0.0);
  EXPECT_TRUE(run.has_relations);
  EXPECT_EQ(run.history.valid_type_f1.size(), 2u);
}

TEST(ScaledTest, RespectsScaleEnvVar) {
  unsetenv("DODUO_SCALE");
  EXPECT_EQ(Scaled(100), 100);
  setenv("DODUO_SCALE", "0.25", 1);
  EXPECT_EQ(Scaled(100), 25);
  setenv("DODUO_SCALE", "0.001", 1);
  EXPECT_EQ(Scaled(100), 1);  // floor of 1
  unsetenv("DODUO_SCALE");
}

}  // namespace
}  // namespace doduo::experiments
