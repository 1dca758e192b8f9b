// Zero-copy weight sharing across a ReplicaPool (DESIGN §14): replicas
// built over a v2 mmap checkpoint must alias ONE physical weight copy —
// asserted by data-pointer identity, which is stronger and less flaky than
// sampling RSS — and still annotate identically to the primary.

#include "doduo/core/replica_pool.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "doduo/core/model.h"
#include "doduo/core/model_io.h"
#include "doduo/nn/parameter.h"
#include "doduo/table/table.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"

namespace doduo::core {
namespace {

struct Fixture {
  Fixture() {
    config.encoder.vocab_size = 60;
    config.encoder.max_positions = 64;
    config.encoder.hidden_dim = 16;
    config.encoder.num_heads = 2;
    config.encoder.ffn_dim = 32;
    config.encoder.num_layers = 1;
    config.encoder.dropout = 0.0f;
    config.serializer.max_total_tokens = 64;
    config.num_types = 5;
    config.num_relations = 0;
    config.tasks = TaskSet::kTypesOnly;
    for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
      vocab.AddToken(word);
    }
    for (int i = 0; i < config.num_types; ++i) {
      types.AddLabel("type" + std::to_string(i));
    }
    util::Rng rng(1);
    model = std::make_unique<DoduoModel>(config, &rng);
    model->set_training(false);
  }

  DoduoConfig config;
  text::Vocab vocab;
  table::LabelVocab types;
  table::LabelVocab relations;
  std::unique_ptr<DoduoModel> model;
};

table::Table SmallTable() {
  table::Table table("t");
  table.AddColumn({"a", {"alpha", "beta"}});
  table.AddColumn({"b", {"gamma"}});
  return table;
}

std::string SaveDir(Fixture* fx, const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  const util::Status saved = SaveModelDir(dir, fx->model.get(), fx->vocab,
                                          fx->types, fx->relations);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return dir;
}

TEST(ReplicaSharingTest, ReplicasAliasOneWeightCopyOverV2Mmap) {
  Fixture fx;
  const std::string dir = SaveDir(&fx, "share_v2");
  auto loaded = LoadModelDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LoadedModel& m = *loaded.value();

  // The v2 load itself is zero-copy: the primary's weights borrow the map.
  const nn::ParameterList primary_params = m.model->Parameters();
  for (nn::Parameter* p : primary_params) {
    EXPECT_TRUE(p->value.borrowed()) << p->name;
  }

  ReplicaPool pool(m.model.get(), m.serializer.get(), &m.types,
                   m.relation_vocab(), 3);
  ASSERT_EQ(pool.num_replicas(), 3);
  for (int r = 1; r < pool.num_replicas(); ++r) {
    const nn::ParameterList replica_params = pool.model(r)->Parameters();
    ASSERT_EQ(replica_params.size(), primary_params.size());
    for (size_t i = 0; i < primary_params.size(); ++i) {
      // Pointer identity: replica weights ARE the primary's mapped bytes,
      // not a copy of them. (SnapshotWeights of a borrowed model shares
      // the borrow, and AdoptWeights shares it onward.)
      EXPECT_TRUE(replica_params[i]->value.borrowed());
      EXPECT_EQ(std::as_const(replica_params[i]->value).data(),
                std::as_const(primary_params[i]->value).data())
          << primary_params[i]->name;
    }
  }

  // Shared storage must not change behavior: all replicas annotate alike.
  const table::Table table = SmallTable();
  auto want = pool.annotator(0)->AnnotateTypes(table);
  ASSERT_TRUE(want.ok());
  for (int r = 1; r < pool.num_replicas(); ++r) {
    auto got = pool.annotator(r)->AnnotateTypes(table);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), want.value()) << "replica " << r;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplicaSharingTest, AdoptedModelRejectsWeightMutation) {
  Fixture fx;
  const std::string dir = SaveDir(&fx, "share_readonly");
  auto loaded = LoadModelDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  nn::ParameterList params = loaded.value()->model->Parameters();
  ASSERT_FALSE(params.empty());
  // Borrowed weights are inference-only: mutable access must trip the
  // CHECK rather than scribble on the shared mapping.
  EXPECT_DEATH((void)params[0]->value.data(), "borrowed");
  std::filesystem::remove_all(dir);
}

TEST(ReplicaSharingTest, RestoreWeightsReownsAfterAdoption) {
  // A model that adopted a snapshot can be made trainable again by
  // RestoreWeights (the copying path) — and its revision moves.
  Fixture fx;
  auto snapshot = std::make_shared<const std::vector<nn::Tensor>>(
      fx.model->SnapshotWeights());
  util::Rng rng(2);
  DoduoModel replica(fx.config, &rng);
  replica.AdoptWeights(snapshot);
  for (nn::Parameter* p : replica.Parameters()) {
    EXPECT_TRUE(p->value.borrowed()) << p->name;
  }
  replica.RestoreWeights(*snapshot);
  for (nn::Parameter* p : replica.Parameters()) {
    EXPECT_FALSE(p->value.borrowed()) << p->name;
    EXPECT_GT(p->revision, 0u);
  }
}

}  // namespace
}  // namespace doduo::core
