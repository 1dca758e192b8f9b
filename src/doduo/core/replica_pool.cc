#include "doduo/core/replica_pool.h"

#include <algorithm>
#include <utility>

#include "doduo/util/check.h"
#include "doduo/util/rng.h"

namespace doduo::core {

ReplicaPool::ReplicaPool(DoduoModel* primary,
                         const table::TableSerializer* serializer,
                         const table::LabelVocab* type_vocab,
                         const table::LabelVocab* relation_vocab,
                         int num_replicas) {
  DODUO_CHECK(primary != nullptr);
  DODUO_CHECK(serializer != nullptr);
  DODUO_CHECK(type_vocab != nullptr);
  num_replicas = std::max(1, num_replicas);
  primary->set_training(false);

  // The one immutable weight copy every replica is built from. Snapshot
  // once, no matter how many replicas follow.
  weights_ = std::make_shared<const std::vector<nn::Tensor>>(
      primary->SnapshotWeights());

  models_.reserve(static_cast<size_t>(num_replicas));
  models_.push_back(primary);
  owned_models_.reserve(static_cast<size_t>(num_replicas - 1));
  for (int r = 1; r < num_replicas; ++r) {
    util::Rng rng(1);  // initializer values are immediately overwritten
    auto replica = std::make_unique<DoduoModel>(primary->config(), &rng);
    // Zero-copy: every replica borrows the shared snapshot instead of
    // materializing its own weight copy, so pool RSS is O(1) in the number
    // of replicas (and, for an mmap-ed v2 checkpoint, shared across
    // processes too — DESIGN §14).
    replica->AdoptWeights(weights_);
    replica->set_mask_builder(primary->mask_builder());
    replica->set_training(false);
    models_.push_back(replica.get());
    owned_models_.push_back(std::move(replica));
  }

  annotators_.reserve(models_.size());
  for (DoduoModel* model : models_) {
    auto annotator = std::make_unique<Annotator>(model, serializer,
                                                 type_vocab, relation_vocab);
    annotator->set_max_batch_replicas(1);
    annotators_.push_back(std::move(annotator));
  }
  in_use_.assign(models_.size(), false);
}

ReplicaPool::ScopedUse::ScopedUse(ReplicaPool* pool, int r)
    : pool_(pool), r_(r) {
  DODUO_CHECK(pool != nullptr);
  DODUO_CHECK(r >= 0 && r < pool->num_replicas());
  util::MutexLock lock(&pool->mu_);
  DODUO_CHECK(!pool->in_use_[static_cast<size_t>(r)])
      << "replica" << r << "is already in use by another thread "
      << "(one thread per replica; see DESIGN §13)";
  pool->in_use_[static_cast<size_t>(r)] = true;
}

ReplicaPool::ScopedUse::~ScopedUse() {
  util::MutexLock lock(&pool_->mu_);
  pool_->in_use_[static_cast<size_t>(r_)] = false;
}

DoduoModel* ReplicaPool::model(int r) const {
  DODUO_CHECK(r >= 0 && r < num_replicas());
  return models_[static_cast<size_t>(r)];
}

Annotator* ReplicaPool::annotator(int r) const {
  DODUO_CHECK(r >= 0 && r < num_replicas());
  return annotators_[static_cast<size_t>(r)].get();
}

}  // namespace doduo::core
