#ifndef DODUO_CORE_REPLICA_POOL_H_
#define DODUO_CORE_REPLICA_POOL_H_

#include <memory>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/model.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/mutex.h"
#include "doduo/util/thread_annotations.h"

namespace doduo::core {

/// A pool of inference replicas of one model, built for concurrent serving
/// (DESIGN §12): the forward pass caches per-request state inside
/// DoduoModel, so each concurrently-executing request needs its own model
/// instance — but never its own weight snapshot.
///
/// The split: at construction the pool snapshots the primary's parameters
/// exactly once into one immutable, shared copy
/// (`std::shared_ptr<const std::vector<nn::Tensor>>`), then materializes
/// `num_replicas` models from it. Replica 0 aliases the primary model
/// itself (no copy); replicas 1..n-1 are fresh models that *borrow* the
/// shared snapshot (DoduoModel::AdoptWeights) — no per-replica weight copy
/// exists, and when the primary was itself loaded from an mmap-ed v2
/// checkpoint the snapshot aliases the mapping, so every replica in every
/// worker process reads the same physical pages (DESIGN §14). Every replica
/// carries its own per-request workspace (encoder arenas, forward caches),
/// so replica r is safe to use from one thread at a time, and different
/// replicas are safe to use concurrently.
///
/// Callers that serve long-running traffic (serve::DynamicBatcher) build
/// one pool at startup and reuse it for every batch; the per-call batch
/// path (Annotator::ForEachTable) builds a short-lived pool per call so a
/// freshly-trained primary is always re-snapshotted.
class ReplicaPool {
 public:
  /// Builds `num_replicas` (clamped to >= 1) replicas of `primary`. All
  /// pointers must outlive the pool. `relation_vocab` may be nullptr for
  /// types-only models. The primary's weights must not change while the
  /// pool is in use (replicas 1..n-1 keep the construction-time snapshot;
  /// replica 0 would drift).
  ReplicaPool(DoduoModel* primary, const table::TableSerializer* serializer,
              const table::LabelVocab* type_vocab,
              const table::LabelVocab* relation_vocab, int num_replicas);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  int num_replicas() const { return static_cast<int>(models_.size()); }

  /// Replica r's model: replica 0 is the primary, the rest are pool-owned
  /// copies restored from the shared snapshot. One thread at a time per
  /// replica.
  DoduoModel* model(int r) const;

  /// An annotator bound to replica r. Its batch entry points never fan out
  /// across the compute pool (replica fan-out capped at 1): parallelism
  /// across replicas is the pool owner's job, so a worker thread driving
  /// `annotator(r)->AnnotateTypesBatch(...)` gets the plain sequential
  /// validate -> serialize -> forward -> decode path on its own replica.
  Annotator* annotator(int r) const;

  /// The shared immutable weight snapshot taken at construction.
  const std::shared_ptr<const std::vector<nn::Tensor>>& weights() const {
    return weights_;
  }

  /// RAII enforcement of the one-thread-per-replica contract: holds replica
  /// `r` exclusively for the scope's lifetime and aborts (DODUO_CHECK) if
  /// the replica is already in use — two batcher workers sharing an index,
  /// or a caller fanning one replica out across the compute pool, is a
  /// protocol bug that would silently corrupt per-request forward state.
  /// The guard costs one uncontended mutex acquisition per batch, nothing
  /// per table.
  class ScopedUse {
   public:
    ScopedUse(ReplicaPool* pool, int r);
    ~ScopedUse();

    ScopedUse(const ScopedUse&) = delete;
    ScopedUse& operator=(const ScopedUse&) = delete;

   private:
    ReplicaPool* const pool_;
    const int r_;
  };

 private:
  std::shared_ptr<const std::vector<nn::Tensor>> weights_;
  std::vector<DoduoModel*> models_;  // [0] = primary; rest own_models_
  std::vector<std::unique_ptr<DoduoModel>> owned_models_;
  std::vector<std::unique_ptr<Annotator>> annotators_;

  // Everything above is immutable after construction (replica state lives
  // inside the models, one thread per replica); the in-use ledger is the
  // pool's only mutable shared state.
  mutable util::Mutex mu_{"core.replica_pool"};
  std::vector<bool> in_use_ DODUO_GUARDED_BY(mu_);
};

}  // namespace doduo::core

#endif  // DODUO_CORE_REPLICA_POOL_H_
