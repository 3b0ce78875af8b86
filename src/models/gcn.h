// GCN backbone: high-order propagation on the user-item graph.
//
// The paper's Table II deploys every criterion on "the basic GCN
// framework that learns representations from high-order connectivities
// referring to NGCF". This implementation propagates a joint embedding
// table through `num_layers` rounds of symmetric-normalized neighbor
// aggregation and averages the layer outputs (the simplified propagation
// popularized by LightGCN, which NGCF's successors converged on).
// Scores are inner products of the propagated representations.

#ifndef LKPDPP_MODELS_GCN_H_
#define LKPDPP_MODELS_GCN_H_

#include <memory>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "models/rec_model.h"

namespace lkpdpp {

class GcnModel final : public RecModel {
 public:
  struct Config {
    int embedding_dim = 16;
    int num_layers = 2;
    double init_scale = 0.1;
    uint64_t seed = 2;
    /// Splits the propagation's sparse products (the training prefix in
    /// both directions, and PropagateEval) across this pool's lanes.
    /// Results are bit-identical with or without a pool. The pool must
    /// outlive the model, including a model kept by RunAndKeepModel.
    ThreadPool* pool = nullptr;
  };

  /// Builds the normalized adjacency from the dataset's train edges.
  static Result<std::unique_ptr<GcnModel>> Create(const Dataset& dataset,
                                                  const Config& config);

  std::string name() const override { return "GCN"; }
  int num_users() const override { return num_users_; }
  int num_items() const override { return num_items_; }

  std::unique_ptr<Batch> StartBatch() override;
  void PrepareForEval() override;
  Vector ScoreAllItems(int user) const override;
  std::vector<ad::Param*> Params() override;

 private:
  GcnModel(int num_users, int num_items, SparseMatrix adjacency,
           const Config& config);

  /// Plain (no-grad) propagation of the current embeddings.
  Matrix PropagateEval() const;

  int num_users_;
  int num_items_;
  int num_layers_;
  ThreadPool* pool_;
  SparseMatrix adjacency_;
  ad::Param embeddings_;  // (N+M) x d joint table.
  Matrix eval_cache_;     // PrepareForEval output.
};

}  // namespace lkpdpp

#endif  // LKPDPP_MODELS_GCN_H_
