// GCMC: graph convolutional matrix completion [van den Berg et al. 2017].
//
// A compact re-implementation of the graph auto-encoder used in Table IV:
// one graph-convolution encoder layer over the user-item graph (with a
// dense self-connection), and a bilinear softmax decoder over rating
// levels. With binarized implicit feedback there are two levels, and the
// two-class softmax NLL reduces exactly to BCE on the logit difference,
// so the model exposes score = logit(like) - logit(dislike) and its
// native objective is the BCE criterion; LkP reworks swap that criterion
// and read quality through a sigmoid.

#ifndef LKPDPP_MODELS_GCMC_H_
#define LKPDPP_MODELS_GCMC_H_

#include <memory>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "models/rec_model.h"

namespace lkpdpp {

class GcmcModel final : public RecModel {
 public:
  struct Config {
    int embedding_dim = 16;
    int hidden_dim = 16;
    double init_scale = 0.1;
    uint64_t seed = 4;
    /// Splits the encoder's sparse products (the training prefix in
    /// both directions, and EncodeEval) across this pool's lanes.
    /// Results are bit-identical with or without a pool. The pool must
    /// outlive the model, including a model kept by RunAndKeepModel.
    ThreadPool* pool = nullptr;
  };

  static Result<std::unique_ptr<GcmcModel>> Create(const Dataset& dataset,
                                                   const Config& config);

  std::string name() const override { return "GCMC"; }
  int num_users() const override { return num_users_; }
  int num_items() const override { return num_items_; }

  std::unique_ptr<Batch> StartBatch() override;
  void PrepareForEval() override;
  Vector ScoreAllItems(int user) const override;
  std::vector<ad::Param*> Params() override;
  QualityTransform PreferredQuality() const override {
    return QualityTransform::kSigmoid;
  }

 private:
  GcmcModel(int num_users, int num_items, SparseMatrix adjacency,
            const Config& config);

  /// Encoder forward without autodiff (for evaluation).
  Matrix EncodeEval() const;

  int num_users_;
  int num_items_;
  ThreadPool* pool_;
  SparseMatrix adjacency_;
  ad::Param features_;   // (N+M) x d input embeddings.
  ad::Param w_conv_;     // d x h neighbor-aggregation weight.
  ad::Param w_self_;     // d x h self-connection weight.
  ad::Param decoder_;    // h x h bilinear decoder (like-vs-dislike).
  Matrix eval_cache_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_MODELS_GCMC_H_
