#include "models/gcmc.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "models/graph_utils.h"

namespace lkpdpp {

namespace {
Matrix RandomInit(int rows, int cols, double scale, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal(0.0, scale);
  }
  return m;
}
}  // namespace

GcmcModel::GcmcModel(int num_users, int num_items, SparseMatrix adjacency,
                     const Config& config)
    : num_users_(num_users),
      num_items_(num_items),
      pool_(config.pool),
      adjacency_(std::move(adjacency)),
      features_("gcmc.features", Matrix()),
      w_conv_("gcmc.w_conv", Matrix()),
      w_self_("gcmc.w_self", Matrix()),
      decoder_("gcmc.decoder", Matrix()) {
  Rng rng(config.seed);
  features_.value = RandomInit(num_users + num_items, config.embedding_dim,
                               config.init_scale, &rng);
  const double wscale =
      std::sqrt(2.0 / (config.embedding_dim + config.hidden_dim));
  w_conv_.value =
      RandomInit(config.embedding_dim, config.hidden_dim, wscale, &rng);
  w_self_.value =
      RandomInit(config.embedding_dim, config.hidden_dim, wscale, &rng);
  decoder_.value = RandomInit(config.hidden_dim, config.hidden_dim,
                              1.0 / std::sqrt(config.hidden_dim), &rng);
  for (ad::Param* p : Params()) p->ZeroGrad();
}

Result<std::unique_ptr<GcmcModel>> GcmcModel::Create(const Dataset& dataset,
                                                     const Config& config) {
  LKP_ASSIGN_OR_RETURN(SparseMatrix adj, BuildNormalizedAdjacency(dataset));
  return std::unique_ptr<GcmcModel>(new GcmcModel(
      dataset.num_users(), dataset.num_items(), std::move(adj), config));
}

namespace {

// The encoder prefix (one graph convolution + self-connection) runs
// once per batch; instances decode from a boundary param wrapping the
// encoded table plus the bilinear decoder bound directly. Finish
// backpropagates the reduced boundary gradient through the encoder.
class GcmcBatch final : public RecModel::Batch {
 public:
  GcmcBatch(ad::Param* features, ad::Param* w_conv, ad::Param* w_self,
            ad::Param* decoder, const SparseMatrix* adjacency,
            int num_users, ThreadPool* pool)
      : num_users_(num_users),
        decoder_(decoder),
        boundary_("gcmc.encoded", Matrix()) {
    ad::Tensor x = prefix_.Parameter(features);
    ad::Tensor wc = prefix_.Parameter(w_conv);
    ad::Tensor ws = prefix_.Parameter(w_self);
    // H = relu(A_hat X W_c + X W_s).
    ad::Tensor agg = prefix_.MatMul(prefix_.Spmm(adjacency, x, pool), wc);
    ad::Tensor self = prefix_.MatMul(x, ws);
    encoded_ = prefix_.Relu(prefix_.Add(agg, self));
    boundary_.value = encoded_.value();
    boundary_.ZeroGrad();
  }

  ad::Tensor ScoreItems(ad::Graph* graph, int user,
                        const std::vector<int>& items) override {
    const int m = static_cast<int>(items.size());
    ad::Tensor enc = graph->Parameter(&boundary_);
    ad::Tensor qd = graph->Parameter(decoder_);
    ad::Tensor hu = graph->RepeatRow(graph->GatherRows(enc, {user}), m);
    ad::Tensor hi = graph->GatherRows(enc, Shift(items));
    // score_i = h_u^T Q h_i, batched as rowsum(h_u_rep ⊙ (h_i Q^T)).
    ad::Tensor proj = graph->MatMulTransB(hi, qd);
    return graph->RowSum(graph->Mul(hu, proj));
  }

  ad::Tensor ItemRepresentations(ad::Graph* graph,
                                 const std::vector<int>& items) override {
    return graph->GatherRows(graph->Parameter(&boundary_), Shift(items));
  }

  Status Finish() override {
    return prefix_.Backward({{encoded_, boundary_.grad}});
  }

 private:
  std::vector<int> Shift(const std::vector<int>& items) const {
    std::vector<int> shifted(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      shifted[i] = num_users_ + items[i];
    }
    return shifted;
  }

  int num_users_;
  ad::Param* decoder_;
  ad::Graph prefix_;
  ad::Tensor encoded_;
  ad::Param boundary_;
};

}  // namespace

std::unique_ptr<RecModel::Batch> GcmcModel::StartBatch() {
  return std::make_unique<GcmcBatch>(&features_, &w_conv_, &w_self_,
                                     &decoder_, &adjacency_, num_users_,
                                     pool_);
}

Matrix GcmcModel::EncodeEval() const {
  Matrix agg =
      MatMul(adjacency_.Multiply(features_.value, pool_), w_conv_.value);
  Matrix self = MatMul(features_.value, w_self_.value);
  agg += self;
  for (int r = 0; r < agg.rows(); ++r) {
    for (int c = 0; c < agg.cols(); ++c) {
      if (agg(r, c) < 0.0) agg(r, c) = 0.0;
    }
  }
  return agg;
}

void GcmcModel::PrepareForEval() { eval_cache_ = EncodeEval(); }

Vector GcmcModel::ScoreAllItems(int user) const {
  LKP_CHECK(!eval_cache_.empty()) << "PrepareForEval not called";
  const Vector hu = eval_cache_.Row(user);
  const Vector proj = MatVecTransA(decoder_.value, hu);  // Q^T h_u.
  Vector out(num_items_);
  for (int i = 0; i < num_items_; ++i) {
    const double* hi = eval_cache_.RowPtr(num_users_ + i);
    double s = 0.0;
    for (int c = 0; c < eval_cache_.cols(); ++c) s += hi[c] * proj[c];
    out[i] = s;
  }
  return out;
}

std::vector<ad::Param*> GcmcModel::Params() {
  return {&features_, &w_conv_, &w_self_, &decoder_};
}

}  // namespace lkpdpp
