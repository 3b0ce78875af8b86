#include "models/gcn.h"

#include "common/logging.h"
#include "common/rng.h"
#include "models/graph_utils.h"

namespace lkpdpp {

GcnModel::GcnModel(int num_users, int num_items, SparseMatrix adjacency,
                   const Config& config)
    : num_users_(num_users),
      num_items_(num_items),
      num_layers_(config.num_layers),
      pool_(config.pool),
      adjacency_(std::move(adjacency)),
      embeddings_("gcn.embeddings", Matrix()) {
  Rng rng(config.seed);
  Matrix init(num_users + num_items, config.embedding_dim);
  for (int r = 0; r < init.rows(); ++r) {
    for (int c = 0; c < init.cols(); ++c) {
      init(r, c) = rng.Normal(0.0, config.init_scale);
    }
  }
  embeddings_.value = std::move(init);
  embeddings_.ZeroGrad();
}

Result<std::unique_ptr<GcnModel>> GcnModel::Create(const Dataset& dataset,
                                                   const Config& config) {
  if (config.num_layers < 1) {
    return Status::InvalidArgument("GCN needs at least one layer");
  }
  LKP_ASSIGN_OR_RETURN(SparseMatrix adj, BuildNormalizedAdjacency(dataset));
  return std::unique_ptr<GcnModel>(new GcnModel(
      dataset.num_users(), dataset.num_items(), std::move(adj), config));
}

namespace {

// The propagation prefix runs once per batch; instances gather from a
// boundary param wrapping the propagated table, and Finish
// backpropagates the reduced boundary gradient through the prefix into
// the embedding table.
class GcnBatch final : public RecModel::Batch {
 public:
  GcnBatch(ad::Param* embeddings, const SparseMatrix* adjacency,
           int num_layers, int num_users, ThreadPool* pool)
      : num_users_(num_users), boundary_("gcn.propagated", Matrix()) {
    ad::Tensor e0 = prefix_.Parameter(embeddings);
    std::vector<ad::Tensor> layers = {e0};
    ad::Tensor cur = e0;
    for (int l = 0; l < num_layers; ++l) {
      cur = prefix_.Spmm(adjacency, cur, pool);
      layers.push_back(cur);
    }
    propagated_ = prefix_.MeanOf(layers);
    boundary_.value = propagated_.value();
    boundary_.ZeroGrad();
  }

  ad::Tensor ScoreItems(ad::Graph* graph, int user,
                        const std::vector<int>& items) override {
    ad::Tensor prop = graph->Parameter(&boundary_);
    ad::Tensor u_row = graph->GatherRows(prop, {user});
    ad::Tensor rows = graph->GatherRows(prop, Shift(items));
    return graph->MatMulTransB(rows, u_row);
  }

  ad::Tensor ItemRepresentations(ad::Graph* graph,
                                 const std::vector<int>& items) override {
    return graph->GatherRows(graph->Parameter(&boundary_), Shift(items));
  }

  Status Finish() override {
    return prefix_.Backward({{propagated_, boundary_.grad}});
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
  ad::Graph prefix_;
  ad::Tensor propagated_;
  ad::Param boundary_;
};

}  // namespace

std::unique_ptr<RecModel::Batch> GcnModel::StartBatch() {
  return std::make_unique<GcnBatch>(&embeddings_, &adjacency_, num_layers_,
                                    num_users_, pool_);
}

Matrix GcnModel::PropagateEval() const {
  Matrix acc = embeddings_.value;
  Matrix cur = embeddings_.value;
  for (int l = 0; l < num_layers_; ++l) {
    cur = adjacency_.Multiply(cur, pool_);
    acc += cur;
  }
  acc *= 1.0 / (num_layers_ + 1.0);
  return acc;
}

void GcnModel::PrepareForEval() { eval_cache_ = PropagateEval(); }

Vector GcnModel::ScoreAllItems(int user) const {
  LKP_CHECK(!eval_cache_.empty()) << "PrepareForEval not called";
  const Vector u = eval_cache_.Row(user);
  Vector out(num_items_);
  for (int i = 0; i < num_items_; ++i) {
    const double* row = eval_cache_.RowPtr(num_users_ + i);
    double s = 0.0;
    for (int c = 0; c < eval_cache_.cols(); ++c) s += row[c] * u[c];
    out[i] = s;
  }
  return out;
}

std::vector<ad::Param*> GcnModel::Params() { return {&embeddings_}; }

}  // namespace lkpdpp
