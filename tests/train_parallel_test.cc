// Training-determinism harness: the data-parallel minibatch trainer
// must be bit-identical to the serial path at every thread count, for
// every backbone shape (direct-param MF, boundary-prefix GCN and GC-MC,
// whose sparse products split by row on the pool), for the
// diversity-kernel pre-trainer, and across the edge cases that change
// how batches shard (ragged last batch, batch-of-1, more workers than
// instances). Runs under the TSan CI job via the `thread` label.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "exp/runner.h"
#include "kernels/diversity_kernel.h"
#include "opt/parallel_batch.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

Dataset MakeDataset(uint64_t seed = 71) {
  SyntheticConfig cfg;
  cfg.num_users = 50;
  cfg.num_items = 70;
  cfg.num_categories = 8;
  cfg.num_events = 6000;
  cfg.seed = seed;
  auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).ValueOrDie();
}

// A graph large enough that on an 8-thread pool every sparse product of
// a training prefix splits into at least as many chunks as lanes (564
// nodes survive the interaction floor).
Dataset MakePrefixDataset() {
  SyntheticConfig cfg;
  cfg.num_users = 500;
  cfg.num_items = 200;
  cfg.num_categories = 8;
  cfg.num_events = 12000;
  cfg.min_interactions = 5;
  cfg.seed = 13;
  auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).ValueOrDie();
}

ExperimentSpec SmallSpec(ModelKind model) {
  ExperimentSpec spec;
  spec.model = model;
  spec.criterion = CriterionKind::kLkp;
  spec.lkp_mode = LkpMode::kPositiveOnly;
  spec.k = 3;
  spec.n = 3;
  spec.embedding_dim = 8;
  spec.epochs = 2;
  spec.eval_every = 1;
  spec.patience = 0;
  spec.batch_size = 32;
  spec.learning_rate = 0.05;
  return spec;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << what << " differs at (" << r << ","
                                  << c << ")";
    }
  }
}

struct TrainedRun {
  ExperimentResult result;
  std::vector<Matrix> params;
};

// Trains `spec` on a pool of `threads` workers (0 = no pool at all, the
// plain serial path) and captures the result plus final param values.
TrainedRun TrainWith(const Dataset& dataset, const ExperimentSpec& spec,
                     int threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ExperimentRunner runner(&dataset);
  runner.SetThreadPool(pool.get());
  std::unique_ptr<RecModel> model;
  auto result = runner.RunAndKeepModel(spec, &model);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  TrainedRun out;
  out.result = *result;
  for (ad::Param* p : model->Params()) out.params.push_back(p->value);
  return out;
}

void ExpectRunsBitEqual(const TrainedRun& a, const TrainedRun& b,
                        const std::string& what) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    ExpectBitEqual(a.params[i], b.params[i],
                   what + " param " + std::to_string(i));
  }
  EXPECT_EQ(a.result.final_train_loss, b.result.final_train_loss) << what;
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch) << what;
  ASSERT_EQ(a.result.validation_history.size(),
            b.result.validation_history.size())
      << what;
  for (size_t i = 0; i < a.result.validation_history.size(); ++i) {
    EXPECT_EQ(a.result.validation_history[i], b.result.validation_history[i])
        << what << " validation round " << i;
  }
  for (const auto& [n, metrics] : a.result.test_metrics) {
    const auto& other = b.result.test_metrics.at(n);
    EXPECT_EQ(metrics.ndcg, other.ndcg) << what << " N=" << n;
    EXPECT_EQ(metrics.recall, other.recall) << what << " N=" << n;
    EXPECT_EQ(metrics.category_coverage, other.category_coverage)
        << what << " N=" << n;
  }
}

TEST(TrainParallelTest, MfBitIdenticalAcrossThreadCounts) {
  Dataset ds = MakeDataset();
  const ExperimentSpec spec = SmallSpec(ModelKind::kMf);
  const TrainedRun serial = TrainWith(ds, spec, /*threads=*/0);
  for (int threads : {1, 2, 4, 8}) {
    ExpectRunsBitEqual(serial, TrainWith(ds, spec, threads),
                       "MF threads=" + std::to_string(threads));
  }
}

// Pool tasks one StartBatch + Finish of `spec`'s model submits on an
// 8-thread pool.
long PrefixTasksAt8Threads(const Dataset& dataset,
                           const ExperimentSpec& spec) {
  ThreadPool pool(8);
  ExperimentRunner runner(&dataset);
  runner.SetThreadPool(&pool);
  auto model = runner.MakeModel(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  const long tasks0 = testutil::PoolTasks();
  std::unique_ptr<RecModel::Batch> batch = (*model)->StartBatch();
  EXPECT_TRUE(batch->Finish().ok());
  return testutil::PoolTasks() - tasks0;
}

TEST(TrainParallelTest, GcnPrefixBitIdenticalAcrossThreadCounts) {
  // GCN and GC-MC exercise the boundary-param path: shared propagation
  // prefix, reduced boundary gradient, Finish() backprop; their sparse
  // products and the optimizer split by row on the pool.
  Dataset ds = MakePrefixDataset();
  for (ModelKind kind : {ModelKind::kGcn, ModelKind::kGcmc}) {
    const ExperimentSpec spec = SmallSpec(kind);
    const std::string name = kind == ModelKind::kGcn ? "GCN" : "GCMC";
    // Premise: at 8 threads each sparse product of the prefix (two
    // layers forward and back for GCN, one each way for GC-MC) splits
    // into at least as many chunks as lanes, handing all 8 workers a
    // helper task.
    EXPECT_EQ(PrefixTasksAt8Threads(ds, spec),
              (kind == ModelKind::kGcn ? 4 : 2) * 8)
        << name;
    const TrainedRun serial = TrainWith(ds, spec, /*threads=*/0);
    for (int threads : {1, 2, 4, 8}) {
      ExpectRunsBitEqual(serial, TrainWith(ds, spec, threads),
                         name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(TrainParallelTest, RaggedLastBatchStaysDeterministic) {
  // A batch size that never divides the epoch evenly: the trailing
  // ragged batch must shard and reduce like any other.
  Dataset ds = MakeDataset(29);
  ExperimentSpec spec = SmallSpec(ModelKind::kMf);
  spec.batch_size = 7;
  const TrainedRun serial = TrainWith(ds, spec, /*threads=*/0);
  for (int threads : {2, 8}) {
    ExpectRunsBitEqual(serial, TrainWith(ds, spec, threads),
                       "ragged threads=" + std::to_string(threads));
  }
}

TEST(TrainParallelTest, BatchOfOneStaysDeterministic) {
  // Degenerate minibatch: every batch is a single instance, so most
  // workers idle on every ParallelFor — the empty-shard path.
  Dataset ds = MakeDataset(31);
  ExperimentSpec spec = SmallSpec(ModelKind::kMf);
  spec.batch_size = 1;
  spec.epochs = 1;
  const TrainedRun serial = TrainWith(ds, spec, /*threads=*/0);
  ExpectRunsBitEqual(serial, TrainWith(ds, spec, 4), "batch-of-1");
}

TEST(TrainParallelTest, MoreWorkersThanInstances) {
  // Direct harness check: 8 workers, 3 instances — five workers get an
  // empty shard, the reduction still runs 0..2 in order.
  ThreadPool pool(8);
  ad::Param p("p", Matrix{{1.0, 2.0, 3.0}});
  p.ZeroGrad();
  auto build = [&](int i, ad::Graph* g) -> Result<InstanceGrad> {
    InstanceGrad grad;
    ad::Tensor t = g->Scale(g->Parameter(&p), static_cast<double>(i + 1));
    grad.seeds.emplace_back(t, Matrix(1, 3, 1.0));
    grad.loss = static_cast<double>(i);
    return grad;
  };
  auto summary = AccumulateBatchGradients(3, &pool, build);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->contributed, 3);
  EXPECT_DOUBLE_EQ(summary->loss_sum, 3.0);
  // d/dp sum_i (i+1)*p = 1 + 2 + 3 = 6 in every coordinate.
  for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(p.grad(0, c), 6.0);
}

TEST(TrainParallelTest, EmptyBatchIsANoOp) {
  ad::Param p("p", Matrix{{1.0}});
  p.ZeroGrad();
  auto build = [&](int, ad::Graph*) -> Result<InstanceGrad> {
    ADD_FAILURE() << "build must not run for an empty batch";
    return InstanceGrad{};
  };
  auto summary = AccumulateBatchGradients(0, nullptr, build);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->contributed, 0);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.0);
}

TEST(TrainParallelTest, DiversityKernelBitIdenticalAcrossThreadCounts) {
  Dataset ds = MakeDataset(47);
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 10;
  cfg.epochs = 2;
  cfg.pairs_per_epoch = 90;  // Not a multiple of batch_size: ragged.
  cfg.set_size = 4;
  cfg.batch_size = 16;

  auto serial = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    DiversityKernel::TrainConfig pooled = cfg;
    pooled.pool = &pool;
    auto parallel = DiversityKernel::Train(ds, pooled);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitEqual(serial->factors(), parallel->factors(),
                   "diversity kernel threads=" + std::to_string(threads));
  }
}

TEST(TrainParallelTest, DiversityKernelBatchOfOne) {
  // batch_size 1 degenerates to the classic per-pair SGD schedule and
  // must still be thread-count invariant.
  Dataset ds = MakeDataset(53);
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 8;
  cfg.epochs = 1;
  cfg.pairs_per_epoch = 40;
  cfg.set_size = 3;
  cfg.batch_size = 1;
  auto serial = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  DiversityKernel::TrainConfig pooled = cfg;
  pooled.pool = &pool;
  auto parallel = DiversityKernel::Train(ds, pooled);
  ASSERT_TRUE(parallel.ok());
  ExpectBitEqual(serial->factors(), parallel->factors(), "batch-of-1 kernel");
}

TEST(TrainParallelTest, DiversityKernelRejectsBadBatchSize) {
  Dataset ds = MakeDataset(59);
  DiversityKernel::TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_EQ(DiversityKernel::Train(ds, cfg).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lkpdpp
