// Experiment runner: spec -> trained model -> metrics.
//
// Owns the training loop shared by every bench binary: per-epoch
// ground-set construction, per-batch autodiff graph, criterion gradient
// injection, Adam updates, periodic validation with best-parameter
// snapshots, and final test-set evaluation. The diversity kernel is
// trained once per (dataset, rank) and cached across specs, mirroring the
// paper's "pre-trained and fixed" protocol.

#ifndef LKPDPP_EXP_RUNNER_H_
#define LKPDPP_EXP_RUNNER_H_

#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/criterion.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "exp/spec.h"
#include "kernels/diversity_kernel.h"
#include "models/rec_model.h"
#include "serve/service.h"

namespace lkpdpp {

struct ExperimentResult {
  /// Test metrics at each requested cutoff, from the best-validation
  /// parameter snapshot.
  std::map<int, MetricSet> test_metrics;
  /// Epoch (1-based) whose snapshot won on validation.
  int best_epoch = 0;
  int epochs_run = 0;
  double best_validation_ndcg = 0.0;
  /// Mean training loss of the final epoch.
  double final_train_loss = 0.0;
  /// Validation NDCG trace (one entry per evaluation round).
  std::vector<double> validation_history;
  /// Wall time spent in the training loop proper (epoch construction,
  /// gradient computation, optimizer steps) — excludes validation and
  /// the final test evaluation. The quantity bench/train_throughput
  /// sweeps against thread count.
  double train_seconds = 0.0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(const Dataset* dataset)
      : dataset_(dataset), evaluator_(dataset) {}

  /// Attaches a pool so training minibatches shard per instance (see
  /// opt/parallel_batch.h), the GCN and GC-MC models MakeModel builds
  /// split their prefix's sparse products by output row, the optimizer
  /// splits each param's rows, the diversity-kernel pre-training shards
  /// per pair, and the per-epoch validation and final test evaluation
  /// fan out per user. Results stay bit-identical at any pool size —
  /// every output element is computed by one thread in the serial order
  /// and every reduction runs in a fixed order. Pass nullptr to go back
  /// to serial. The pool must outlive the runner's Run calls and every
  /// model MakeModel or RunAndKeepModel hands out.
  void SetThreadPool(ThreadPool* pool) {
    pool_ = pool;
    evaluator_.SetThreadPool(pool);
  }
  ThreadPool* thread_pool() const { return pool_; }

  /// Trains per `spec` and evaluates at `cutoffs` (default 5/10/20).
  Result<ExperimentResult> Run(const ExperimentSpec& spec,
                               const std::vector<int>& cutoffs = {5, 10,
                                                                  20});

  /// Like Run, but also hands back the trained model (used by the case
  /// study and the probability probes).
  Result<ExperimentResult> RunAndKeepModel(
      const ExperimentSpec& spec, std::unique_ptr<RecModel>* model_out,
      const std::vector<int>& cutoffs = {5, 10, 20});

  /// The cached pre-learned diversity kernel for this dataset (training
  /// it on first use).
  Result<const DiversityKernel*> GetDiversityKernel();

  /// Builds the backbone for a spec (exposed for examples/tests).
  Result<std::unique_ptr<RecModel>> MakeModel(
      const ExperimentSpec& spec) const;

  /// Builds the criterion for a spec given the model's preferred quality
  /// transform.
  std::unique_ptr<RankingCriterion> MakeCriterion(
      const ExperimentSpec& spec, QualityTransform quality) const;

  /// Wraps a trained model in a serving engine over this runner's cached
  /// diversity kernel (training the kernel on first use) and attached
  /// thread pool. The model and this runner must outlive the service.
  /// If `config.quality` disagrees with the model's PreferredQuality it
  /// is overridden to match.
  Result<std::unique_ptr<RecommendationService>> MakeService(
      RecModel* model, ServeConfig config = ServeConfig{});

 private:
  const Dataset* dataset_;
  Evaluator evaluator_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<DiversityKernel> cached_kernel_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_EXP_RUNNER_H_
