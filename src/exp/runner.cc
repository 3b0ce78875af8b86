#include "exp/runner.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "kernels/gaussian_embedding.h"
#include "models/gcmc.h"
#include "models/gcn.h"
#include "models/mf.h"
#include "models/neumf.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "opt/parallel_batch.h"

namespace lkpdpp {

namespace {

obs::Counter* TrainEpochsTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_train_epochs_total");
  return counter;
}

// Snapshot / restore of parameter values around the best epoch.
std::vector<Matrix> SnapshotParams(const std::vector<ad::Param*>& params) {
  std::vector<Matrix> out;
  out.reserve(params.size());
  for (ad::Param* p : params) out.push_back(p->value);
  return out;
}

void RestoreParams(const std::vector<ad::Param*>& params,
                   const std::vector<Matrix>& snapshot) {
  LKP_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

// Converts a (m x 1) score tensor value into a Vector.
Vector ColumnToVector(const Matrix& column) {
  LKP_CHECK_EQ(column.cols(), 1);
  Vector v(column.rows());
  for (int r = 0; r < column.rows(); ++r) v[r] = column(r, 0);
  return v;
}

Matrix VectorToColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  for (int r = 0; r < v.size(); ++r) m(r, 0) = v[r];
  return m;
}

}  // namespace

Result<std::unique_ptr<RecModel>> ExperimentRunner::MakeModel(
    const ExperimentSpec& spec) const {
  switch (spec.model) {
    case ModelKind::kMf: {
      MfModel::Config cfg;
      cfg.embedding_dim = spec.embedding_dim;
      cfg.seed = spec.seed;
      return std::unique_ptr<RecModel>(std::make_unique<MfModel>(
          dataset_->num_users(), dataset_->num_items(), cfg));
    }
    case ModelKind::kGcn: {
      GcnModel::Config cfg;
      cfg.embedding_dim = spec.embedding_dim;
      cfg.seed = spec.seed;
      cfg.pool = pool_;  // Bit-identical with or without a pool.
      LKP_ASSIGN_OR_RETURN(std::unique_ptr<GcnModel> model,
                           GcnModel::Create(*dataset_, cfg));
      return std::unique_ptr<RecModel>(std::move(model));
    }
    case ModelKind::kNeuMf: {
      NeuMfModel::Config cfg;
      cfg.embedding_dim = spec.embedding_dim;
      cfg.seed = spec.seed;
      return std::unique_ptr<RecModel>(std::make_unique<NeuMfModel>(
          dataset_->num_users(), dataset_->num_items(), cfg));
    }
    case ModelKind::kGcmc: {
      GcmcModel::Config cfg;
      cfg.embedding_dim = spec.embedding_dim;
      cfg.hidden_dim = spec.embedding_dim;
      cfg.seed = spec.seed;
      cfg.pool = pool_;
      LKP_ASSIGN_OR_RETURN(std::unique_ptr<GcmcModel> model,
                           GcmcModel::Create(*dataset_, cfg));
      return std::unique_ptr<RecModel>(std::move(model));
    }
  }
  return Status::InvalidArgument("unknown model kind");
}

std::unique_ptr<RankingCriterion> ExperimentRunner::MakeCriterion(
    const ExperimentSpec& spec, QualityTransform quality) const {
  switch (spec.criterion) {
    case CriterionKind::kBce:
      return MakeBceCriterion();
    case CriterionKind::kBpr:
      return MakeBprCriterion();
    case CriterionKind::kSetRank:
      return MakeSetRankCriterion();
    case CriterionKind::kSet2SetRank:
      return MakeSet2SetRankCriterion();
    case CriterionKind::kLkp: {
      LkpConfig cfg;
      cfg.mode = spec.lkp_mode;
      cfg.quality = quality;
      cfg.normalize = spec.lkp_normalize;
      return std::make_unique<LkpCriterion>(cfg);
    }
  }
  return nullptr;
}

Result<const DiversityKernel*> ExperimentRunner::GetDiversityKernel() {
  if (cached_kernel_ == nullptr) {
    DiversityKernel::TrainConfig cfg;
    cfg.rank = 16;
    cfg.epochs = 8;
    cfg.pairs_per_epoch = 300;
    cfg.set_size = 5;
    cfg.pool = pool_;  // Bit-identical with or without a pool.
    LKP_ASSIGN_OR_RETURN(DiversityKernel kernel,
                         DiversityKernel::Train(*dataset_, cfg));
    cached_kernel_ = std::make_unique<DiversityKernel>(std::move(kernel));
  }
  return cached_kernel_.get();
}

Result<std::unique_ptr<RecommendationService>> ExperimentRunner::MakeService(
    RecModel* model, ServeConfig config) {
  if (model == nullptr) {
    return Status::InvalidArgument("MakeService requires a trained model");
  }
  LKP_ASSIGN_OR_RETURN(const DiversityKernel* diversity,
                       GetDiversityKernel());
  config.quality = model->PreferredQuality();
  return RecommendationService::Create(dataset_, model, diversity, pool_,
                                       config);
}

Result<ExperimentResult> ExperimentRunner::Run(
    const ExperimentSpec& spec, const std::vector<int>& cutoffs) {
  std::unique_ptr<RecModel> model;
  return RunAndKeepModel(spec, &model, cutoffs);
}

Result<ExperimentResult> ExperimentRunner::RunAndKeepModel(
    const ExperimentSpec& spec, std::unique_ptr<RecModel>* model_out,
    const std::vector<int>& cutoffs) {
  if (spec.k < 1 || spec.n < 1) {
    return Status::InvalidArgument("spec requires k >= 1 and n >= 1");
  }
  if (spec.criterion == CriterionKind::kLkp &&
      spec.lkp_mode == LkpMode::kNegativeAndPositive && spec.k != spec.n) {
    return Status::InvalidArgument(
        "LkP-NPS requires n == k (Section III-B4)");
  }

  LKP_ASSIGN_OR_RETURN(std::unique_ptr<RecModel> model, MakeModel(spec));
  std::unique_ptr<RankingCriterion> criterion =
      MakeCriterion(spec, model->PreferredQuality());
  if (criterion == nullptr) {
    return Status::InvalidArgument("unknown criterion kind");
  }

  const bool needs_kernel = criterion->NeedsDiversityKernel();
  const bool e_type =
      needs_kernel && spec.kernel_source == KernelSource::kEmbedding;
  const DiversityKernel* diversity = nullptr;
  if (needs_kernel && !e_type) {
    LKP_ASSIGN_OR_RETURN(diversity, GetDiversityKernel());
  }

  GroundSetBuilder builder(dataset_, spec.k, spec.n, spec.target_mode);
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = spec.learning_rate;
  opts.weight_decay = spec.weight_decay;
  opts.clip_norm = spec.clip_norm;
  AdamOptimizer optimizer(opts);
  optimizer.SetThreadPool(pool_);
  const std::vector<ad::Param*> params = model->Params();
  Rng rng(spec.seed ^ 0xD1B54A32D192ED03ULL);

  ExperimentResult result;
  std::vector<Matrix> best_snapshot = SnapshotParams(params);
  double best_val = -1.0;
  int rounds_since_best = 0;

  for (int epoch = 1; epoch <= spec.epochs; ++epoch) {
    LKP_TRACE_SPAN("train.epoch");
    TrainEpochsTotal()->Inc();
    Stopwatch train_timer;
    LKP_ASSIGN_OR_RETURN(std::vector<TrainingInstance> instances,
                         builder.BuildEpoch(&rng));
    rng.Shuffle(&instances);

    double epoch_loss = 0.0;
    long counted = 0;
    for (size_t start = 0; start < instances.size();
         start += static_cast<size_t>(spec.batch_size)) {
      const size_t end = std::min(
          instances.size(), start + static_cast<size_t>(spec.batch_size));
      const int batch_count = static_cast<int>(end - start);
      const double inv_batch = 1.0 / static_cast<double>(batch_count);

      // Shared forward prefix (e.g. GCN propagation) runs once; the
      // instances then shard across the pool, each on a private graph,
      // with gradients reduced in instance order (bit-identical at any
      // thread count — see opt/parallel_batch.h).
      std::unique_ptr<RecModel::Batch> batch;
      {
        LKP_TRACE_SPAN("train.prefix_forward");
        batch = model->StartBatch();
      }

      auto build_instance =
          [&](int i, ad::Graph* graph) -> Result<InstanceGrad> {
        const TrainingInstance& inst =
            instances[start + static_cast<size_t>(i)];
        ad::Tensor score_t =
            batch->ScoreItems(graph, inst.user, inst.items);
        const Vector scores = ColumnToVector(score_t.value());

        CriterionInput in;
        in.scores = scores;
        in.num_pos = inst.num_pos;
        Matrix k_sub;
        ad::Tensor emb_t;
        if (needs_kernel) {
          if (e_type) {
            emb_t = batch->ItemRepresentations(graph, inst.items);
            k_sub = GaussianKernel(emb_t.value(), spec.gaussian_sigma);
            in.want_kernel_grad = true;
          } else {
            k_sub = diversity->Submatrix(inst.items);
            // Convex blend toward identity (see spec.kernel_blend_alpha).
            k_sub *= spec.kernel_blend_alpha;
            k_sub.AddDiagonal(1.0 - spec.kernel_blend_alpha);
          }
          in.diversity = &k_sub;
        }
        Result<CriterionOutput> out = criterion->Evaluate(in);
        if (!out.ok()) {
          // A single ill-conditioned instance (e.g. duplicate-category
          // kernel collapse) should not abort training; skip it
          // (reported through the summary, logged in instance order).
          InstanceGrad skip;
          skip.skip_reason = out.status();
          return skip;
        }
        InstanceGrad grad;
        grad.loss = out->loss;
        grad.seeds.emplace_back(score_t,
                                VectorToColumn(out->dscore) * inv_batch);
        if (e_type && !out->dkernel.empty()) {
          Matrix demb = GaussianKernelBackward(
              emb_t.value(), k_sub, out->dkernel, spec.gaussian_sigma);
          demb *= inv_batch;
          grad.seeds.emplace_back(emb_t, std::move(demb));
        }
        return grad;
      };

      LKP_ASSIGN_OR_RETURN(
          BatchGradSummary summary,
          AccumulateBatchGradients(batch_count, pool_, build_instance));
      for (const auto& [index, reason] : summary.skipped) {
        LKP_LOG(kDebug) << "skipping instance " << (start + index) << ": "
                        << reason.ToString();
      }
      if (summary.contributed == 0) continue;
      epoch_loss += summary.loss_sum;
      counted += summary.contributed;
      {
        LKP_TRACE_SPAN("train.prefix_backward");
        LKP_RETURN_IF_ERROR(batch->Finish());
      }
      LKP_RETURN_IF_ERROR(optimizer.Step(params));
    }
    result.final_train_loss =
        counted > 0 ? epoch_loss / static_cast<double>(counted) : 0.0;
    result.epochs_run = epoch;
    result.train_seconds += train_timer.ElapsedSeconds();

    const bool eval_now =
        (epoch % spec.eval_every == 0) || epoch == spec.epochs;
    if (eval_now) {
      const double val = evaluator_.ValidationNdcg(model.get(), 10);
      result.validation_history.push_back(val);
      if (val > best_val) {
        best_val = val;
        result.best_epoch = epoch;
        best_snapshot = SnapshotParams(params);
        rounds_since_best = 0;
      } else if (spec.patience > 0 && ++rounds_since_best >= spec.patience) {
        break;
      }
    }
  }

  RestoreParams(params, best_snapshot);
  result.best_validation_ndcg = best_val;
  result.test_metrics = evaluator_.Evaluate(model.get(), cutoffs);
  if (model_out != nullptr) *model_out = std::move(model);
  return result;
}

}  // namespace lkpdpp
