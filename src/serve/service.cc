#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/map_inference.h"
#include "linalg/low_rank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lkpdpp {

namespace {

// Process-wide serving metrics. Handles are resolved once per site; the
// hot-path cost is one sharded-atomic increment (see obs/metrics.h).
obs::Counter* EigSkippedTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_kernel_cache_eig_skipped_total");
  return counter;
}
obs::Gauge* ModelVersionGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "lkp_model_version");
  return gauge;
}
obs::Histogram* UpdateApplyMs() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "lkp_serve_update_apply_ms", obs::LatencyBucketsMs());
  return histogram;
}
obs::Gauge* AdmissionQueueDepth() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "lkp_serve_admission_queue_depth");
  return gauge;
}
obs::Histogram* AdmissionWaitMs() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "lkp_serve_admission_wait_ms", obs::LatencyBucketsMs());
  return histogram;
}
obs::Counter* ServeNumericalErrors() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_numerical_errors_total{site=\"serve\"}");
  return counter;
}
// Per-path build counters: exactly one of these increments per kernel
// build, keyed by the representation that actually got built. The
// retired factor_diag_sample series stays registered (at zero) so
// dashboards keyed on the full label set keep resolving.
obs::Counter* PathTotal(ServePath path) {
  static obs::Counter* primal = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"primal\"}");
  static obs::Counter* dual_sample =
      obs::MetricsRegistry::Global().GetCounter(
          "lkp_serve_path_total{path=\"dual_sample\"}");
  static obs::Counter* factor_diag_sample =
      obs::MetricsRegistry::Global().GetCounter(
          "lkp_serve_path_total{path=\"factor_diag_sample\"}");
  static obs::Counter* factor_map =
      obs::MetricsRegistry::Global().GetCounter(
          "lkp_serve_path_total{path=\"factor_map\"}");
  static obs::Counter* diag_map = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"diag_map\"}");
  switch (path) {
    case ServePath::kPrimal:
      return primal;
    case ServePath::kDualSample:
      return dual_sample;
    case ServePath::kFactorDiagSample:
      return factor_diag_sample;
    case ServePath::kFactorMap:
      return factor_map;
    case ServePath::kDiagMap:
      return diag_map;
  }
  return primal;
}

// Counts a stage failure into the by-site NumericalError counter when
// that is what it is (other codes pass through untouched).
const Status& CountIfNumerical(const Status& s) {
  if (s.code() == StatusCode::kNumericalError) ServeNumericalErrors()->Inc();
  return s;
}

}  // namespace

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kMapRerank:
      return "map_rerank";
    case ServeMode::kSample:
      return "sample";
  }
  return "?";
}

const char* ServePathName(ServePath path) {
  switch (path) {
    case ServePath::kPrimal:
      return "primal";
    case ServePath::kDualSample:
      return "dual_sample";
    case ServePath::kFactorDiagSample:
      return "factor_diag_sample";
    case ServePath::kFactorMap:
      return "factor_map";
    case ServePath::kDiagMap:
      return "diag_map";
  }
  return "?";
}

RecommendationService::RecommendationService(
    const Dataset* dataset, RecModel* model,
    std::unique_ptr<const ServingKernelSource> source, ThreadPool* pool,
    ServeConfig config)
    : dataset_(dataset),
      model_(model),
      source_(std::move(source)),
      pool_(pool),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards),
      master_rng_(config.seed) {}

RecommendationService::~RecommendationService() {
  {
    std::lock_guard<std::mutex> lk(adm_mu_);
    adm_stop_ = true;
  }
  adm_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

namespace {

// Shared shape/range validation for both Create overloads. Every real-
// valued field uses the NaN-safe form !(x >= lo && x <= hi): a plain
// `x < lo || x > hi` passes NaN straight through (all comparisons with
// NaN are false) and the service then silently serves garbage blends —
// the exact bug this check replaces.
Status ValidateServeConfig(const ServeConfig& config) {
  if (config.top_k < 1) {
    return Status::InvalidArgument(
        StrFormat("top_k=%d must be >= 1", config.top_k));
  }
  if (config.pool_size < config.top_k) {
    return Status::InvalidArgument(
        StrFormat("pool_size=%d must be >= top_k=%d", config.pool_size,
                  config.top_k));
  }
  if (!(config.kernel_blend_alpha >= 0.0 &&
        config.kernel_blend_alpha <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("kernel_blend_alpha=%.3f outside [0, 1]",
                  config.kernel_blend_alpha));
  }
  if (config.cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (config.cache_shards < 1) {
    return Status::InvalidArgument("cache_shards must be >= 1");
  }
  if (config.max_batch_size < 1) {
    return Status::InvalidArgument(
        StrFormat("max_batch_size=%d must be >= 1", config.max_batch_size));
  }
  if (!(config.batch_deadline_ms >= 0.0) ||
      !std::isfinite(config.batch_deadline_ms)) {
    return Status::InvalidArgument(
        "batch_deadline_ms must be finite and >= 0");
  }
  if (config.parallel_grain < 0) {
    return Status::InvalidArgument("parallel_grain must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RecommendationService>> RecommendationService::Create(
    const Dataset* dataset, RecModel* model, const DiversityKernel* diversity,
    ThreadPool* pool, ServeConfig config) {
  if (dataset == nullptr || model == nullptr || diversity == nullptr) {
    return Status::InvalidArgument(
        "serving requires dataset, model, and diversity kernel");
  }
  LKP_RETURN_IF_ERROR(ValidateServeConfig(config));
  if (model->num_items() != dataset->num_items()) {
    return Status::InvalidArgument(
        StrFormat("model covers %d items but dataset has %d",
                  model->num_items(), dataset->num_items()));
  }
  if (diversity->num_items() != dataset->num_items()) {
    return Status::InvalidArgument(
        StrFormat("diversity kernel covers %d items but dataset has %d",
                  diversity->num_items(), dataset->num_items()));
  }
  model->PrepareForEval();
  return std::unique_ptr<RecommendationService>(new RecommendationService(
      dataset, model, std::make_unique<DiversityKernelSource>(diversity),
      pool, config));
}

Result<std::unique_ptr<RecommendationService>>
RecommendationService::CreateGaussian(const Dataset* dataset, RecModel* model,
                                      Matrix item_embeddings, double sigma,
                                      ThreadPool* pool, ServeConfig config) {
  if (dataset == nullptr || model == nullptr) {
    return Status::InvalidArgument("serving requires dataset and model");
  }
  LKP_RETURN_IF_ERROR(ValidateServeConfig(config));
  if (!(sigma > 0.0) || !std::isfinite(sigma)) {
    return Status::InvalidArgument(
        StrFormat("sigma must be finite and positive, got %g", sigma));
  }
  if (model->num_items() != dataset->num_items()) {
    return Status::InvalidArgument(
        StrFormat("model covers %d items but dataset has %d",
                  model->num_items(), dataset->num_items()));
  }
  if (item_embeddings.rows() != dataset->num_items()) {
    return Status::InvalidArgument(
        StrFormat("embeddings cover %d items but dataset has %d",
                  item_embeddings.rows(), dataset->num_items()));
  }
  if (!item_embeddings.AllFinite()) {
    return Status::InvalidArgument("item embeddings must be finite");
  }
  model->PrepareForEval();
  auto source = std::make_unique<GaussianKernelSource>(
      std::move(item_embeddings), sigma);
  return std::unique_ptr<RecommendationService>(new RecommendationService(
      dataset, model, std::move(source), pool, config));
}

void RecommendationService::InvalidateModel() {
  // Full-invalidation fallback: quiesce in-flight batches the same way
  // ApplyUpdate does, then nuke everything.
  std::unique_lock<std::shared_mutex> epoch_lk(epoch_mu_);
  model_->PrepareForEval();
  cache_.Clear();
}

uint64_t RecommendationService::ApplyUpdate(const UpdateFn& mutate) {
  LKP_TRACE_SPAN("serve.apply_update");
  Stopwatch timer;
  std::unique_lock<std::shared_mutex> epoch_lk(epoch_mu_);
  std::vector<int> touched_users;
  std::vector<int> touched_items;
  mutate(&touched_users, &touched_items);
  cache_.InvalidateUsers(touched_users);
  cache_.InvalidateItems(touched_items);
  const uint64_t version =
      model_version_.fetch_add(1, std::memory_order_relaxed) + 1;
  ModelVersionGauge()->Set(static_cast<double>(version));
  UpdateApplyMs()->Observe(timer.ElapsedMillis());
  return version;
}

int RecommendationService::StageGrain(int n) const {
  if (pool_ == nullptr) return 1;
  if (config_.parallel_grain > 0) return config_.parallel_grain;
  return pool_->GrainFor(n);
}

ServePath ChooseServePath(const ServeConfig& config, int pool_size,
                          int thin_rank) {
  if (config.force_primal) return ServePath::kPrimal;
  const bool thin = thin_rank > 0 && thin_rank < pool_size;
  switch (config.mode) {
    case ServeMode::kMapRerank:
      if (config.kernel_blend_alpha == 0.0) return ServePath::kDiagMap;
      return thin ? ServePath::kFactorMap : ServePath::kPrimal;
    case ServeMode::kSample:
      return config.kernel_blend_alpha == 1.0 && thin ? ServePath::kDualSample
                                                     : ServePath::kPrimal;
  }
  return ServePath::kPrimal;
}

namespace {

// One builder per serve path. Each serves the conditioned kernel
// L = Diag(q)(alpha K_S + (1 - alpha) I)Diag(q) over the pool, exactly,
// given the pool's quality vector q.

// kDiagMap: at alpha == 0 the blend is Diag(q)(delta I)Diag(q), pure
// diagonal, so neither the factor rows nor the materialized submatrix is
// worth building. O(pool) memory, bit-identical selections vs both (see
// DiagKernelRep).
Result<std::shared_ptr<const KernelRep>> BuildDiagMap(const Vector& quality,
                                                      double alpha) {
  LKP_TRACE_SPAN("serve.diag_rep_build");
  LKP_ASSIGN_OR_RETURN(DiagKernelRep rep,
                       DiagKernelRep::Create(quality, 1.0 - alpha));
  return std::shared_ptr<const KernelRep>(
      std::make_shared<const DiagKernelRep>(std::move(rep)));
}

// kFactorMap: greedy MAP only reads entries, so the blended kernel rides
// as factor + diagonal — O(pool * rank) to build and store versus
// O(pool^2 * rank) to materialize.
Result<std::shared_ptr<const KernelRep>> BuildFactorMap(Matrix factor_rows,
                                                        const Vector& quality,
                                                        double alpha) {
  LKP_TRACE_SPAN("serve.factor_rep_build");
  LKP_ASSIGN_OR_RETURN(FactorDiagKernelRep rep,
                       FactorDiagKernelRep::Create(std::move(factor_rows),
                                                   quality, alpha,
                                                   1.0 - alpha));
  return std::shared_ptr<const KernelRep>(
      std::make_shared<const FactorDiagKernelRep>(std::move(rep)));
}

// kDualSample: at alpha == 1 the kernel is exactly Diag(q) F F^T Diag(q),
// so condition in factor space (ScaleRows) and build the dual k-DPP —
// O(n d^2) instead of O(n^3), no n x n materialization.
Result<std::shared_ptr<const KDpp>> BuildDualSample(Matrix factor_rows,
                                                    const Vector& quality,
                                                    int k) {
  LKP_TRACE_SPAN("serve.dual_build");
  LKP_ASSIGN_OR_RETURN(LowRankFactor factor,
                       LowRankFactor::Create(std::move(factor_rows)));
  LKP_ASSIGN_OR_RETURN(KDpp kdpp,
                       KDpp::CreateDual(factor.ScaleRows(quality), k));
  return std::make_shared<const KDpp>(std::move(kdpp));
}

// kPrimal, both halves: materialize L, then either eigendecompose it
// (sampling) or hold it as-is (MAP entries never decompose).
Matrix AssemblePrimal(const ServingKernelSource& source,
                      const std::vector<int>& pool, const Vector& quality,
                      double alpha) {
  LKP_TRACE_SPAN("serve.kernel_assemble");
  Matrix k_sub = source.PoolSubmatrix(pool);
  k_sub *= alpha;
  k_sub.AddDiagonal(1.0 - alpha);
  return AssembleKernel(quality, k_sub);
}

Result<std::shared_ptr<const KDpp>> BuildPrimalSample(Matrix conditioned,
                                                      int k) {
  LKP_TRACE_SPAN("serve.eigendecomp");
  // KDpp keeps its own copy of the kernel, so hand ours over rather than
  // storing it twice per cache entry.
  LKP_ASSIGN_OR_RETURN(KDpp kdpp, KDpp::Create(std::move(conditioned), k));
  return std::make_shared<const KDpp>(std::move(kdpp));
}

}  // namespace

Result<RecommendationService::UserWork> RecommendationService::PrepareUser(
    int user, const Vector& scores) {
  LKP_TRACE_SPAN("serve.prepare_user");
  Stopwatch timer;
  UserWork work;
  work.pool = GroundSetBuilder::BuildServingPool(*dataset_, user, scores,
                                                 config_.pool_size);
  if (work.pool.empty()) {
    work.kernel_ms = timer.ElapsedMillis();
    return work;  // Fully saturated user: nothing left to recommend.
  }
  const int pool_size = static_cast<int>(work.pool.size());
  const int effective_k = std::min(config_.top_k, pool_size);

  const uint64_t hash = HashGroundSet(work.pool);
  // The expensive build, run by the cache with no shard lock held and at
  // most once per key even under concurrent misses (in-flight guard).
  auto build = [&]() -> Result<std::shared_ptr<const ServedKernel>> {
    Vector pool_scores(pool_size);
    for (int i = 0; i < pool_size; ++i) {
      pool_scores[i] = scores[work.pool[static_cast<size_t>(i)]];
    }
    const Vector quality = ApplyQuality(pool_scores, config_.quality);
    const double alpha = config_.kernel_blend_alpha;

    auto built = std::make_shared<ServedKernel>();
    built->items = work.pool;
    built->model_version = model_version();
    built->path = ChooseServePath(config_, pool_size, source_->ThinRank());
    PathTotal(built->path)->Inc();
    if (config_.mode == ServeMode::kMapRerank) EigSkippedTotal()->Inc();

    switch (built->path) {
      case ServePath::kDiagMap: {
        LKP_ASSIGN_OR_RETURN(built->rep, BuildDiagMap(quality, alpha));
        break;
      }
      case ServePath::kFactorMap: {
        LKP_ASSIGN_OR_RETURN(Matrix rows, source_->PoolFactor(work.pool));
        LKP_ASSIGN_OR_RETURN(
            built->rep, BuildFactorMap(std::move(rows), quality, alpha));
        break;
      }
      case ServePath::kDualSample: {
        LKP_ASSIGN_OR_RETURN(Matrix rows, source_->PoolFactor(work.pool));
        LKP_ASSIGN_OR_RETURN(
            built->kdpp,
            BuildDualSample(std::move(rows), quality, effective_k));
        break;
      }
      case ServePath::kPrimal: {
        Matrix conditioned =
            AssemblePrimal(*source_, work.pool, quality, alpha);
        if (config_.mode == ServeMode::kSample) {
          LKP_ASSIGN_OR_RETURN(
              built->kdpp,
              BuildPrimalSample(std::move(conditioned), effective_k));
        } else {
          built->rep = std::make_shared<const PrimalKernelRep>(
              std::move(conditioned));
        }
        break;
      }
      case ServePath::kFactorDiagSample:
        return Status::Internal("serve path factor_diag_sample is retired");
    }
    return std::shared_ptr<const ServedKernel>(std::move(built));
  };
  LKP_ASSIGN_OR_RETURN(
      work.entry,
      cache_.GetOrBuild(user, hash, work.pool, build, &work.cache_hit));
  work.kernel_ms = timer.ElapsedMillis();
  return work;
}

Result<RecResponse> RecommendationService::SelectTopK(int user,
                                                      const UserWork& work,
                                                      Rng* rng) {
  Stopwatch timer;
  RecResponse response;
  response.user = user;
  response.cache_hit = work.cache_hit;
  if (work.entry == nullptr) {
    response.latency_ms = work.kernel_ms;
    return response;
  }
  response.path = work.entry->path;
  const int effective_k =
      std::min(config_.top_k, static_cast<int>(work.pool.size()));

  std::vector<int> local;
  switch (config_.mode) {
    case ServeMode::kMapRerank: {
      LKP_TRACE_SPAN("serve.map_rerank");
      GreedyMapOptions opts;
      opts.max_size = effective_k;
      LKP_ASSIGN_OR_RETURN(local,
                           GreedyMapInference(*work.entry->rep, opts));
      if (static_cast<int>(local.size()) < effective_k) {
        // Rank-deficient corner: backfill by score order so every
        // response still carries exactly effective_k items.
        std::vector<bool> taken(work.pool.size(), false);
        for (int idx : local) taken[static_cast<size_t>(idx)] = true;
        for (size_t i = 0;
             i < work.pool.size() &&
             static_cast<int>(local.size()) < effective_k;
             ++i) {
          if (!taken[i]) local.push_back(static_cast<int>(i));
        }
      }
      break;
    }
    case ServeMode::kSample: {
      LKP_TRACE_SPAN("serve.sample");
      // Ascending pool-local indices == descending score, since the pool
      // is built in descending-score order.
      LKP_ASSIGN_OR_RETURN(local, work.entry->kdpp->Sample(rng));
      break;
    }
  }
  response.items.reserve(local.size());
  for (int idx : local) {
    response.items.push_back(work.pool[static_cast<size_t>(idx)]);
  }
  // A request's latency is its user's kernel stage plus its own
  // selection; duplicate requests for one user each report the shared
  // kernel cost once.
  response.latency_ms = work.kernel_ms + timer.ElapsedMillis();
  return response;
}

Result<std::vector<RecResponse>> RecommendationService::HandleBatch(
    const std::vector<RecRequest>& batch) {
  LKP_TRACE_SPAN("serve.batch");
  Stopwatch batch_timer;
  if (batch.empty()) return std::vector<RecResponse>{};
  // Epoch barrier (shared side): held for the whole batch so every
  // response in it is computed against exactly one model version.
  // Pool workers never acquire this lock — only the batch's entry
  // thread — so fanning the stages out below cannot deadlock.
  std::shared_lock<std::shared_mutex> epoch_lk(epoch_mu_);
  for (const RecRequest& req : batch) {
    if (req.user < 0 || req.user >= dataset_->num_users()) {
      return Status::OutOfRange(
          StrFormat("user %d outside [0, %d)", req.user,
                    dataset_->num_users()));
    }
  }

  // Stage 1: score each unique user's catalog once, in one parallel pass.
  std::unordered_map<int, int> slot_of_user;
  std::vector<int> unique_users;
  std::vector<int> request_slot(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto [it, inserted] = slot_of_user.emplace(
        batch[i].user, static_cast<int>(unique_users.size()));
    if (inserted) unique_users.push_back(batch[i].user);
    request_slot[i] = it->second;
  }
  const int num_unique = static_cast<int>(unique_users.size());
  std::vector<Vector> scores(unique_users.size());
  auto score_user = [&](int i) {
    scores[static_cast<size_t>(i)] =
        model_->ScoreAllItems(unique_users[static_cast<size_t>(i)]);
  };
  {
    LKP_TRACE_SPAN("serve.score");
    if (pool_ != nullptr) {
      pool_->ParallelFor(num_unique, StageGrain(num_unique), score_user);
    } else {
      for (int i = 0; i < num_unique; ++i) score_user(i);
    }
  }

  // Stage 2: fork one Rng per request in request order. Fork order is
  // independent of thread count AND of batch slicing, which is what
  // keeps sampling-mode responses bit-identical under any parallelism
  // and under async admission.
  std::vector<Rng> rngs;
  if (config_.mode == ServeMode::kSample) {
    rngs.reserve(batch.size());
    std::lock_guard<std::mutex> lk(rng_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      rngs.push_back(master_rng_.Fork());
    }
  }

  // Stage 3: kernel work once per unique user — duplicate requests for
  // a user share the O(n^3) build even when the cache is cold or off
  // (and, through the cache's in-flight guard, even across concurrent
  // batches). Grain stays 1: per-user cost is large and uneven (hit vs
  // O(n^3) miss), so fine-grained claiming balances best.
  std::vector<UserWork> works(unique_users.size());
  std::vector<Status> user_statuses(unique_users.size(), Status::OK());
  auto prepare_user = [&](int i) {
    const size_t idx = static_cast<size_t>(i);
    Result<UserWork> w = PrepareUser(unique_users[idx], scores[idx]);
    if (w.ok()) {
      works[idx] = std::move(w).ValueOrDie();
    } else {
      user_statuses[idx] = w.status();
    }
  };
  {
    LKP_TRACE_SPAN("serve.prepare");
    if (pool_ != nullptr) {
      pool_->ParallelFor(num_unique, prepare_user);
    } else {
      for (int i = 0; i < num_unique; ++i) prepare_user(i);
    }
  }
  for (const Status& s : user_statuses) {
    if (!s.ok()) return CountIfNumerical(s);
  }

  // Stage 4: per-request selection, fanned out over the pool.
  std::vector<RecResponse> responses(batch.size());
  std::vector<Status> statuses(batch.size(), Status::OK());
  auto serve_request = [&](int i) {
    const size_t idx = static_cast<size_t>(i);
    Rng* rng = rngs.empty() ? nullptr : &rngs[idx];
    Result<RecResponse> r =
        SelectTopK(batch[idx].user,
                   works[static_cast<size_t>(request_slot[idx])], rng);
    if (r.ok()) {
      responses[idx] = std::move(r).ValueOrDie();
    } else {
      statuses[idx] = r.status();
    }
  };
  const int num_requests = static_cast<int>(batch.size());
  {
    LKP_TRACE_SPAN("serve.select");
    if (pool_ != nullptr) {
      pool_->ParallelFor(num_requests, StageGrain(num_requests),
                         serve_request);
    } else {
      for (int i = 0; i < num_requests; ++i) serve_request(i);
    }
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return CountIfNumerical(s);
  }

  LKP_TRACE_SPAN("serve.respond");
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const RecResponse& r : responses) latencies.push_back(r.latency_ms);
  recorder_.RecordBatch(static_cast<long>(batch.size()),
                        batch_timer.ElapsedSeconds(), latencies.data(),
                        latencies.size());
  return responses;
}

Result<RecResponse> RecommendationService::HandleOne(int user) {
  LKP_ASSIGN_OR_RETURN(std::vector<RecResponse> responses,
                       HandleBatch({RecRequest{user}}));
  return responses.front();
}

std::future<Result<RecResponse>> RecommendationService::SubmitAsync(
    const RecRequest& request) {
  std::future<Result<RecResponse>> future;
  {
    std::lock_guard<std::mutex> lk(adm_mu_);
    if (!batcher_started_) {
      batcher_started_ = true;
      batcher_ = std::thread([this] { BatcherLoop(); });
    }
    const auto now = std::chrono::steady_clock::now();
    if (adm_queue_.empty()) {
      adm_oldest_ = now;
    }
    adm_queue_.emplace_back();
    adm_queue_.back().request = request;
    adm_queue_.back().enqueue = now;
    future = adm_queue_.back().promise.get_future();
    AdmissionQueueDepth()->Add(1.0);
  }
  adm_cv_.notify_one();
  return future;
}

void RecommendationService::Flush() {
  std::unique_lock<std::mutex> lk(adm_mu_);
  if (adm_queue_.empty() && !adm_busy_) return;
  adm_flush_ = true;
  adm_cv_.notify_all();
  adm_idle_cv_.wait(lk, [this] { return adm_queue_.empty() && !adm_busy_; });
}

void RecommendationService::BatcherLoop() {
  std::unique_lock<std::mutex> lk(adm_mu_);
  while (true) {
    adm_cv_.wait(lk, [this] { return adm_stop_ || !adm_queue_.empty(); });
    if (adm_queue_.empty()) {
      if (adm_stop_) return;
      continue;
    }
    // Occupancy/deadline window: flush early when the batch fills, at
    // the deadline otherwise. Stop/Flush cut the wait short.
    const auto deadline =
        adm_oldest_ + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              config_.batch_deadline_ms));
    adm_cv_.wait_until(lk, deadline, [this] {
      return adm_stop_ || adm_flush_ ||
             static_cast<int>(adm_queue_.size()) >= config_.max_batch_size;
    });
    const size_t take = std::min(
        adm_queue_.size(), static_cast<size_t>(config_.max_batch_size));
    std::vector<Pending> pending;
    pending.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      pending.push_back(std::move(adm_queue_.front()));
      adm_queue_.pop_front();
    }
    AdmissionQueueDepth()->Add(-static_cast<double>(take));
    // Each request's enqueue -> dequeue wait, as a histogram and (when
    // tracing) one span per request anchored at its enqueue instant.
    {
      const auto dequeued = std::chrono::steady_clock::now();
      obs::Histogram* wait_hist = AdmissionWaitMs();
      const bool traced = obs::TraceEnabled();
      for (const Pending& p : pending) {
        const double wait_ms =
            std::chrono::duration<double, std::milli>(dequeued - p.enqueue)
                .count();
        wait_hist->Observe(wait_ms);
        if (traced) {
          obs::RecordSpan("serve.admission_wait",
                          obs::ToTraceMicros(p.enqueue), wait_ms * 1e3);
        }
      }
    }
    if (!adm_queue_.empty()) {
      // The remainder became the oldest pending work just now as far as
      // the deadline is concerned (its true arrival is at most one
      // deadline old, so worst-case wait stays bounded by 2x).
      adm_oldest_ = std::chrono::steady_clock::now();
    } else {
      adm_flush_ = false;
    }
    adm_busy_ = true;
    lk.unlock();

    if (config_.on_batch_for_test) {
      config_.on_batch_for_test(static_cast<int>(pending.size()));
    }

    std::vector<RecRequest> batch;
    {
      LKP_TRACE_SPAN("serve.batch_assembly");
      batch.reserve(pending.size());
      for (const Pending& p : pending) batch.push_back(p.request);
    }
    Result<std::vector<RecResponse>> served = HandleBatch(batch);
    if (served.ok()) {
      for (size_t i = 0; i < pending.size(); ++i) {
        pending[i].promise.set_value(std::move((*served)[i]));
      }
    } else {
      for (Pending& p : pending) {
        p.promise.set_value(served.status());
      }
    }

    lk.lock();
    adm_busy_ = false;
    if (adm_queue_.empty()) {
      // Flush rendezvous complete: nothing queued, nothing in flight.
      // Resetting the flag HERE (not only when a take drains the queue
      // above) closes a leak — a Flush() issued while the batcher was
      // busy with the queue already empty used to leave adm_flush_ set,
      // and the NEXT batch skipped its occupancy/deadline window.
      adm_flush_ = false;
      adm_idle_cv_.notify_all();
      if (adm_stop_) return;
    }
  }
}

ServeStats RecommendationService::Snapshot() const {
  ServeStats out;
  recorder_.Snapshot(&out);
  out.cache_hits = cache_.hits();
  out.cache_misses = cache_.misses();
  return out;
}

void RecommendationService::ResetStats() {
  recorder_.Reset();
  cache_.ResetCounters();
}

}  // namespace lkpdpp
