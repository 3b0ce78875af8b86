// The three serving workloads. They share one set-up: a 100k-user
// serving world, an MF model of dimension 16, a rank-16 diversity kernel
// pre-trained with the experiment runner's recipe, the default
// ServeConfig except `mode`, Zipf(1.05) traffic drawn from the workload
// seed, and a cache warmed before timing.
//
//   map_batch      closed loop: one caller, back-to-back HandleBatch(64)
//                  in MAP-rerank mode; caller + ThreadPool(2).
//   sample_async   open loop: Poisson arrivals through SubmitAsync in
//                  sampling mode; generator + batcher + ThreadPool(2).
//   stream_update  map_batch's traffic and config, plus a fixed number of
//                  seeded interaction events enqueued and applied
//                  (ModelUpdater::ApplyPending) after every batch.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "kernels/diversity_kernel.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "sampling/ground_set_builder.h"
#include "serve/model_update.h"
#include "serve/service.h"
#include "workloads.h"

namespace lkpbench {
namespace {

using lkpdpp::Dataset;
using lkpdpp::DiversityKernel;
using lkpdpp::MfModel;
using lkpdpp::ModelUpdater;
using lkpdpp::RecModel;
using lkpdpp::RecommendationService;
using lkpdpp::RecRequest;
using lkpdpp::RecResponse;
using lkpdpp::Result;
using lkpdpp::ThreadPool;
using Clock = std::chrono::steady_clock;

enum class ServeKind { kMapBatch, kSampleAsync, kStreamUpdate };

constexpr int kUsers = 100000;
constexpr int kItems = 2000;
constexpr int kDim = 16;
constexpr double kZipfExponent = 1.05;
constexpr int kBatchSize = 64;
constexpr int kWarmRequestsMap = 4096;
// Sampling-mode warm-up pays a spectral build per distinct user, so it
// covers the Zipf head only.
constexpr int kWarmRequestsSample = 1024;
// stream_bench's gentlest update rate: each update still evicts ~40 entries
// (an item sits in many pools), and the hit rate falls from ~0.7 to ~0.3.
constexpr int kEventsPerBatch = 2;
// sample_async's offered load: about half of the ~200 req/s at which
// the service held p99 latency under 100 ms on a 4-vCPU x86 VM (a
// backlog grows past ~320 req/s there).
constexpr double kOfferedRps = 100.0;
// The open loop is invalid when its generator's p99 send lag exceeds
// five mean inter-arrival gaps (50 ms): it no longer offers the schedule.
// On a shared VM, host contention alone pushed p99 lag to ~20 ms.
constexpr double kMaxGenLagP99Ms = 5000.0 / kOfferedRps;
// Pool workers of every serving workload. With the caller (closed loops)
// or the batcher (open loop) that makes three busy threads on a 4-core
// box: the fourth core absorbs the OS and neighbours. With all four busy,
// a preempted worker stalls its whole batch and p99 varied by 18-31%
// across runs on a shared VM; with three it varied by about 3%.
constexpr int kPoolThreads = 2;
// Responses covered by the cross-run digest (a prefix every run reaches).
constexpr long kDigestRequestsSync = 4096;
constexpr long kDigestRequestsAsync = 256;
// Score vectors kept from the traced run for the pool-build replay.
constexpr size_t kScoreCaptureLimit = 512;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Zipf(s) popularity over users; a seeded shuffle decorrelates rank
/// from user id.
class ZipfUsers {
 public:
  ZipfUsers(int num_users, double exponent, uint64_t seed)
      : rng_(seed), rank_to_user_(static_cast<size_t>(num_users)) {
    cdf_.reserve(static_cast<size_t>(num_users));
    for (int r = 0; r < num_users; ++r) {
      total_ += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_.push_back(total_);
    }
    for (int u = 0; u < num_users; ++u) {
      rank_to_user_[static_cast<size_t>(u)] = u;
    }
    lkpdpp::Rng shuffle(DeriveSeed(seed, 1));
    shuffle.Shuffle(&rank_to_user_);
  }

  int Next() {
    const double x = rng_.Uniform() * total_;
    const size_t rank = std::min(
        static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), x) -
                            cdf_.begin()),
        cdf_.size() - 1);
    return rank_to_user_[rank];
  }

 private:
  lkpdpp::Rng rng_;
  std::vector<double> cdf_;
  double total_ = 0.0;
  std::vector<int> rank_to_user_;
};

/// Forwards every call to the served model and records a span around
/// each ScoreAllItems (the scoring stage of HandleBatch runs it once per
/// unique user of a batch, on pool threads). Keeps a bounded number of
/// score vectors for the pool-build replay.
class TimedModel final : public RecModel {
 public:
  TimedModel(RecModel* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  int num_users() const override { return inner_->num_users(); }
  int num_items() const override { return inner_->num_items(); }
  std::unique_ptr<Batch> StartBatch() override { return inner_->StartBatch(); }
  void PrepareForEval() override { inner_->PrepareForEval(); }
  std::vector<lkpdpp::ad::Param*> Params() override {
    return inner_->Params();
  }
  lkpdpp::QualityTransform PreferredQuality() const override {
    return inner_->PreferredQuality();
  }

  lkpdpp::Vector ScoreAllItems(int user) const override {
    const double begin = rec_->Now();
    lkpdpp::Vector scores = inner_->ScoreAllItems(user);
    rec_->Add(kModelsScore, parent_.load(std::memory_order_relaxed), user,
              begin, rec_->Now());
    std::lock_guard<std::mutex> lk(capture_mu_);
    if (captured_.size() < kScoreCaptureLimit) {
      captured_.emplace_back(user, scores);
    }
    return scores;
  }

  /// Parent span of the scoring spans that follow.
  void set_parent(int span) { parent_.store(span, std::memory_order_relaxed); }

  std::vector<std::pair<int, lkpdpp::Vector>> captured() const {
    std::lock_guard<std::mutex> lk(capture_mu_);
    return captured_;
  }

 private:
  RecModel* inner_;
  SpanRecorder* rec_;
  std::atomic<int> parent_{-1};
  mutable std::mutex capture_mu_;
  mutable std::vector<std::pair<int, lkpdpp::Vector>> captured_;
};

struct ServingSetup {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<MfModel> mf;
  std::unique_ptr<DiversityKernel> kernel;
  std::unique_ptr<TimedModel> timed;  // Traced passes only.
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RecommendationService> service;
  std::unique_ptr<ModelUpdater> updater;  // stream_update only.
  std::unique_ptr<ZipfUsers> traffic;
  std::unique_ptr<ZipfUsers> event_users;
  lkpdpp::Rng event_rng;
};

std::unique_ptr<ServingSetup> BuildServing(ServeKind kind, uint64_t seed,
                                           SpanRecorder* rec) {
  auto s = std::make_unique<ServingSetup>();
  lkpdpp::ServingWorldConfig world;
  world.num_users = kUsers;
  world.num_items = kItems;
  s->dataset = std::make_unique<Dataset>(
      OrDie(lkpdpp::GenerateServingWorld(world), "serving world"));

  MfModel::Config mf;
  mf.embedding_dim = kDim;
  mf.seed = 7;
  s->mf = std::make_unique<MfModel>(s->dataset->num_users(),
                                    s->dataset->num_items(), mf);

  s->pool = std::make_unique<ThreadPool>(kPoolThreads);
  // The experiment runner's pre-training recipe (exp/runner.cc).
  DiversityKernel::TrainConfig kcfg;
  kcfg.rank = kDim;
  kcfg.epochs = 8;
  kcfg.pairs_per_epoch = 300;
  kcfg.set_size = 5;
  kcfg.pool = s->pool.get();
  s->kernel = std::make_unique<DiversityKernel>(
      OrDie(DiversityKernel::Train(*s->dataset, kcfg), "diversity kernel"));

  RecModel* served = s->mf.get();
  if (rec != nullptr) {
    s->timed = std::make_unique<TimedModel>(s->mf.get(), rec);
    served = s->timed.get();
  }
  lkpdpp::ServeConfig config;
  config.mode = kind == ServeKind::kSampleAsync ? lkpdpp::ServeMode::kSample
                                                : lkpdpp::ServeMode::kMapRerank;
  s->service = OrDie(
      RecommendationService::Create(s->dataset.get(), served,
                                    s->kernel.get(), s->pool.get(), config),
      "service");
  if (kind == ServeKind::kStreamUpdate) {
    lkpdpp::UpdateConfig ucfg;
    ucfg.pool = s->pool.get();
    s->updater = OrDie(ModelUpdater::Create(s->dataset.get(), served,
                                            s->kernel.get(),
                                            s->service.get(), ucfg),
                       "model updater");
  }
  s->traffic = std::make_unique<ZipfUsers>(kUsers, kZipfExponent,
                                           DeriveSeed(seed, 14));
  s->event_users = std::make_unique<ZipfUsers>(kUsers, kZipfExponent,
                                               DeriveSeed(seed, 15));
  s->event_rng = lkpdpp::Rng(DeriveSeed(seed, 16));

  const int warm = kind == ServeKind::kSampleAsync ? kWarmRequestsSample
                                                   : kWarmRequestsMap;
  std::vector<RecRequest> batch(kBatchSize);
  for (int done = 0; done < warm; done += kBatchSize) {
    for (RecRequest& r : batch) r.user = s->traffic->Next();
    OrDie(s->service->HandleBatch(batch), "cache warm-up");
  }
  return s;
}

/// Per-path response tallies: RecResponse::latency_ms split by cache hit.
struct PathTally {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
};

struct ServePass {
  long sent = 0;
  long completed = 0;
  long failed = 0;   // Requests whose batch or future returned an error.
  long invalid = 0;  // Responses failing the output checks.
  long batches = 0;
  long updates = 0;
  long failed_updates = 0;
  double wall_s = 0.0;
  std::vector<double> caller_ms;
  std::vector<Window> windows;  // Closed loops.
  double slowdown = 1.0;        // Open loop: probes before and after.
  std::vector<double> service_ms;
  std::vector<double> queue_ms;
  std::vector<double> batch_ms;
  std::vector<double> update_ms;
  std::vector<double> gen_lag_ms;
  std::vector<PathTally> paths = std::vector<PathTally>(PathNames().size());
  long hits = 0;
  long events_applied = 0;
  long kernel_pairs = 0;
  long invalidated = 0;
  double exclusive_ms_sum = 0.0;
  long exclusive_count = 0;
  long pool_tasks = 0;
  long pool_steals = 0;
  long builds = 0;
  long evictions = 0;
  lkpdpp::ServeStats stats;
  Digest digest;
  long digested = 0;
  // sample_async: every response by request index, for the pool check.
  std::vector<int> users;
  std::vector<std::vector<int>> items;
  int root = -1;
};

/// Output contract of one response: min(top_k, pool) distinct catalog
/// items, none a train or validation positive of the user.
bool ResponseValid(const Dataset& ds, int user, const RecResponse& r,
                   int top_k, int pool_size) {
  if (r.user != user) return false;
  const long unobserved_at_least =
      static_cast<long>(ds.num_items()) -
      static_cast<long>(ds.TrainItems(user).size() + ds.ValItems(user).size());
  const long want = std::min<long>(top_k, pool_size);
  if (unobserved_at_least >= want) {
    if (static_cast<long>(r.items.size()) != want) return false;
  } else if (static_cast<long>(r.items.size()) > want) {
    return false;
  }
  for (size_t i = 0; i < r.items.size(); ++i) {
    const int item = r.items[i];
    if (item < 0 || item >= ds.num_items()) return false;
    if (ds.IsObserved(user, item)) return false;
    for (size_t j = 0; j < i; ++j) {
      if (r.items[j] == item) return false;
    }
  }
  return true;
}

void FoldResponse(const ServingSetup& s, int user, const RecResponse& r,
                  double caller_ms, long digest_limit, ServePass* p) {
  const lkpdpp::ServeConfig& config = s.service->config();
  ++p->completed;
  if (!ResponseValid(*s.dataset, user, r, config.top_k, config.pool_size)) {
    ++p->invalid;
  }
  p->caller_ms.push_back(caller_ms);
  p->service_ms.push_back(r.latency_ms);
  p->queue_ms.push_back(std::max(0.0, caller_ms - r.latency_ms));
  PathTally& tally = p->paths[static_cast<size_t>(r.path)];
  (r.cache_hit ? tally.hit_ms : tally.miss_ms).push_back(r.latency_ms);
  if (r.cache_hit) ++p->hits;
  if (p->digested < digest_limit) {
    p->digest.Mix(static_cast<uint64_t>(user));
    for (int item : r.items) p->digest.Mix(static_cast<uint64_t>(item));
    p->digest.Mix(~0ULL);
    ++p->digested;
  }
}

lkpdpp::obs::Counter* PoolCounter(const char* name) {
  return lkpdpp::obs::MetricsRegistry::Global().GetCounter(name);
}

lkpdpp::obs::Histogram* ExclusiveHistogram() {
  return lkpdpp::obs::MetricsRegistry::Global().GetHistogram(
      "lkp_serve_update_apply_ms", lkpdpp::obs::LatencyBucketsMs());
}

/// Counter deltas over a timed pass.
class PassCounters {
 public:
  PassCounters()
      : tasks_(PoolCounter("lkp_pool_tasks_total")->Value()),
        steals_(PoolCounter("lkp_pool_steals_total")->Value()),
        excl_count_(ExclusiveHistogram()->Count()),
        excl_sum_(ExclusiveHistogram()->Sum()) {}

  void Finish(const ServingSetup& s, ServePass* p) const {
    p->pool_tasks = PoolCounter("lkp_pool_tasks_total")->Value() - tasks_;
    p->pool_steals = PoolCounter("lkp_pool_steals_total")->Value() - steals_;
    p->exclusive_count = ExclusiveHistogram()->Count() - excl_count_;
    p->exclusive_ms_sum = ExclusiveHistogram()->Sum() - excl_sum_;
    p->stats = s.service->Snapshot();
    p->builds = s.service->cache().builds();
    p->evictions = s.service->cache().evictions();
  }

 private:
  long tasks_;
  long steals_;
  long excl_count_;
  double excl_sum_;
};

/// stream_update's writes after a batch: Enqueue each event, then one
/// ApplyPending (stream_bench's deterministic interleave).
void ApplyEvents(ServingSetup& s,
                 const std::vector<lkpdpp::InteractionEvent>& events, long b,
                 SpanRecorder* rec, ServePass* p) {
  {
    ScopedSpan span(rec, kUpdateEnqueue, p->root, b);
    for (const lkpdpp::InteractionEvent& e : events) s.updater->Enqueue(e);
  }
  ScopedSpan span(rec, kUpdateApply, p->root, b);
  const Clock::time_point u0 = Clock::now();
  Result<lkpdpp::UpdateResult> applied = s.updater->ApplyPending();
  p->update_ms.push_back(MsBetween(u0, Clock::now()));
  ++p->updates;
  if (!applied.ok()) {
    ++p->failed_updates;
    return;
  }
  p->events_applied += applied->events_applied;
  p->kernel_pairs += applied->kernel_pairs;
  p->invalidated += applied->invalidated_entries;
  if (p->digested < kDigestRequestsSync) {
    p->digest.Mix(applied->model_version);
  }
}

/// map_batch and stream_update: back-to-back HandleBatch calls in
/// kWindows windows, with the reference probe timed between windows;
/// with updates, each batch is followed by ApplyEvents.
ServePass RunClosedLoop(ServingSetup& s, bool with_updates, double seconds,
                        SpanRecorder* rec) {
  ServePass p;
  s.service->ResetStats();
  const PassCounters counters;
  const Clock::time_point t0 = Clock::now();
  p.root = rec != nullptr ? rec->Open(kBench, -1, 0) : -1;
  std::vector<RecRequest> batch(kBatchSize);
  std::vector<lkpdpp::InteractionEvent> events;
  double probe = TimedProbe(rec, p.root);
  for (int w = 0; w < kWindows; ++w) {
    Window window;
    const Clock::time_point w0 = Clock::now();
    while (SecondsSince(w0) < seconds / kWindows) {
      const long b = p.batches;
      {
        ScopedSpan client(rec, kBenchClient, p.root, b);
        for (RecRequest& r : batch) r.user = s.traffic->Next();
      }
      double batch_ms = 0.0;
      Result<std::vector<RecResponse>> out = [&] {
        ScopedSpan span(rec, kServeBatch, p.root, b);
        if (s.timed != nullptr) s.timed->set_parent(span.index());
        const Clock::time_point b0 = Clock::now();
        Result<std::vector<RecResponse>> r = s.service->HandleBatch(batch);
        batch_ms = MsBetween(b0, Clock::now());
        return r;
      }();
      ++p.batches;
      p.sent += kBatchSize;
      {
        ScopedSpan client(rec, kBenchClient, p.root, b);
        p.batch_ms.push_back(batch_ms);
        if (!out.ok()) {
          p.failed += kBatchSize;
        } else {
          for (size_t i = 0; i < batch.size(); ++i) {
            FoldResponse(s, batch[i].user, (*out)[i], batch_ms,
                         kDigestRequestsSync, &p);
            window.latency_ms.push_back(batch_ms);
          }
        }
        if (with_updates) {
          events.clear();
          while (static_cast<int>(events.size()) < kEventsPerBatch) {
            const int user = s.event_users->Next();
            const std::vector<int>& positives = s.dataset->TrainItems(user);
            if (positives.empty()) continue;
            events.push_back(lkpdpp::InteractionEvent{
                user, positives[static_cast<size_t>(s.event_rng.UniformInt(
                          static_cast<int>(positives.size())))]});
          }
        }
      }
      if (with_updates) ApplyEvents(s, events, b, rec, &p);
    }
    window.seconds = SecondsSince(w0);
    const double next = TimedProbe(rec, p.root);
    window.slowdown = Slowdown(probe, next);
    probe = next;
    p.windows.push_back(std::move(window));
  }
  p.wall_s = SecondsSince(t0);
  if (rec != nullptr) rec->Close(p.root);
  counters.Finish(s, &p);
  return p;
}

/// sample_async: an open loop. The send schedule (Poisson, from the
/// workload seed) is fixed before timing; each request is timed from its
/// scheduled send, so a stalled generator or a growing backlog shows as
/// latency. One thread both sends and collects: between sends it blocks
/// on the oldest outstanding future (batches resolve in FIFO order). The
/// reference probe runs just before the first send and just after the
/// last response, never inside the loop, where it would stall the
/// generator and compete with the service.
ServePass RunOpenLoop(ServingSetup& s, double seconds, uint64_t seed,
                      SpanRecorder* rec) {
  ServePass p;
  const std::vector<double> schedule =
      PoissonSchedule(kOfferedRps, seconds, DeriveSeed(seed, 17));
  p.users.resize(schedule.size());
  for (int& u : p.users) u = s.traffic->Next();
  p.items.resize(schedule.size());

  const double probe_before = ProbeMs();
  s.service->ResetStats();
  const PassCounters counters;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::this_thread::sleep_until(t0);
  p.root = rec != nullptr ? rec->Open(kBench, -1, 0) : -1;
  if (s.timed != nullptr) s.timed->set_parent(p.root);
  const auto due_of = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
  };
  struct Outstanding {
    size_t index;
    std::future<Result<RecResponse>> future;
  };
  std::deque<Outstanding> outstanding;
  const auto harvest = [&] {
    ScopedSpan client(rec, kBenchClient, p.root, -1);
    Outstanding& o = outstanding.front();
    Result<RecResponse> r = o.future.get();
    const Clock::time_point ready = Clock::now();
    const Clock::time_point due = due_of(o.index);
    if (rec != nullptr) {
      rec->Add(kServeRequest, p.root, static_cast<long>(o.index),
               rec->At(due), rec->At(ready));
    }
    if (!r.ok()) {
      ++p.failed;
    } else {
      p.items[o.index] = r->items;
      FoldResponse(s, p.users[o.index], *r, MsBetween(due, ready),
                   kDigestRequestsAsync, &p);
    }
    outstanding.pop_front();
  };
  const auto wait_span = [&](Clock::time_point since, long id) {
    if (rec != nullptr) {
      rec->Add(kBenchWait, p.root, id, rec->At(since), rec->Now());
    }
  };

  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due = due_of(i);
    while (true) {
      const Clock::time_point now = Clock::now();
      if (now >= due) break;
      if (outstanding.empty()) {
        std::this_thread::sleep_until(due);
        wait_span(now, static_cast<long>(i));
        break;
      }
      const bool ready = outstanding.front().future.wait_until(due) ==
                         std::future_status::ready;
      wait_span(now, static_cast<long>(i));
      if (!ready) break;
      harvest();
    }
    ScopedSpan client(rec, kBenchClient, p.root, static_cast<long>(i));
    p.gen_lag_ms.push_back(MsBetween(due, Clock::now()));
    outstanding.push_back(
        Outstanding{i, s.service->SubmitAsync(RecRequest{p.users[i]})});
    ++p.sent;
  }
  while (!outstanding.empty()) {
    const Clock::time_point now = Clock::now();
    outstanding.front().future.wait();
    wait_span(now, -1);
    harvest();
  }
  p.wall_s = SecondsSince(t0);
  if (rec != nullptr) rec->Close(p.root);
  counters.Finish(s, &p);
  p.slowdown = Slowdown(probe_before, ProbeMs());
  return p;
}

ServePass RunPass(ServeKind kind, ServingSetup& s, const Options& opts,
                  SpanRecorder* rec) {
  return kind == ServeKind::kSampleAsync
             ? RunOpenLoop(s, opts.seconds, opts.seed, rec)
             : RunClosedLoop(s, kind == ServeKind::kStreamUpdate, opts.seconds,
                             rec);
}

/// Checks that need the whole pass: sample_async responses must lie in
/// their user's serving pool (recomputed from the unchanged model).
void CheckPass(ServeKind kind, const ServingSetup& s, const ServePass& p,
               Report* report) {
  report->AddAttempted(p.sent + p.updates);
  report->AddFailed(p.failed + p.invalid + p.failed_updates);
  report->Check(p.invalid == 0, std::to_string(p.invalid) +
                                    " responses broke the output contract");
  if (kind != ServeKind::kSampleAsync) return;
  std::unordered_map<int, std::vector<int>> pools;
  long outside = 0;
  for (size_t i = 0; i < p.users.size(); ++i) {
    const int user = p.users[i];
    auto it = pools.find(user);
    if (it == pools.end()) {
      std::vector<int> pool = lkpdpp::GroundSetBuilder::BuildServingPool(
          *s.dataset, user, s.mf->ScoreAllItems(user),
          s.service->config().pool_size);
      std::sort(pool.begin(), pool.end());
      it = pools.emplace(user, std::move(pool)).first;
    }
    for (int item : p.items[i]) {
      if (!std::binary_search(it->second.begin(), it->second.end(), item)) {
        ++outside;
        break;
      }
    }
  }
  report->AddFailed(outside);
  report->Check(outside == 0, std::to_string(outside) +
                                  " sampled responses left their user's "
                                  "serving pool");
  const Distribution lag(p.gen_lag_ms);
  std::printf("open loop: offered %.1f req/s; sent=%ld succeeded=%ld "
              "failed=%ld; gen_lag p50=%.3f ms p99=%.3f ms (n=%zu, bound "
              "%.1f ms)\n",
              kOfferedRps, p.sent,
              p.completed, p.failed, lag.Percentile(0.5),
              lag.Percentile(0.99), lag.size(), kMaxGenLagP99Ms);
  report->Check(lag.Percentile(0.99) <= kMaxGenLagP99Ms,
                "open-loop generator fell behind its schedule (run invalid)");
}

/// Gated metrics. The closed loops report medians over their
/// probe-rescaled windows. The open loop reports its achieved rate, which
/// its schedule fixes, and the p50/p99 of every request, rescaled by the
/// probes around the whole pass: windows of ~150 requests would put their
/// p50 now in the hit, now in the miss cluster of its latencies.
void ReportEndToEnd(ServeKind kind, const ServePass& p, Report* report) {
  const Distribution all(p.caller_ms);
  const long n = p.completed;
  std::printf("whole pass: %.1f req/s, latency p50=%.4f ms p99=%.4f ms "
              "(n=%ld)\n",
              p.wall_s > 0 ? n / p.wall_s : 0.0, all.Percentile(0.5),
              all.Percentile(0.99), n);
  if (kind == ServeKind::kSampleAsync) {
    std::printf("slowdown vs reference %.3f\n", p.slowdown);
    report->Set("ops_per_s", p.wall_s > 0 ? n / p.wall_s : 0.0, "1/s", n);
    report->Set("latency_p50_ms", all.Percentile(0.50) / p.slowdown, "ms", n);
    report->Set("latency_p99_ms", all.Percentile(0.99) / p.slowdown, "ms", n);
  } else {
    double slowdown = 0.0;
    for (const Window& win : p.windows) {
      slowdown += win.slowdown / static_cast<double>(p.windows.size());
    }
    std::printf("mean slowdown vs reference %.3f\n", slowdown);
    const WindowedSummary w = SummarizeWindows(p.windows);
    report->Set("ops_per_s", w.rate_per_s, "1/s", n);
    report->Set("latency_p50_ms", w.p50, "ms", n);
    report->Set("latency_p99_ms", w.p99, "ms", n);
  }
  if (!p.update_ms.empty()) {
    report->SetPercentiles("update", "_ms", Distribution(p.update_ms), "ms");
  }
}

void ReportLayers(ServeKind kind, const ServingSetup& s, const ServePass& p,
                  const SpanRecorder& rec, Report* report) {
  const double requests = std::max<double>(1.0, p.completed);
  const double batches = std::max<double>(
      1.0, kind == ServeKind::kSampleAsync ? p.stats.batches : p.batches);
  if (!p.batch_ms.empty()) {
    report->SetPercentiles("serve.batch", "_ms", Distribution(p.batch_ms),
                           "ms");
  }
  report->SetPercentiles("serve.service", "_ms", Distribution(p.service_ms),
                         "ms");
  report->SetPercentiles("serve.queue", "_ms", Distribution(p.queue_ms), "ms");
  report->Set("serve.batch_occupancy", p.stats.mean_batch_occupancy, "count");
  report->Set("serve.busy_frac",
              p.stats.wall_seconds > 0
                  ? p.stats.busy_seconds / p.stats.wall_seconds
                  : 0.0,
              "ratio");
  report->Set("cache.hit_rate", p.hits / requests, "ratio", p.completed);
  report->Set("cache.builds_per_req", p.builds / requests, "1/req");
  report->Set("cache.evictions_per_req", p.evictions / requests, "1/req");
  if (p.updates > 0) {
    report->Set("cache.invalidations_per_update",
                static_cast<double>(p.invalidated) / p.updates, "1/update");
  }
  std::printf("\n--- kernel build by path (p50 latency_ms; miss - hit is "
              "the build) ---\n");
  double hit_term = 0.0;
  double build_term = 0.0;
  std::string largest = "none";
  for (size_t i = 0; i < PathNames().size(); ++i) {
    const std::string& path = PathNames()[i];
    const Distribution hit(p.paths[i].hit_ms);
    const Distribution miss(p.paths[i].miss_ms);
    const double share = (hit.size() + miss.size()) / requests;
    report->Set("path_share." + path, share, "ratio",
                static_cast<long>(hit.size() + miss.size()));
    report->Set("miss_ms." + path, miss.Percentile(0.5), "ms",
                static_cast<long>(miss.size()));
    report->Set("hit_ms." + path, hit.Percentile(0.5), "ms",
                static_cast<long>(hit.size()));
    if (hit.size() + miss.size() == 0) continue;
    const double path_hit = share * hit.Percentile(0.5);
    const double path_build = (miss.size() / requests) *
                              (miss.Percentile(0.5) - hit.Percentile(0.5));
    std::printf("%-20s share=%.4f hits=%zu misses=%zu hit_p50=%.4f ms "
                "miss_p50=%.4f ms -> per-request hit term %.4f ms, build "
                "term %.4f ms\n",
                path.c_str(), share, hit.size(), miss.size(),
                hit.Percentile(0.5), miss.Percentile(0.5), path_hit,
                path_build);
    hit_term += path_hit;
    if (path_build > build_term) {
      build_term = path_build;
      largest = path;
    }
  }
  const double service_mean = Distribution(p.service_ms).Mean();
  std::printf("serve.service_ms mean %.4f ms = hit terms %.4f ms + largest "
              "build term %.4f ms (%s) + rest\n",
              service_mean, hit_term, build_term, largest.c_str());

  const SpanSummary spans = Summarize(rec.Snapshot(), p.root);
  const Distribution score(spans.durations_ms[kModelsScore]);
  report->Set("models.score_p50_ms", score.Percentile(0.5), "ms",
              static_cast<long>(score.size()));
  report->Set("models.score_calls_per_batch",
              spans.count[kModelsScore] / batches, "1/batch");
  std::vector<double> pool_ms;
  size_t pooled_items = 0;
  for (const auto& [user, scores] : s.timed->captured()) {
    const Clock::time_point t = Clock::now();
    pooled_items += lkpdpp::GroundSetBuilder::BuildServingPool(
                        *s.dataset, user, scores,
                        s.service->config().pool_size)
                        .size();
    pool_ms.push_back(MsBetween(t, Clock::now()));
  }
  const Distribution pool_dist(pool_ms);
  report->Set("sampling.pool_p50_ms", pool_dist.Percentile(0.5), "ms",
              static_cast<long>(pool_dist.size()));
  report->Check(pool_dist.size() == 0 || pooled_items > 0,
                "pool-build replay produced empty pools");
  report->Set("pool.tasks_per_batch", p.pool_tasks / batches, "1/batch");
  report->Set("pool.steals_per_batch", p.pool_steals / batches, "1/batch");
  if (p.updates > 0) {
    const Distribution upd(p.update_ms);
    report->SetPercentiles("update.apply", "_ms", upd, "ms");
    report->Set("update.exclusive_ms_mean",
                p.exclusive_count > 0 ? p.exclusive_ms_sum / p.exclusive_count
                                      : 0.0,
                "ms", p.exclusive_count);
    report->Set("update.events_per_update",
                static_cast<double>(p.events_applied) / p.updates, "1/update");
    report->Set("update.kernel_pairs_per_update",
                static_cast<double>(p.kernel_pairs) / p.updates, "1/update");
  }
}

/// Overhead of tracing: the closed loops compare windowed throughput, the
/// open loop (whose throughput its schedule fixes) median latency.
double TraceOverhead(ServeKind kind, const ServePass& untraced,
                     const ServePass& traced) {
  if (kind == ServeKind::kSampleAsync) {
    const double base = Distribution(untraced.caller_ms).Percentile(0.5);
    return base > 0
               ? Distribution(traced.caller_ms).Percentile(0.5) / base - 1.0
               : 0.0;
  }
  const double base = SummarizeWindows(untraced.windows).rate_per_s;
  return base > 0 ? 1.0 - SummarizeWindows(traced.windows).rate_per_s / base
                  : 0.0;
}

void RunServing(ServeKind kind, const Options& opts, Report* report) {
  const char* layout =
      kind == ServeKind::kSampleAsync
          ? "generator(main) + batcher + ThreadPool(2) = 4"
          : "caller(main) + ThreadPool(2) = 3";
  PrintHeader(opts, layout);
  for (size_t i = 0; i < PathNames().size(); ++i) {
    report->Check(PathNames()[i] == lkpdpp::ServePathName(
                                        static_cast<lkpdpp::ServePath>(i)),
                  "serve path table out of date");
  }
  const long digest_limit = kind == ServeKind::kSampleAsync
                                ? kDigestRequestsAsync
                                : kDigestRequestsSync;
  if (!opts.trace) {
    std::unique_ptr<ServingSetup> s =
        RepeatSetup(opts, kSetupRepeats, report,
                    [&] { return BuildServing(kind, opts.seed, nullptr); });
    const ServePass p = RunPass(kind, *s, opts, nullptr);
    CheckPass(kind, *s, p, report);
    ReportEndToEnd(kind, p, report);
    CheckDigest(opts, p.digested >= digest_limit, p.digest.value(), report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  // Traced run: an untraced pass and a traced pass, each from a fresh,
  // identical set-up, so the overhead of tracing is measured in-process.
  std::unique_ptr<ServingSetup> s = BuildServing(kind, opts.seed, nullptr);
  const ServePass untraced = RunPass(kind, *s, opts, nullptr);
  CheckPass(kind, *s, untraced, report);
  s.reset();
  SpanRecorder rec;
  s = BuildServing(kind, opts.seed, &rec);
  const ServePass traced = RunPass(kind, *s, opts, &rec);
  CheckPass(kind, *s, traced, report);
  ReportEndToEnd(kind, traced, report);
  report->Check(untraced.digest.value() == traced.digest.value(),
                "traced and untraced passes served different responses");
  CheckDigest(opts, traced.digested >= digest_limit, traced.digest.value(),
              report);
  ReportLayers(kind, *s, traced, rec, report);
  report->Set("trace_overhead_frac", TraceOverhead(kind, untraced, traced),
              "ratio");
  ReportSpans(opts, rec, traced.root, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

void RunMapBatch(const Options& opts, Report* report) {
  RunServing(ServeKind::kMapBatch, opts, report);
}

void RunSampleAsync(const Options& opts, Report* report) {
  RunServing(ServeKind::kSampleAsync, opts, report);
}

void RunStreamUpdate(const Options& opts, Report* report) {
  RunServing(ServeKind::kStreamUpdate, opts, report);
}

}  // namespace lkpbench
