// End-to-end tests for the streaming-update subsystem: ModelUpdater
// fold-in semantics, the service's epoch barrier, targeted cache
// invalidation (touched entries evicted, everything else provably still
// warm), and the replay-determinism contract — a fixed request/update
// interleave must reproduce bit-identically at any thread count.

#include "serve/model_update.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "models/gcn.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "sampling/ground_set_builder.h"
#include "serve/service.h"

namespace lkpdpp {
namespace {

// A fresh world per test — NOT a shared singleton like serve_test's:
// the updater MUTATES the model and kernel, and the replay tests need
// identical starting states for every run.
struct StreamWorld {
  Dataset dataset;
  std::unique_ptr<MfModel> model;
  std::unique_ptr<DiversityKernel> diversity;
};

StreamWorld MakeWorld() {
  SyntheticConfig cfg;
  cfg.name = "stream-world";
  cfg.num_users = 60;
  cfg.num_items = 80;
  cfg.num_categories = 10;
  cfg.num_events = 6000;
  cfg.min_interactions = 8;
  cfg.seed = 321;
  auto ds = GenerateSyntheticDataset(cfg);
  ds.status().CheckOK();
  StreamWorld w{std::move(ds).ValueOrDie(), nullptr, nullptr};
  w.diversity = std::make_unique<DiversityKernel>(
      DiversityKernel::Random(w.dataset.num_items(), 8, /*seed=*/13));
  MfModel::Config mcfg;
  mcfg.embedding_dim = 8;
  mcfg.seed = 7;
  w.model = std::make_unique<MfModel>(w.dataset.num_users(),
                                      w.dataset.num_items(), mcfg);
  return w;
}

ServeConfig BaseServeConfig(ServeMode mode) {
  ServeConfig config;
  config.mode = mode;
  config.top_k = 5;
  config.pool_size = 20;
  config.cache_capacity = 512;
  config.seed = 4321;
  return config;
}

// A fixed, dataset-derived event stream: anchors are recorded train
// positives, so the kernel side is usually feasible.
std::vector<InteractionEvent> EventScript(const Dataset& ds, int count) {
  std::vector<InteractionEvent> events;
  events.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int user = (3 * i + 1) % ds.num_users();
    const std::vector<int>& pos = ds.TrainItems(user);
    const int item =
        pos.empty() ? 0 : pos[static_cast<size_t>(i) % pos.size()];
    events.push_back(InteractionEvent{user, item});
  }
  return events;
}

TEST(ModelUpdaterTest, CreateValidatesConfigAndModelShape) {
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  RecommendationService* svc = service->get();
  const UpdateConfig good;
  EXPECT_TRUE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                   w.diversity.get(), svc, good)
                  .ok());
  UpdateConfig bad = good;
  bad.mf_learning_rate = -1.0;
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), svc, bad)
                   .ok());
  bad = good;
  bad.negatives_per_event = 0;
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), svc, bad)
                   .ok());
  bad = good;
  bad.max_batch_events = 0;
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), svc, bad)
                   .ok());
  bad = good;
  bad.kernel_set_size = w.diversity->rank() + 1;
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), svc, bad)
                   .ok());
  // ...but the kernel knobs are ignored when the kernel side is off.
  bad.update_kernel = false;
  EXPECT_TRUE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                   w.diversity.get(), svc, bad)
                  .ok());
  // Catalog mismatch between kernel and dataset.
  DiversityKernel wrong =
      DiversityKernel::Random(w.dataset.num_items() + 1, 8, /*seed=*/1);
  EXPECT_FALSE(
      ModelUpdater::Create(&w.dataset, w.model.get(), &wrong, svc, good)
          .ok());
  // Null service.
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), nullptr, good)
                   .ok());
}

TEST(ModelUpdaterTest, RejectsSharedPrefixModels) {
  // GCN spreads one interaction's gradient over the whole graph: the
  // row-sparse fold-in contract cannot hold, so Create must refuse.
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  GcnModel::Config gcfg;
  gcfg.embedding_dim = 8;
  auto gcn = GcnModel::Create(w.dataset, gcfg);
  ASSERT_TRUE(gcn.ok());
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, gcn->get(),
                                    w.diversity.get(), service->get(),
                                    UpdateConfig{})
                   .ok());
}

TEST(ModelUpdaterTest, EmptyQueueIsANoOp) {
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), service->get(),
                                      UpdateConfig{});
  ASSERT_TRUE(updater.ok());
  EXPECT_EQ((*updater)->pending(), 0);
  auto result = (*updater)->ApplyPending();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->events_applied, 0);
  EXPECT_EQ(result->kernel_pairs, 0);
  EXPECT_EQ(result->model_version, 0u);
  EXPECT_TRUE(result->touched_users.empty());
  EXPECT_TRUE(result->touched_items.empty());
  EXPECT_EQ((*service)->model_version(), 0u);  // No epoch published.
}

TEST(ModelUpdaterTest, RejectsOutOfCatalogEvents) {
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), service->get(),
                                      UpdateConfig{});
  ASSERT_TRUE(updater.ok());
  (*updater)->Enqueue(InteractionEvent{0, w.dataset.num_items()});
  EXPECT_FALSE((*updater)->ApplyPending().ok());
  EXPECT_EQ((*service)->model_version(), 0u);  // Nothing was published.
}

TEST(ModelUpdaterTest, ApplyAdvancesVersionGaugeAndBoundsBatches) {
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  RecommendationService* svc = service->get();
  UpdateConfig ucfg;
  ucfg.max_batch_events = 4;
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), svc, ucfg);
  ASSERT_TRUE(updater.ok());
  for (const InteractionEvent& ev : EventScript(w.dataset, 6)) {
    (*updater)->Enqueue(ev);
  }
  EXPECT_EQ((*updater)->pending(), 6);

  auto first = (*updater)->ApplyPending();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The batch bound caps how long the serving stall can last.
  EXPECT_EQ((*updater)->pending(), 2);
  EXPECT_EQ(first->events_applied + first->events_skipped, 4);
  EXPECT_GT(first->events_applied, 0);
  EXPECT_EQ(first->model_version, 1u);
  EXPECT_EQ(svc->model_version(), 1u);
  obs::Gauge* version_gauge =
      obs::MetricsRegistry::Global().GetGauge("lkp_model_version");
  EXPECT_EQ(version_gauge->Value(), 1.0);
  EXPECT_GE(first->max_staleness_ms, 0.0);
  // Applied events moved real rows: the result names them.
  EXPECT_FALSE(first->touched_users.empty());
  EXPECT_FALSE(first->touched_items.empty());

  auto second = (*updater)->ApplyPending();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*updater)->pending(), 0);
  EXPECT_EQ(second->model_version, 2u);
  EXPECT_EQ(version_gauge->Value(), 2.0);
}

// The acceptance-criteria test: one event's update must evict exactly
// the entries whose inputs changed, and every untouched entry must
// still be WARM (proven by cache hits on re-serve, not just counters).
TEST(ModelUpdaterTest, TargetedInvalidationKeepsUntouchedEntriesWarm) {
  StreamWorld w = MakeWorld();
  const int num_users = w.dataset.num_users();
  ServeConfig scfg = BaseServeConfig(ServeMode::kMapRerank);
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr, scfg);
  ASSERT_TRUE(service.ok());
  RecommendationService* svc = service->get();

  // Warm one entry per user, and snapshot every pre-update pool.
  std::vector<RecRequest> all;
  for (int u = 0; u < num_users; ++u) all.push_back(RecRequest{u});
  ASSERT_TRUE(svc->HandleBatch(all).ok());
  ASSERT_EQ(svc->cache().size(), num_users);
  std::vector<std::vector<int>> old_pools(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    old_pools[static_cast<size_t>(u)] = GroundSetBuilder::BuildServingPool(
        w.dataset, u, w.model->ScoreAllItems(u), scfg.pool_size);
  }

  // One MF-only event with a tiny step (keeps most pools stable).
  UpdateConfig ucfg;
  ucfg.mf_learning_rate = 0.01;
  ucfg.update_kernel = false;
  ucfg.negatives_per_event = 1;
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), svc, ucfg);
  ASSERT_TRUE(updater.ok());
  const InteractionEvent ev{3, w.dataset.TrainItems(3)[0]};
  (*updater)->Enqueue(ev);
  auto result = (*updater)->ApplyPending();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->events_applied, 1);
  ASSERT_EQ(result->touched_users, std::vector<int>{ev.user});
  ASSERT_EQ(result->touched_items.size(), 2u);  // Positive + 1 negative.
  EXPECT_EQ(result->touched_items[0], ev.item);

  // Expected evictions, derived from the OLD ground sets: the event
  // user's entry plus every entry whose pool contains a touched item.
  auto touches = [&](const std::vector<int>& pool) {
    for (const int item : result->touched_items) {
      if (std::find(pool.begin(), pool.end(), item) != pool.end()) {
        return true;
      }
    }
    return false;
  };
  long expected_evicted = 0;
  std::vector<bool> evicted(static_cast<size_t>(num_users), false);
  for (int u = 0; u < num_users; ++u) {
    evicted[static_cast<size_t>(u)] =
        u == ev.user || touches(old_pools[static_cast<size_t>(u)]);
    if (evicted[static_cast<size_t>(u)]) ++expected_evicted;
  }
  EXPECT_EQ(result->invalidated_entries, expected_evicted);
  EXPECT_EQ(svc->cache().invalidations(), expected_evicted);
  EXPECT_EQ(svc->cache().size(), num_users - expected_evicted);
  long shard_sum = 0;
  for (long s : svc->cache().InvalidationsByShard()) shard_sum += s;
  EXPECT_EQ(shard_sum, svc->cache().invalidations());

  // Re-serve everyone against the updated model. An entry is warm iff
  // it survived invalidation AND its pool did not drift (drift changes
  // the key's hash — a rebuild, not a stale serve).
  auto again = svc->HandleBatch(all);
  ASSERT_TRUE(again.ok());
  int warm = 0;
  for (int u = 0; u < num_users; ++u) {
    const std::vector<int> new_pool = GroundSetBuilder::BuildServingPool(
        w.dataset, u, w.model->ScoreAllItems(u), scfg.pool_size);
    const bool expect_hit = !evicted[static_cast<size_t>(u)] &&
                            new_pool == old_pools[static_cast<size_t>(u)];
    EXPECT_EQ((*again)[static_cast<size_t>(u)].cache_hit, expect_hit)
        << "user " << u;
    if (expect_hit) ++warm;
  }
  EXPECT_FALSE((*again)[static_cast<size_t>(ev.user)].cache_hit);
  // The warm set must be non-trivial or the test proves nothing.
  EXPECT_GT(warm, 0);
}

// The replay-determinism acceptance criterion: a fixed request/update
// interleave replays bit-identically at 1, 4, and 8 threads — sampled
// item sets, touched-row lists, versions, and the summed BPR loss.
struct RunLog {
  std::vector<std::vector<int>> responses;
  std::vector<std::vector<int>> touched_users;
  std::vector<std::vector<int>> touched_items;
  std::vector<double> losses;
  std::vector<uint64_t> versions;
};

RunLog RunScriptedInterleave(int threads) {
  StreamWorld w = MakeWorld();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), pool.get(),
      BaseServeConfig(ServeMode::kSample));
  service.status().CheckOK();
  UpdateConfig ucfg;
  ucfg.pool = pool.get();
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), service->get(),
                                      ucfg);
  updater.status().CheckOK();
  const std::vector<InteractionEvent> script = EventScript(w.dataset, 48);
  RunLog log;
  size_t next_event = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<RecRequest> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back(RecRequest{(round * 7 + i) % w.dataset.num_users()});
    }
    auto responses = (*service)->HandleBatch(batch);
    responses.status().CheckOK();
    for (const RecResponse& r : *responses) {
      log.responses.push_back(r.items);
    }
    for (int i = 0; i < 8; ++i) {
      (*updater)->Enqueue(script[next_event++]);
    }
    auto result = (*updater)->ApplyPending();
    result.status().CheckOK();
    log.touched_users.push_back(result->touched_users);
    log.touched_items.push_back(result->touched_items);
    log.losses.push_back(result->loss_sum);
    log.versions.push_back(result->model_version);
  }
  return log;
}

TEST(ModelUpdaterTest, InterleaveReplaysBitIdenticallyAcrossThreadCounts) {
  const RunLog serial = RunScriptedInterleave(1);
  ASSERT_EQ(serial.versions.back(), 6u);
  for (const int threads : {4, 8}) {
    const RunLog parallel = RunScriptedInterleave(threads);
    EXPECT_EQ(parallel.responses, serial.responses)
        << threads << " threads: sampled sets diverged";
    EXPECT_EQ(parallel.touched_users, serial.touched_users) << threads;
    EXPECT_EQ(parallel.touched_items, serial.touched_items) << threads;
    EXPECT_EQ(parallel.versions, serial.versions) << threads;
    ASSERT_EQ(parallel.losses.size(), serial.losses.size());
    for (size_t i = 0; i < serial.losses.size(); ++i) {
      // Bit-identical, not approximately equal: the reductions are
      // order-fixed by contract.
      EXPECT_EQ(parallel.losses[i], serial.losses[i])
          << threads << " threads, round " << i;
    }
  }
}

// TSan-focused: concurrent async submitters racing one update driver
// over a shared ThreadPool and a churning cache. The epoch barrier must
// keep this free of races and deadlocks.
TEST(ModelUpdaterTest, ConcurrentServingAndUpdatesStress) {
  StreamWorld w = MakeWorld();
  ThreadPool pool(4);
  ServeConfig scfg = BaseServeConfig(ServeMode::kSample);
  scfg.cache_capacity = 32;  // Eviction churn on top of invalidation.
  scfg.max_batch_size = 8;
  scfg.batch_deadline_ms = 0.1;
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), &pool, scfg);
  ASSERT_TRUE(service.ok());
  RecommendationService* svc = service->get();
  UpdateConfig ucfg;
  ucfg.pool = &pool;  // Shared with serving: must not deadlock.
  ucfg.max_batch_events = 16;
  auto updater = ModelUpdater::Create(&w.dataset, w.model.get(),
                                      w.diversity.get(), svc, ucfg);
  ASSERT_TRUE(updater.ok());
  const std::vector<InteractionEvent> script = EventScript(w.dataset, 60);
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int c = 0; c < 3; ++c) {
    submitters.emplace_back([&, c] {
      std::vector<std::future<Result<RecResponse>>> futures;
      for (int i = 0; i < 40; ++i) {
        futures.push_back(svc->SubmitAsync(
            RecRequest{(c * 13 + i) % w.dataset.num_users()}));
      }
      for (auto& f : futures) {
        Result<RecResponse> resp = f.get();
        if (!resp.ok() ||
            static_cast<int>(resp->items.size()) != scfg.top_k) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // The single update driver the contract allows.
  std::thread driver([&] {
    size_t next = 0;
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 6; ++i) {
        (*updater)->Enqueue(script[next % script.size()]);
        ++next;
      }
      if (!(*updater)->ApplyPending().ok()) failures.fetch_add(1);
    }
  });
  for (auto& t : submitters) t.join();
  driver.join();
  svc->Flush();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc->model_version(), 10u);
  const ServeStats stats = svc->Snapshot();
  EXPECT_EQ(stats.requests, 3 * 40);
}

// Config validation regression: NaN used to pass the jitter range check.
TEST(ConfigValidationTest, UpdateConfigRejectsNonFiniteJitter) {
  StreamWorld w = MakeWorld();
  auto service = RecommendationService::Create(
      &w.dataset, w.model.get(), w.diversity.get(), nullptr,
      BaseServeConfig(ServeMode::kSample));
  ASSERT_TRUE(service.ok());
  UpdateConfig cfg;
  cfg.kernel_set_size = 4;
  cfg.kernel_jitter = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                    w.diversity.get(), service->get(), cfg)
                   .ok());
  cfg.kernel_jitter = 1e-4;
  EXPECT_TRUE(ModelUpdater::Create(&w.dataset, w.model.get(),
                                   w.diversity.get(), service->get(), cfg)
                  .ok());
}

}  // namespace
}  // namespace lkpdpp
