#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/map_inference.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "serve/kernel_cache.h"
#include "serve/stats.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// Shared small world: a synthetic dataset, an (untrained but
// deterministic) MF model, and a random diversity kernel. Untrained is
// fine — serving only needs ScoreAllItems to be a pure function.
struct ServeWorld {
  Dataset dataset;
  std::unique_ptr<MfModel> model;
  DiversityKernel diversity;
};

ServeWorld* World() {
  static ServeWorld* world = [] {
    SyntheticConfig cfg;
    cfg.name = "serve-world";
    cfg.num_users = 70;
    cfg.num_items = 90;
    cfg.num_categories = 12;
    cfg.num_events = 7000;
    cfg.min_interactions = 8;
    cfg.seed = 99;
    auto ds = GenerateSyntheticDataset(cfg);
    ds.status().CheckOK();
    Dataset dataset = std::move(ds).ValueOrDie();
    DiversityKernel diversity =
        DiversityKernel::Random(dataset.num_items(), 8, /*seed=*/11);
    auto* w = new ServeWorld{std::move(dataset), nullptr,
                             std::move(diversity)};
    MfModel::Config mcfg;
    mcfg.embedding_dim = 8;
    mcfg.seed = 5;
    w->model = std::make_unique<MfModel>(w->dataset.num_users(),
                                         w->dataset.num_items(), mcfg);
    return w;
  }();
  return world;
}

ServeConfig BaseConfig(ServeMode mode) {
  ServeConfig config;
  config.mode = mode;
  config.top_k = 5;
  config.pool_size = 20;
  config.cache_capacity = 256;
  config.seed = 1234;
  return config;
}

std::vector<RecRequest> RoundRobinBatch(int batch_size, int offset) {
  std::vector<RecRequest> batch;
  batch.reserve(static_cast<size_t>(batch_size));
  const int num_users = World()->dataset.num_users();
  for (int i = 0; i < batch_size; ++i) {
    batch.push_back(RecRequest{(offset + i) % num_users});
  }
  return batch;
}

// ---------------------------------------------------------------------
// KernelCache

std::shared_ptr<const ServedKernel> DummyEntry(double fill) {
  auto e = std::make_shared<ServedKernel>();
  e->rep = std::make_shared<const PrimalKernelRep>(Matrix(2, 2, fill));
  return e;
}

TEST(KernelCacheTest, MissThenHit) {
  KernelCache cache(4);
  EXPECT_EQ(cache.Get(1, 42), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  cache.Put(1, 42, DummyEntry(1.0));
  auto hit = cache.Get(1, 42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rep->Entry(0, 0), 1.0);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1);
}

TEST(KernelCacheTest, DistinguishesUserAndHash) {
  KernelCache cache(8);
  cache.Put(1, 42, DummyEntry(1.0));
  EXPECT_EQ(cache.Get(2, 42), nullptr);
  EXPECT_EQ(cache.Get(1, 43), nullptr);
  EXPECT_NE(cache.Get(1, 42), nullptr);
}

TEST(KernelCacheTest, EvictsLeastRecentlyUsed) {
  KernelCache cache(2);
  cache.Put(1, 10, DummyEntry(1.0));
  cache.Put(2, 20, DummyEntry(2.0));
  // Touch (1, 10) so (2, 20) becomes the LRU entry.
  ASSERT_NE(cache.Get(1, 10), nullptr);
  cache.Put(3, 30, DummyEntry(3.0));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.Get(2, 20), nullptr);  // Evicted.
  EXPECT_NE(cache.Get(1, 10), nullptr);
  EXPECT_NE(cache.Get(3, 30), nullptr);
}

TEST(KernelCacheTest, CapacityZeroDisablesCaching) {
  KernelCache cache(0);
  cache.Put(1, 10, DummyEntry(1.0));
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.Get(1, 10), nullptr);
}

TEST(KernelCacheTest, PutRefreshesExistingKey) {
  KernelCache cache(2);
  cache.Put(1, 10, DummyEntry(1.0));
  cache.Put(1, 10, DummyEntry(7.0));
  EXPECT_EQ(cache.size(), 1);
  auto e = cache.Get(1, 10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rep->Entry(0, 0), 7.0);
}

TEST(KernelCacheTest, ClearEmptiesEverything) {
  KernelCache cache(4);
  cache.Put(1, 10, DummyEntry(1.0));
  cache.Put(2, 20, DummyEntry(2.0));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.Get(1, 10), nullptr);
}

// Like DummyEntry, but with a ground set the reverse indices can bucket.
std::shared_ptr<const ServedKernel> DummyEntryWithItems(
    double fill, std::vector<int> items) {
  auto e = std::make_shared<ServedKernel>();
  e->rep = std::make_shared<const PrimalKernelRep>(Matrix(2, 2, fill));
  e->items = std::move(items);
  return e;
}

TEST(KernelCacheTest, InvalidateUsersEvictsOnlyTouchedUsers) {
  KernelCache cache(8);  // Single shard: exact counts.
  cache.Put(1, 10, DummyEntryWithItems(1.0, {4, 5}));
  cache.Put(1, 11, DummyEntryWithItems(1.5, {5, 6}));
  cache.Put(2, 20, DummyEntryWithItems(2.0, {4}));
  cache.Put(3, 30, DummyEntryWithItems(3.0, {7}));
  EXPECT_EQ(cache.InvalidateUsers({1}), 2);  // Both of user 1's pools.
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.Get(1, 10), nullptr);
  EXPECT_EQ(cache.Get(1, 11), nullptr);
  EXPECT_NE(cache.Get(2, 20), nullptr);
  EXPECT_NE(cache.Get(3, 30), nullptr);
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_EQ(cache.evictions(), 0);  // Invalidation is not LRU eviction.
  EXPECT_EQ(cache.InvalidateUsers({42}), 0);  // Unknown user: no-op.
}

TEST(KernelCacheTest, InvalidateItemsCountsMultiItemEntriesOnce) {
  KernelCache cache(8);
  // (1, 10) contains BOTH touched items: it must evict — and count —
  // exactly once even though it sits in two drained buckets.
  cache.Put(1, 10, DummyEntryWithItems(1.0, {4, 5}));
  cache.Put(2, 20, DummyEntryWithItems(2.0, {5}));
  cache.Put(3, 30, DummyEntryWithItems(3.0, {6}));
  EXPECT_EQ(cache.InvalidateItems({4, 5}), 2);
  EXPECT_EQ(cache.Get(1, 10), nullptr);
  EXPECT_EQ(cache.Get(2, 20), nullptr);
  EXPECT_NE(cache.Get(3, 30), nullptr);
  EXPECT_EQ(cache.invalidations(), 2);
}

TEST(KernelCacheTest, ReverseIndexFollowsEvictionAndRefresh) {
  KernelCache cache(2);  // Single-shard exact LRU.
  cache.Put(1, 10, DummyEntryWithItems(1.0, {4}));
  cache.Put(2, 20, DummyEntryWithItems(2.0, {5}));
  cache.Put(3, 30, DummyEntryWithItems(3.0, {6}));  // Evicts (1, 10).
  EXPECT_EQ(cache.evictions(), 1);
  // The evicted entry left the reverse indices with it.
  EXPECT_EQ(cache.InvalidateUsers({1}), 0);
  EXPECT_EQ(cache.InvalidateItems({4}), 0);
  // A Put-refresh rebinds the key to the NEW entry's ground set.
  cache.Put(2, 20, DummyEntryWithItems(2.5, {7}));
  EXPECT_EQ(cache.InvalidateItems({5}), 0);  // Old set no longer indexed.
  EXPECT_EQ(cache.InvalidateItems({7}), 1);  // New set is.
  EXPECT_EQ(cache.Get(2, 20), nullptr);
}

TEST(KernelCacheTest, ClearDropsReverseIndices) {
  KernelCache cache(8);
  cache.Put(1, 10, DummyEntryWithItems(1.0, {4}));
  cache.Put(2, 20, DummyEntryWithItems(2.0, {5}));
  cache.Clear();
  EXPECT_EQ(cache.InvalidateUsers({1}), 0);
  EXPECT_EQ(cache.InvalidateItems({5}), 0);
  EXPECT_EQ(cache.invalidations(), 0);
}

TEST(KernelCacheTest, InvalidationsByShardSumToTotal) {
  KernelCache cache(256);  // Default sharding.
  ASSERT_GT(cache.num_shards(), 1);
  for (int u = 0; u < 40; ++u) {
    cache.Put(u, 100 + static_cast<uint64_t>(u),
              DummyEntryWithItems(1.0, {u % 7}));
  }
  std::vector<int> even_users;
  for (int u = 0; u < 40; u += 2) even_users.push_back(u);
  EXPECT_EQ(cache.InvalidateUsers(even_users), 20);
  // Odd users whose ground set contains item 3: u % 7 == 3 for u in
  // {3, 17, 31}.
  EXPECT_EQ(cache.InvalidateItems({3}), 3);
  long sum = 0;
  for (long s : cache.InvalidationsByShard()) sum += s;
  EXPECT_EQ(sum, cache.invalidations());
  EXPECT_EQ(cache.invalidations(), 23);
  EXPECT_EQ(cache.size(), 40 - 23);
  // ResetCounters zeroes the per-shard attribution too.
  cache.ResetCounters();
  EXPECT_EQ(cache.invalidations(), 0);
  for (long s : cache.InvalidationsByShard()) EXPECT_EQ(s, 0);
}

TEST(KernelCacheTest, HashIsOrderAndContentSensitive) {
  const uint64_t a = HashGroundSet({1, 2, 3});
  EXPECT_EQ(a, HashGroundSet({1, 2, 3}));
  EXPECT_NE(a, HashGroundSet({3, 2, 1}));
  EXPECT_NE(a, HashGroundSet({1, 2}));
  EXPECT_NE(a, HashGroundSet({1, 2, 4}));
  EXPECT_NE(HashGroundSet({}), HashGroundSet({0}));
}

// ---------------------------------------------------------------------
// Percentiles

TEST(ServeStatsTest, PercentileNearestRank) {
  std::vector<double> sample{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(sample, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

// ---------------------------------------------------------------------
// RecommendationService

TEST(ServeTest, CreateRejectsInvalidConfigs) {
  ServeWorld* w = World();
  ServeConfig bad_k = BaseConfig(ServeMode::kMapRerank);
  bad_k.top_k = 0;
  EXPECT_FALSE(RecommendationService::Create(&w->dataset, w->model.get(),
                                             &w->diversity, nullptr, bad_k)
                   .ok());

  ServeConfig bad_pool = BaseConfig(ServeMode::kMapRerank);
  bad_pool.pool_size = 3;  // < top_k
  EXPECT_FALSE(RecommendationService::Create(&w->dataset, w->model.get(),
                                             &w->diversity, nullptr,
                                             bad_pool)
                   .ok());

  DiversityKernel wrong_size = DiversityKernel::Random(7, 4, 1);
  EXPECT_FALSE(RecommendationService::Create(&w->dataset, w->model.get(),
                                             &wrong_size, nullptr,
                                             BaseConfig(ServeMode::kMapRerank))
                   .ok());
}

TEST(ServeTest, RejectsOutOfRangeUsers) {
  ServeWorld* w = World();
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr,
      BaseConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->HandleBatch({RecRequest{-1}}).ok());
  EXPECT_FALSE(
      (*service)->HandleBatch({RecRequest{w->dataset.num_users()}}).ok());
  auto empty = (*service)->HandleBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ServeTest, ResponsesHaveKDistinctUnobservedItems) {
  ServeWorld* w = World();
  for (ServeMode mode : {ServeMode::kMapRerank, ServeMode::kSample}) {
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr,
        BaseConfig(mode));
    ASSERT_TRUE(service.ok());
    auto responses = (*service)->HandleBatch(RoundRobinBatch(32, 0));
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    for (const RecResponse& r : *responses) {
      EXPECT_EQ(static_cast<int>(r.items.size()), 5);
      std::set<int> distinct(r.items.begin(), r.items.end());
      EXPECT_EQ(distinct.size(), r.items.size());
      for (int item : r.items) {
        EXPECT_GE(item, 0);
        EXPECT_LT(item, w->dataset.num_items());
        EXPECT_FALSE(w->dataset.IsObserved(r.user, item))
            << "recommended an already-observed item";
      }
    }
  }
}

std::vector<std::vector<int>> ServeManyBatches(ServeMode mode, int threads) {
  ServeWorld* w = World();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, pool.get(),
      BaseConfig(mode));
  service.status().CheckOK();
  std::vector<std::vector<int>> all_items;
  for (int b = 0; b < 4; ++b) {
    auto responses = (*service)->HandleBatch(RoundRobinBatch(25, b * 7));
    responses.status().CheckOK();
    for (const RecResponse& r : *responses) all_items.push_back(r.items);
  }
  return all_items;
}

TEST(ServeTest, RecommendationsBitIdenticalAcrossThreadCounts) {
  for (ServeMode mode : {ServeMode::kMapRerank, ServeMode::kSample}) {
    const auto serial = ServeManyBatches(mode, /*threads=*/0);
    for (int threads : {1, 2, 4}) {
      const auto parallel = ServeManyBatches(mode, threads);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i], serial[i])
            << ServeModeName(mode) << " response " << i << " diverged at "
            << threads << " threads";
      }
    }
  }
}

TEST(ServeTest, RepeatRequestsHitTheCacheWithIdenticalResults) {
  ServeWorld* w = World();
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr,
      BaseConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  const std::vector<RecRequest> batch = RoundRobinBatch(20, 0);
  auto first = (*service)->HandleBatch(batch);
  ASSERT_TRUE(first.ok());
  auto second = (*service)->HandleBatch(batch);
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE((*first)[i].cache_hit);
    EXPECT_TRUE((*second)[i].cache_hit);
    EXPECT_EQ((*first)[i].items, (*second)[i].items);
  }
  const ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 20);
  EXPECT_EQ(stats.cache_misses, 20);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.5);
}

TEST(ServeTest, DuplicateUsersInOneBatchShareKernelWork) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  config.cache_capacity = 0;  // No cross-batch memoization to hide behind.
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());
  std::vector<RecRequest> batch(12, RecRequest{0});
  auto responses = (*service)->HandleBatch(batch);
  ASSERT_TRUE(responses.ok());
  for (const RecResponse& r : *responses) {
    EXPECT_EQ(r.items, (*responses)[0].items);
  }
  // The kernel stage ran once for the one unique user, not per request.
  EXPECT_EQ((*service)->Snapshot().cache_misses, 1);
}

TEST(ServeTest, TinyCacheStillServesCorrectly) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  config.cache_capacity = 1;  // Constant eviction churn.
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());
  auto baseline = (*service)->HandleBatch(RoundRobinBatch(10, 0));
  ASSERT_TRUE(baseline.ok());
  auto again = (*service)->HandleBatch(RoundRobinBatch(10, 0));
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < baseline->size(); ++i) {
    EXPECT_EQ((*baseline)[i].items, (*again)[i].items)
        << "eviction changed a recommendation";
  }
  EXPECT_LE((*service)->cache().size(), 1);
  EXPECT_GT((*service)->cache().evictions(), 0);
}

TEST(ServeTest, MapModeMatchesDirectGreedyRerank) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());
  const int user = 3;
  auto response = (*service)->HandleOne(user);
  ASSERT_TRUE(response.ok());

  // Reproduce the pipeline by hand.
  w->model->PrepareForEval();
  const Vector scores = w->model->ScoreAllItems(user);
  const std::vector<int> pool = GroundSetBuilder::BuildServingPool(
      w->dataset, user, scores, config.pool_size);
  ASSERT_FALSE(pool.empty());
  Vector pool_scores(static_cast<int>(pool.size()));
  for (size_t i = 0; i < pool.size(); ++i) {
    pool_scores[static_cast<int>(i)] = scores[pool[i]];
  }
  Matrix k_sub = w->diversity.Submatrix(pool);
  k_sub *= config.kernel_blend_alpha;
  k_sub.AddDiagonal(1.0 - config.kernel_blend_alpha);
  const Matrix kernel =
      AssembleKernel(ApplyQuality(pool_scores, config.quality), k_sub);
  GreedyMapOptions opts;
  opts.max_size = config.top_k;
  auto local = GreedyMapInference(kernel, opts);
  ASSERT_TRUE(local.ok());
  std::vector<int> expected;
  for (int idx : *local) expected.push_back(pool[static_cast<size_t>(idx)]);
  EXPECT_EQ(response->items, expected);
}

// MAP-mode kernels ride the FactorDiagKernelRep whenever the diversity
// factor (rank 8) is thinner than the pool (20) — for ANY blend alpha,
// unlike the sampling dual path. The selections must be bit-identical
// to the forced-primal oracle: the rep synthesizes entries with the
// exact primal arithmetic (linalg/kernel_rep.h).
TEST(ServeTest, MapFactorRepMatchesForcedPrimalExactly) {
  ServeWorld* w = World();
  for (double alpha : {0.5, 1.0}) {
    ServeConfig factor_cfg = BaseConfig(ServeMode::kMapRerank);
    factor_cfg.kernel_blend_alpha = alpha;
    ServeConfig primal_cfg = factor_cfg;
    primal_cfg.force_primal = true;
    auto factor_service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, factor_cfg);
    auto primal_service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, primal_cfg);
    ASSERT_TRUE(factor_service.ok());
    ASSERT_TRUE(primal_service.ok());
    int factor_responses = 0;
    for (int b = 0; b < 3; ++b) {
      auto rf = (*factor_service)->HandleBatch(RoundRobinBatch(24, b * 5));
      auto rp = (*primal_service)->HandleBatch(RoundRobinBatch(24, b * 5));
      ASSERT_TRUE(rf.ok()) << rf.status().ToString();
      ASSERT_TRUE(rp.ok()) << rp.status().ToString();
      ASSERT_EQ(rf->size(), rp->size());
      for (size_t i = 0; i < rf->size(); ++i) {
        EXPECT_EQ((*rf)[i].items, (*rp)[i].items)
            << "alpha " << alpha << " batch " << b << " request " << i
            << ": factor and primal MAP selections diverged";
        EXPECT_EQ((*rp)[i].path, ServePath::kPrimal);
        if ((*rf)[i].path == ServePath::kFactorMap) ++factor_responses;
      }
    }
    // The factor rep actually engaged (rank 8 < pool 20 everywhere).
    EXPECT_GT(factor_responses, 0) << "alpha " << alpha;
  }
}

TEST(ServeTest, MapFactorRepBitIdenticalAcrossThreadCounts) {
  ServeWorld* w = World();
  auto serve_many = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, pool.get(),
        BaseConfig(ServeMode::kMapRerank));
    service.status().CheckOK();
    std::vector<std::vector<int>> all_items;
    bool saw_factor = false;
    for (int b = 0; b < 4; ++b) {
      auto responses = (*service)->HandleBatch(RoundRobinBatch(25, b * 7));
      responses.status().CheckOK();
      for (const RecResponse& r : *responses) {
        all_items.push_back(r.items);
        saw_factor = saw_factor || r.path == ServePath::kFactorMap;
      }
    }
    EXPECT_TRUE(saw_factor);
    return all_items;
  };
  const auto serial = serve_many(/*threads=*/0);
  for (int threads : {1, 2, 4}) {
    const auto parallel = serve_many(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "MAP factor-rep response " << i << " diverged at " << threads
          << " threads";
    }
  }
}

// Degenerate pools: a rank-1 diversity kernel makes every pool item a
// scalar multiple of every other (maximal duplication/ties). Greedy
// selects one item and score-order backfill tops the list up; the
// result must agree bit for bit between representations and across
// thread counts.
TEST(ServeTest, RankOneDiversityPoolsAgreeAcrossRepsAndThreads) {
  ServeWorld* w = World();
  DiversityKernel rank1 =
      DiversityKernel::Random(w->dataset.num_items(), 1, /*seed=*/17);
  ServeConfig factor_cfg = BaseConfig(ServeMode::kMapRerank);
  factor_cfg.kernel_blend_alpha = 1.0;  // No identity blend: true rank 1.
  ServeConfig primal_cfg = factor_cfg;
  primal_cfg.force_primal = true;
  auto serve_all = [&](const ServeConfig& cfg, int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &rank1, pool.get(), cfg);
    service.status().CheckOK();
    auto responses = (*service)->HandleBatch(RoundRobinBatch(30, 0));
    responses.status().CheckOK();
    std::vector<std::vector<int>> items;
    for (const RecResponse& r : *responses) {
      EXPECT_EQ(static_cast<int>(r.items.size()), cfg.top_k)
          << "backfill must keep rank-deficient responses full";
      items.push_back(r.items);
    }
    return items;
  };
  const auto oracle = serve_all(primal_cfg, 0);
  for (int threads : {0, 2, 4}) {
    EXPECT_EQ(serve_all(factor_cfg, threads), oracle)
        << "rank-1 pools diverged at " << threads << " threads";
  }
}

// Satellite: MAP-mode cache entries never eigendecompose — every build
// bumps lkp_kernel_cache_eig_skipped_total instead, factor and primal
// alike.
TEST(ServeTest, MapModeBuildsSkipEigendecomposition) {
  ServeWorld* w = World();
  obs::Counter* skipped = obs::MetricsRegistry::Global().GetCounter(
      "lkp_kernel_cache_eig_skipped_total");
  for (bool force_primal : {false, true}) {
    ServeConfig cfg = BaseConfig(ServeMode::kMapRerank);
    cfg.force_primal = force_primal;
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, cfg);
    ASSERT_TRUE(service.ok());
    const long before = skipped->Value();
    ASSERT_TRUE((*service)->HandleBatch(RoundRobinBatch(16, 0)).ok());
    const long skipped_delta = skipped->Value() - before;
    EXPECT_EQ(skipped_delta, (*service)->cache().builds())
        << "force_primal=" << force_primal
        << ": every MAP build must skip the eigendecomposition";
    EXPECT_GT(skipped_delta, 0);
  }
  // Sampling-mode builds DO decompose and must not touch the counter.
  auto sampling = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr,
      BaseConfig(ServeMode::kSample));
  ASSERT_TRUE(sampling.ok());
  const long before = skipped->Value();
  ASSERT_TRUE((*sampling)->HandleBatch(RoundRobinBatch(8, 0)).ok());
  EXPECT_EQ(skipped->Value(), before);
}

TEST(ServeTest, ServingPoolIsScoreSortedAndUnobserved) {
  ServeWorld* w = World();
  w->model->PrepareForEval();
  const int user = 1;
  const Vector scores = w->model->ScoreAllItems(user);
  const std::vector<int> pool =
      GroundSetBuilder::BuildServingPool(w->dataset, user, scores, 20);
  ASSERT_EQ(static_cast<int>(pool.size()), 20);
  for (size_t i = 0; i + 1 < pool.size(); ++i) {
    EXPECT_GE(scores[pool[i]], scores[pool[i + 1]]) << "pool not sorted";
  }
  for (int item : pool) {
    EXPECT_FALSE(w->dataset.IsObserved(user, item));
  }
  // Requesting more than the unobserved catalog truncates gracefully.
  const std::vector<int> all = GroundSetBuilder::BuildServingPool(
      w->dataset, user, scores, w->dataset.num_items() + 5);
  EXPECT_LT(static_cast<int>(all.size()), w->dataset.num_items() + 5);
}

TEST(ServeTest, SampleModeVariesAcrossRequestsButNotAcrossRuns) {
  ServeWorld* w = World();
  auto make = [&] {
    return RecommendationService::Create(&w->dataset, w->model.get(),
                                         &w->diversity, nullptr,
                                         BaseConfig(ServeMode::kSample));
  };
  auto a = make();
  auto b = make();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same user served repeatedly should (with overwhelming probability)
  // not always return the same set — it's a sample, not an argmax.
  std::set<std::vector<int>> seen;
  std::vector<std::vector<int>> stream_a;
  for (int i = 0; i < 12; ++i) {
    auto r = (*a)->HandleOne(2);
    ASSERT_TRUE(r.ok());
    seen.insert(r->items);
    stream_a.push_back(r->items);
  }
  EXPECT_GT(seen.size(), 1u);
  // But an identically seeded twin replays the exact stream.
  for (int i = 0; i < 12; ++i) {
    auto r = (*b)->HandleOne(2);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->items, stream_a[static_cast<size_t>(i)])
        << "request " << i << " diverged between seeded twins";
  }
}

TEST(ServeTest, StatsTrackRequestsBatchesAndLatency) {
  ServeWorld* w = World();
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr,
      BaseConfig(ServeMode::kMapRerank));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->HandleBatch(RoundRobinBatch(16, 0)).ok());
  ASSERT_TRUE((*service)->HandleBatch(RoundRobinBatch(8, 3)).ok());
  const ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.requests, 24);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 12.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_GE(stats.latency_p95_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_max_ms, stats.latency_p99_ms);
  EXPECT_FALSE(stats.ToString().empty());

  (*service)->ResetStats();
  const ServeStats reset = (*service)->Snapshot();
  EXPECT_EQ(reset.requests, 0);
  EXPECT_EQ(reset.batches, 0);
  // The stats window includes the cache counters, but the entries stay.
  EXPECT_EQ(reset.cache_hits, 0);
  EXPECT_EQ(reset.cache_misses, 0);
  EXPECT_GT((*service)->cache().size(), 0);
}

// Concurrency stress: a shared service hammered from several caller
// threads over a shared pool, in sampling mode (the mode with the most
// shared state). Run under ASan/UBSan in CI plus the dedicated TSan job.
TEST(ServeTest, ConcurrentCallersStress) {
  ServeWorld* w = World();
  ThreadPool pool(4);
  ServeConfig config = BaseConfig(ServeMode::kSample);
  config.cache_capacity = 8;  // Force eviction churn under contention.
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, &pool, config);
  ASSERT_TRUE(service.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int b = 0; b < 5; ++b) {
        auto r = (*service)->HandleBatch(RoundRobinBatch(12, c * 13 + b));
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (const RecResponse& resp : *r) {
          if (static_cast<int>(resp.items.size()) != config.top_k) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*service)->Snapshot().requests, 4 * 5 * 12);
}

// ---------------------------------------------------------------------
// Low-rank dual serving path

// Pure-diversity blend: the conditioned kernel is exactly
// Diag(q) K_S Diag(q) with K_S = F_S F_S^T, so sampling-mode entries are
// built through the dual path whenever the factor is thinner than the
// pool (serve-world diversity rank is 8, pools are 20).
ServeConfig DualConfig() {
  ServeConfig config = BaseConfig(ServeMode::kSample);
  config.kernel_blend_alpha = 1.0;
  return config;
}

TEST(ServeTest, DualPathMatchesForcedPrimalExactly) {
  ServeWorld* w = World();
  ServeConfig dual_cfg = DualConfig();
  ServeConfig primal_cfg = DualConfig();
  primal_cfg.force_primal = true;
  auto dual_service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, dual_cfg);
  auto primal_service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, primal_cfg);
  ASSERT_TRUE(dual_service.ok());
  ASSERT_TRUE(primal_service.ok());
  int dual_responses = 0;
  for (int b = 0; b < 3; ++b) {
    auto rd = (*dual_service)->HandleBatch(RoundRobinBatch(24, b * 5));
    auto rp = (*primal_service)->HandleBatch(RoundRobinBatch(24, b * 5));
    ASSERT_TRUE(rd.ok()) << rd.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_EQ(rd->size(), rp->size());
    for (size_t i = 0; i < rd->size(); ++i) {
      EXPECT_EQ((*rd)[i].items, (*rp)[i].items)
          << "batch " << b << " request " << i
          << ": dual and primal representations diverged";
      EXPECT_EQ((*rp)[i].path, ServePath::kPrimal);
      if ((*rd)[i].path == ServePath::kDualSample) ++dual_responses;
    }
  }
  // The dual path actually engaged (rank 8 < pool 20 everywhere).
  EXPECT_GT(dual_responses, 0);
}

TEST(ServeTest, DualPathBitIdenticalAcrossThreadCounts) {
  ServeWorld* w = World();
  auto serve_many = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, pool.get(),
        DualConfig());
    service.status().CheckOK();
    std::vector<std::vector<int>> all_items;
    bool saw_dual = false;
    for (int b = 0; b < 4; ++b) {
      auto responses = (*service)->HandleBatch(RoundRobinBatch(25, b * 7));
      responses.status().CheckOK();
      for (const RecResponse& r : *responses) {
        all_items.push_back(r.items);
        saw_dual = saw_dual || r.path == ServePath::kDualSample;
      }
    }
    EXPECT_TRUE(saw_dual);
    return all_items;
  };
  const auto serial = serve_many(/*threads=*/0);
  for (int threads : {1, 2, 4}) {
    const auto parallel = serve_many(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "dual-path response " << i << " diverged at " << threads
          << " threads";
    }
  }
}

TEST(ServeTest, DualEntriesSurviveLruEvictionChurn) {
  ServeWorld* w = World();
  ServeConfig config = DualConfig();
  config.cache_capacity = 1;  // Every factored entry is evicted in turn.
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());
  // Same seed, untouched cache: the reference stream for the same batch.
  auto reference = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, DualConfig());
  ASSERT_TRUE(reference.ok());
  const std::vector<RecRequest> batch = RoundRobinBatch(10, 0);
  auto churned = (*service)->HandleBatch(batch);
  auto golden = (*reference)->HandleBatch(batch);
  ASSERT_TRUE(churned.ok());
  ASSERT_TRUE(golden.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*churned)[i].items, (*golden)[i].items)
        << "eviction churn changed a dual-path recommendation";
    EXPECT_EQ((*churned)[i].path, ServePath::kDualSample);
  }
  EXPECT_LE((*service)->cache().size(), 1);
  EXPECT_GT((*service)->cache().evictions(), 0);
}

// A bespoke world where pool sizes straddle the factor rank: user 0 has
// rated the whole catalog, so after the 70/10 train/val split their
// servable pool (the ~20% test remainder, 6 items) is smaller than the
// diversity rank (8) and goes primal, while everyone else's pool (16)
// exceeds it and goes dual — mixed representations in ONE cache, served
// interchangeably.
struct MixedWorld {
  Dataset dataset;
  std::unique_ptr<MfModel> model;
  DiversityKernel diversity;
};

MixedWorld* Mixed() {
  static MixedWorld* world = [] {
    const int num_items = 30;
    std::vector<RatingEvent> events;
    long ts = 0;
    // User 0: rates every item -> only the test split stays servable.
    for (int item = 0; item < num_items; ++item) {
      events.push_back(RatingEvent{0, item, 5.0, ts++});
    }
    // Users 1..6: six ratings each, staggered so every item keeps at
    // least one positive after filtering.
    for (int user = 1; user <= 6; ++user) {
      for (int j = 0; j < 6; ++j) {
        const int item = (user * 5 + j * 4) % num_items;
        events.push_back(RatingEvent{user, item, 5.0, ts++});
      }
    }
    CategoryTable categories;
    categories.num_categories = 5;
    categories.item_categories.resize(num_items);
    for (int item = 0; item < num_items; ++item) {
      categories.item_categories[static_cast<size_t>(item)] = {item % 5};
    }
    auto ds = Dataset::FromRatings(events, std::move(categories),
                                   "mixed-world", /*positive_threshold=*/5.0,
                                   /*min_interactions=*/1);
    ds.status().CheckOK();
    Dataset dataset = std::move(ds).ValueOrDie();
    DiversityKernel diversity =
        DiversityKernel::Random(dataset.num_items(), 8, /*seed=*/19);
    auto* w = new MixedWorld{std::move(dataset), nullptr,
                             std::move(diversity)};
    MfModel::Config mcfg;
    mcfg.embedding_dim = 6;
    mcfg.seed = 9;
    w->model = std::make_unique<MfModel>(w->dataset.num_users(),
                                         w->dataset.num_items(), mcfg);
    return w;
  }();
  return world;
}

TEST(ServeTest, MixedDualAndPrimalEntriesShareOneCacheCorrectly) {
  MixedWorld* w = Mixed();
  ServeConfig config;
  config.mode = ServeMode::kSample;
  config.kernel_blend_alpha = 1.0;
  config.top_k = 2;
  config.pool_size = 16;
  config.cache_capacity = 64;
  config.seed = 77;
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<RecRequest> batch;
  for (int u = 0; u < w->dataset.num_users(); ++u) {
    batch.push_back(RecRequest{u});
  }
  auto cold = (*service)->HandleBatch(batch);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  bool saw_primal = false;
  bool saw_dual = false;
  for (const RecResponse& r : *cold) {
    EXPECT_FALSE(r.cache_hit);
    if (r.items.empty()) continue;
    (r.path == ServePath::kDualSample ? saw_dual : saw_primal) = true;
  }
  EXPECT_TRUE(saw_dual) << "no pool exceeded the factor rank";
  EXPECT_TRUE(saw_primal) << "no pool stayed under the factor rank";

  // Warm pass: every entry — dual or primal — hits, keeps its
  // representation, and still serves valid recommendations.
  auto warm = (*service)->HandleBatch(batch);
  ASSERT_TRUE(warm.ok());
  for (size_t i = 0; i < warm->size(); ++i) {
    const RecResponse& r = (*warm)[i];
    if (r.items.empty()) continue;
    EXPECT_TRUE(r.cache_hit) << "user " << r.user;
    EXPECT_EQ(r.path, (*cold)[i].path)
        << "cache hit changed representation for user " << r.user;
    std::set<int> distinct(r.items.begin(), r.items.end());
    EXPECT_EQ(distinct.size(), r.items.size());
    for (int item : r.items) {
      EXPECT_FALSE(w->dataset.IsObserved(r.user, item));
    }
  }
  EXPECT_EQ((*service)->Snapshot().cache_hits,
            static_cast<long>(batch.size()));
}

// ---------------------------------------------------------------------
// Evaluator on the pool

TEST(ServeTest, ParallelEvaluatorMatchesSerialExactly) {
  ServeWorld* w = World();
  Evaluator serial(&w->dataset);
  const auto expected = serial.Evaluate(w->model.get(), {5, 10});
  const double expected_val = serial.ValidationNdcg(w->model.get(), 10);

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    Evaluator parallel(&w->dataset);
    parallel.SetThreadPool(&pool);
    const auto got = parallel.Evaluate(w->model.get(), {5, 10});
    ASSERT_EQ(got.size(), expected.size());
    for (const auto& [n, m] : expected) {
      const MetricSet& g = got.at(n);
      EXPECT_EQ(g.recall, m.recall) << "cutoff " << n;
      EXPECT_EQ(g.ndcg, m.ndcg) << "cutoff " << n;
      EXPECT_EQ(g.category_coverage, m.category_coverage) << "cutoff " << n;
      EXPECT_EQ(g.f_score, m.f_score) << "cutoff " << n;
      EXPECT_EQ(g.ild, m.ild) << "cutoff " << n;
    }
    EXPECT_EQ(parallel.ValidationNdcg(w->model.get(), 10), expected_val);
  }
}

// ---------------------------------------------------------------------
// Sharded cache + in-flight build guard

TEST(KernelCacheTest, ShardCountClampsToCapacity) {
  // Big caches spread across the requested stripes; small ones collapse
  // so the exact-LRU tests above stay meaningful.
  EXPECT_EQ(KernelCache(256, 16).num_shards(), 16);
  EXPECT_EQ(KernelCache(64, 16).num_shards(), 8);
  EXPECT_EQ(KernelCache(2).num_shards(), 1);
  EXPECT_EQ(KernelCache(0).num_shards(), 1);
  EXPECT_EQ(KernelCache(1024, 1).num_shards(), 1);
}

TEST(KernelCacheTest, ShardedCacheServesEveryKeyAndHonorsBudget) {
  KernelCache cache(128, 16);
  ASSERT_EQ(cache.num_shards(), 16);
  // Eviction is per shard (8 entries each here), so a skewed key->shard
  // draw may evict below the global budget; what must always hold is
  // that every inserted key is either retained (and correct) or counted
  // as an eviction.
  for (int k = 0; k < 100; ++k) {
    cache.Put(k, static_cast<uint64_t>(k) * 31 + 7, DummyEntry(k));
  }
  EXPECT_EQ(cache.size() + cache.evictions(), 100);
  EXPECT_GT(cache.size(), 128 / 2);  // Shards share the load.
  long present = 0;
  for (int k = 0; k < 100; ++k) {
    auto e = cache.Get(k, static_cast<uint64_t>(k) * 31 + 7);
    if (e != nullptr) {
      EXPECT_EQ(e->rep->Entry(0, 0), static_cast<double>(k));
      ++present;
    }
  }
  EXPECT_EQ(present, cache.size());
  // Overfill: total size never exceeds the budget, whatever the shards
  // the evictions land in.
  for (int k = 100; k < 400; ++k) {
    cache.Put(k, static_cast<uint64_t>(k) * 31 + 7, DummyEntry(k));
  }
  EXPECT_LE(cache.size(), 128);
  EXPECT_GT(cache.evictions(), 0);
}

// Regression test for the duplicate-user cold-batch race: concurrent
// misses on ONE key must run the builder once — the first caller owns
// the build, the rest block on the in-flight guard and share.
TEST(KernelCacheTest, GetOrBuildBuildsOnceUnderConcurrentMisses) {
  KernelCache cache(64);
  const std::vector<int> items{3, 1, 4, 1, 5};
  const uint64_t hash = HashGroundSet(items);
  std::atomic<int> builder_runs{0};
  std::atomic<int> hit_count{0};
  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  std::vector<std::shared_ptr<const ServedKernel>> got(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bool was_hit = false;
      auto r = cache.GetOrBuild(7, hash, items, [&] {
        builder_runs.fetch_add(1);
        // Widen the race window so every caller lands mid-build.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        auto e = std::make_shared<ServedKernel>();
        e->items = items;
        e->rep = std::make_shared<const PrimalKernelRep>(Matrix(2, 2, 9.0));
        return Result<std::shared_ptr<const ServedKernel>>(std::move(e));
      }, &was_hit);
      ASSERT_TRUE(r.ok());
      got[static_cast<size_t>(c)] = *r;
      if (was_hit) hit_count.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(builder_runs.load(), 1);
  EXPECT_EQ(cache.builds(), 1);
  // Piggybacking on an in-flight build is not a cache hit: the entry
  // was absent when every one of these calls arrived.
  EXPECT_EQ(hit_count.load(), 0);
  for (int c = 1; c < kCallers; ++c) {
    EXPECT_EQ(got[static_cast<size_t>(c)], got[0]);  // Shared pointer.
  }
  // The winner's entry was cached: the next call is a plain hit.
  bool was_hit = false;
  auto again = cache.GetOrBuild(7, hash, items, [&] {
    builder_runs.fetch_add(1);
    return Result<std::shared_ptr<const ServedKernel>>(
        Status::Internal("must not rebuild"));
  }, &was_hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(builder_runs.load(), 1);
}

TEST(KernelCacheTest, GetOrBuildPropagatesErrorsAndCachesNothing) {
  KernelCache cache(16);
  const std::vector<int> items{1, 2};
  const uint64_t hash = HashGroundSet(items);
  auto fail = cache.GetOrBuild(1, hash, items, [] {
    return Result<std::shared_ptr<const ServedKernel>>(
        Status::Internal("boom"));
  });
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(cache.size(), 0);
  // A failed build leaves no poisoned guard behind: the next call
  // builds fresh and succeeds.
  auto ok = cache.GetOrBuild(1, hash, items, [&] {
    auto e = std::make_shared<ServedKernel>();
    e->items = items;
    return Result<std::shared_ptr<const ServedKernel>>(std::move(e));
  });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(cache.builds(), 2);
  EXPECT_EQ(cache.size(), 1);
}

TEST(KernelCacheTest, GetOrBuildDetectsHashCollisionByItems) {
  KernelCache cache(16);
  const std::vector<int> items{1, 2, 3};
  const std::vector<int> other{9, 8, 7};
  const uint64_t hash = 42;  // Deliberately shared: a forced collision.
  auto build_for = [](const std::vector<int>& which) {
    return [&which] {
      auto e = std::make_shared<ServedKernel>();
      e->items = which;
      return Result<std::shared_ptr<const ServedKernel>>(std::move(e));
    };
  };
  ASSERT_TRUE(cache.GetOrBuild(1, hash, items, build_for(items)).ok());
  bool was_hit = true;
  auto r = cache.GetOrBuild(1, hash, other, build_for(other), &was_hit);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(was_hit);  // Stale entry must not be served.
  EXPECT_EQ((*r)->items, other);
}

// ---------------------------------------------------------------------
// Latency summaries and the lock-striped recorder

TEST(ServeStatsTest, SummarizeLatenciesPinnedWindows) {
  // 1-element window: every quantile is that element.
  LatencySummary one = SummarizeLatencies({7.5});
  EXPECT_DOUBLE_EQ(one.p50, 7.5);
  EXPECT_DOUBLE_EQ(one.p95, 7.5);
  EXPECT_DOUBLE_EQ(one.p99, 7.5);
  EXPECT_DOUBLE_EQ(one.max, 7.5);

  // Even length, shuffled: nearest-rank p50 of {1,2,3,4} is 2 (rank
  // ceil(0.5 * 4) = 2), not the 2.5 a midpoint interpolation would give.
  LatencySummary even = SummarizeLatencies({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.p50, 2.0);
  EXPECT_DOUBLE_EQ(even.p95, 4.0);
  EXPECT_DOUBLE_EQ(even.p99, 4.0);
  EXPECT_DOUBLE_EQ(even.max, 4.0);

  // Odd length: p50 is the true median.
  LatencySummary odd = SummarizeLatencies({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(odd.p50, 3.0);
  EXPECT_DOUBLE_EQ(odd.p95, 5.0);

  LatencySummary empty = SummarizeLatencies({});
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(ServeStatsTest, SummarizeLatenciesMatchesPercentileOnLargeWindows) {
  // The O(n) nth_element path must agree with the sort-based
  // Percentile() on every quantile it reports.
  Rng rng(123);
  std::vector<double> window(1000);
  for (double& x : window) x = rng.Uniform() * 50.0;
  const LatencySummary s = SummarizeLatencies(window);
  EXPECT_DOUBLE_EQ(s.p50, Percentile(window, 0.50));
  EXPECT_DOUBLE_EQ(s.p95, Percentile(window, 0.95));
  EXPECT_DOUBLE_EQ(s.p99, Percentile(window, 0.99));
  EXPECT_DOUBLE_EQ(s.max, Percentile(window, 1.0));
}

TEST(ServeStatsTest, RecorderMergesStripesAndSeparatesBusyFromWall) {
  ServeRecorder recorder(/*window_capacity=*/1024, /*stripes=*/4);
  const double batch1[] = {1.0, 2.0, 3.0};
  const double batch2[] = {4.0};
  recorder.RecordBatch(3, 0.5, batch1, 3);
  recorder.RecordBatch(1, 0.25, batch2, 1);
  ServeStats stats;
  recorder.Snapshot(&stats);
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 2.0);
  // busy = summed batch walls; wall = monotonic window elapsed. The
  // batches above took ~0s of real time, so wall stays far below the
  // 0.75s of claimed busy time — the overlap bug this fixes reported
  // those 0.75s AS the wall.
  EXPECT_DOUBLE_EQ(stats.busy_seconds, 0.75);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_LT(stats.wall_seconds, 0.5);
  EXPECT_GT(stats.throughput_rps, 4 / 0.5);
  // Percentiles span stripes: the window is {1,2,3,4} after merging.
  EXPECT_DOUBLE_EQ(stats.latency_p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(stats.latency_max_ms, 4.0);

  recorder.Reset();
  ServeStats cleared;
  recorder.Snapshot(&cleared);
  EXPECT_EQ(cleared.requests, 0);
  EXPECT_DOUBLE_EQ(cleared.busy_seconds, 0.0);
}

TEST(ServeStatsTest, RecorderConcurrentRecordsAllCounted) {
  ServeRecorder recorder(1024, 8);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder] {
      const double lat[] = {1.0, 2.0};
      for (int i = 0; i < 250; ++i) {
        recorder.RecordBatch(2, 0.001, lat, 2);
      }
    });
  }
  for (auto& t : writers) t.join();
  ServeStats stats;
  recorder.Snapshot(&stats);
  EXPECT_EQ(stats.requests, 2000);
  EXPECT_EQ(stats.batches, 1000);
  EXPECT_NEAR(stats.busy_seconds, 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Async admission

// The core admission contract: a SubmitAsync stream resolves to the
// bit-identical responses a synchronous caller gets for the same
// arrival order, regardless of how the batcher slices it.
TEST(ServeTest, AsyncAdmissionMatchesSyncBitExactly) {
  ServeWorld* w = World();
  for (const ServeMode mode : {ServeMode::kMapRerank, ServeMode::kSample}) {
    // A shuffled arrival order (not the round-robin the batches were
    // built in): what must match is this order, fork by fork.
    std::vector<RecRequest> trace = RoundRobinBatch(40, 5);
    Rng shuffle_rng(77);
    shuffle_rng.Shuffle(&trace);

    ServeConfig sync_config = BaseConfig(mode);
    auto sync_service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, sync_config);
    ASSERT_TRUE(sync_service.ok());
    auto sync_responses = (*sync_service)->HandleBatch(trace);
    ASSERT_TRUE(sync_responses.ok());

    // Tiny batches + zero deadline force many different slicings of the
    // same arrival sequence.
    ServeConfig async_config = BaseConfig(mode);
    async_config.max_batch_size = 7;
    async_config.batch_deadline_ms = 0.0;
    auto async_service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, async_config);
    ASSERT_TRUE(async_service.ok());
    std::vector<std::future<Result<RecResponse>>> futures;
    for (const RecRequest& r : trace) {
      futures.push_back((*async_service)->SubmitAsync(r));
    }
    (*async_service)->Flush();
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<RecResponse> resp = futures[i].get();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->items, (*sync_responses)[i].items)
          << ServeModeName(mode) << " request " << i;
      EXPECT_EQ(resp->user, trace[i].user);
    }
    const ServeStats stats = (*async_service)->Snapshot();
    EXPECT_EQ(stats.requests, 40);
    EXPECT_GE(stats.batches, 40 / 7);  // Occupancy-bounded slicing.
  }
}

TEST(ServeTest, AsyncAdmissionSlicingInvariance) {
  // Two async services with very different flush policies (deadline
  // flusher vs occupancy flusher) must produce identical streams.
  ServeWorld* w = World();
  const std::vector<RecRequest> trace = RoundRobinBatch(30, 11);
  std::vector<std::vector<int>> reference;
  for (const int max_batch : {3, 64}) {
    ServeConfig config = BaseConfig(ServeMode::kSample);
    config.max_batch_size = max_batch;
    config.batch_deadline_ms = max_batch == 64 ? 0.2 : 50.0;
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, config);
    ASSERT_TRUE(service.ok());
    std::vector<std::future<Result<RecResponse>>> futures;
    for (const RecRequest& r : trace) {
      futures.push_back((*service)->SubmitAsync(r));
    }
    (*service)->Flush();
    std::vector<std::vector<int>> got;
    for (auto& f : futures) {
      Result<RecResponse> resp = f.get();
      ASSERT_TRUE(resp.ok());
      got.push_back(resp->items);
    }
    if (reference.empty()) {
      reference = std::move(got);
    } else {
      EXPECT_EQ(got, reference);
    }
  }
}

TEST(ServeTest, DestructorResolvesQueuedRequests) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  config.batch_deadline_ms = 1000.0;  // Nothing flushes on its own.
  config.max_batch_size = 1024;
  std::vector<std::future<Result<RecResponse>>> futures;
  {
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, config);
    ASSERT_TRUE(service.ok());
    for (int i = 0; i < 5; ++i) {
      futures.push_back((*service)->SubmitAsync(RecRequest{i}));
    }
    // Destroyed with the deadline far in the future: the destructor
    // must drain, not abandon, the queue.
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
}

// TSan-focused stress: async admission + sharded cache + eviction churn
// + the dual/primal mix, all at once. Runs under the dedicated TSan CI
// job via the `thread` label on this suite.
TEST(ServeTest, AsyncAdmissionConcurrentSubmittersStress) {
  ServeWorld* w = World();
  ThreadPool pool(4);
  ServeConfig config = BaseConfig(ServeMode::kSample);
  config.kernel_blend_alpha = 1.0;  // Dual path active (rank 8 < pool 20).
  config.cache_capacity = 16;       // Constant eviction churn.
  config.max_batch_size = 8;
  config.batch_deadline_ms = 0.1;
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, &pool, config);
  ASSERT_TRUE(service.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int c = 0; c < 4; ++c) {
    submitters.emplace_back([&, c] {
      std::vector<std::future<Result<RecResponse>>> futures;
      for (int i = 0; i < 60; ++i) {
        futures.push_back((*service)->SubmitAsync(
            RecRequest{(c * 17 + i) % w->dataset.num_users()}));
      }
      for (auto& f : futures) {
        Result<RecResponse> resp = f.get();
        if (!resp.ok() ||
            static_cast<int>(resp->items.size()) != config.top_k) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // One synchronous caller interleaves with the async stream.
  std::thread sync_caller([&] {
    for (int b = 0; b < 10; ++b) {
      if (!(*service)->HandleBatch(RoundRobinBatch(6, b * 7)).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& t : submitters) t.join();
  sync_caller.join();
  EXPECT_EQ(failures.load(), 0);
  const ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.requests, 4 * 60 + 10 * 6);
  EXPECT_GT((*service)->cache().evictions(), 0);
}

// Duplicate users racing across concurrent cold batches: the in-flight
// guard (not just per-batch dedup) must collapse the kernel builds.
TEST(ServeTest, ConcurrentColdBatchesForOneUserBuildOnce) {
  ServeWorld* w = World();
  ThreadPool pool(4);
  ServeConfig config = BaseConfig(ServeMode::kSample);
  config.cache_capacity = 64;
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, &pool, config);
  ASSERT_TRUE(service.ok());
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      // Every batch names only user 3: all four callers race on one key.
      const std::vector<RecRequest> batch(8, RecRequest{3});
      if (!(*service)->HandleBatch(batch).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*service)->cache().builds(), 1);
}

// Regression for the stale-flush leak: a Flush() arriving while the
// batcher was BUSY with an empty queue set adm_flush_, and nothing
// cleared it when the batch finished without a take — so the NEXT
// submission dispatched immediately instead of waiting out its
// occupancy/deadline window. The flag must die at the flush rendezvous.
TEST(ServeTest, FlushWhileBusyDoesNotLeakIntoNextBatchWindow) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  config.max_batch_size = 2;
  config.batch_deadline_ms = 10000.0;  // Nothing flushes on its own.
  std::atomic<int> batches{0};
  std::atomic<bool> first_batch_taken{false};
  std::atomic<bool> second_flush_entered{false};
  config.on_batch_for_test = [&](int) {
    if (batches.fetch_add(1) != 0) return;  // Only stall the first batch.
    first_batch_taken = true;
    while (!second_flush_entered.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Give Flush() #2 time to block on the idle cv with the flush flag
    // set. (Worst-case scheduling means it has not yet when we proceed:
    // the test then passes vacuously, it never falsely fails.)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());

  auto first = (*service)->SubmitAsync(RecRequest{0});
  // Flush #1 (helper thread): queue non-empty, dispatches the batch.
  std::thread flusher([&] { (*service)->Flush(); });
  while (!first_batch_taken.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Flush #2 lands while the batcher is busy and the queue is empty —
  // exactly the leaking interleave.
  second_flush_entered = true;
  (*service)->Flush();
  flusher.join();
  ASSERT_TRUE(first.get().ok());

  // Probe: a fresh request must now sit in its deadline window, not
  // resolve immediately off a leaked flush flag.
  auto probe = (*service)->SubmitAsync(RecRequest{1});
  EXPECT_EQ(probe.wait_for(std::chrono::milliseconds(250)),
            std::future_status::timeout)
      << "stale flush flag leaked into the next batch window";
  (*service)->Flush();
  auto resp = probe.get();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(static_cast<int>(resp->items.size()), config.top_k);
}

// batch_deadline_ms == 0 means "flush as fast as the batcher can spin":
// every submission dispatches on its own — no Flush() needed, no request
// skipped — and the batcher parks between arrivals instead of spinning.
TEST(ServeTest, DeadlineZeroDispatchesImmediatelyWithoutSkips) {
  ServeWorld* w = World();
  ServeConfig config = BaseConfig(ServeMode::kMapRerank);
  config.max_batch_size = 1024;    // Occupancy never triggers.
  config.batch_deadline_ms = 0.0;  // Deadline is always already past.
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, config);
  ASSERT_TRUE(service.ok());
  const int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    auto f = (*service)->SubmitAsync(RecRequest{i % w->dataset.num_users()});
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "request " << i << " was skipped, not dispatched";
    auto resp = f.get();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(static_cast<int>(resp->items.size()), config.top_k);
  }
  const ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.requests, kRequests);
  // Each submission waited for its response before the next one, so
  // every request must have dispatched in a batch of its own.
  EXPECT_EQ(stats.batches, kRequests);
}

// alpha == 0 short-circuits MAP builds to the O(pool)-memory diagonal
// rep; selections must stay bit-identical to the forced-primal oracle.
TEST(ServeTest, AlphaZeroDiagPathMatchesForcedPrimalOracle) {
  ServeWorld* w = World();
  obs::Counter* diag_total = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"diag_map\"}");
  ServeConfig diag_cfg = BaseConfig(ServeMode::kMapRerank);
  diag_cfg.kernel_blend_alpha = 0.0;
  ServeConfig primal_cfg = diag_cfg;
  primal_cfg.force_primal = true;
  auto diag_service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, diag_cfg);
  auto primal_service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr, primal_cfg);
  ASSERT_TRUE(diag_service.ok());
  ASSERT_TRUE(primal_service.ok());
  const long before = diag_total->Value();
  for (int b = 0; b < 3; ++b) {
    auto rd = (*diag_service)->HandleBatch(RoundRobinBatch(24, b * 5));
    auto rp = (*primal_service)->HandleBatch(RoundRobinBatch(24, b * 5));
    ASSERT_TRUE(rd.ok()) << rd.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_EQ(rd->size(), rp->size());
    for (size_t i = 0; i < rd->size(); ++i) {
      EXPECT_EQ((*rd)[i].items, (*rp)[i].items)
          << "batch " << b << " request " << i
          << ": diag and primal MAP selections diverged";
      EXPECT_EQ(static_cast<int>((*rd)[i].items.size()), diag_cfg.top_k);
    }
  }
  // Every diag-service build took the short circuit; the forced-primal
  // oracle (same alpha, interleaved above) never did.
  const long diag_builds = diag_total->Value() - before;
  EXPECT_EQ(diag_builds, (*diag_service)->cache().builds());
  EXPECT_GT(diag_builds, 0);
}

// ---------------------------------------------------------------------
// Serve-path decision and per-path attribution

// The sampling-mode base config at a given blend.
ServeConfig SampleConfig(double alpha) {
  ServeConfig config = BaseConfig(ServeMode::kSample);
  config.kernel_blend_alpha = alpha;
  return config;
}

// ChooseServePath over mode x alpha x thin rank x force_primal, against a
// 20-item pool. force_primal wins every cell; blended sampling is primal.
TEST(ServeTest, ChooseServePathTable) {
  constexpr int kPool = 20;
  struct Row {
    ServeMode mode;
    double alpha;
    int thin_rank;
    ServePath expected;
  };
  const Row rows[] = {
      // MAP rerank: alpha == 0 is a pure diagonal whatever the factor;
      // otherwise the factor rep whenever it is thinner than the pool.
      {ServeMode::kMapRerank, 0.0, 0, ServePath::kDiagMap},
      {ServeMode::kMapRerank, 0.0, 8, ServePath::kDiagMap},
      {ServeMode::kMapRerank, 0.0, kPool, ServePath::kDiagMap},
      {ServeMode::kMapRerank, 0.4, 0, ServePath::kPrimal},
      {ServeMode::kMapRerank, 0.4, 8, ServePath::kFactorMap},
      {ServeMode::kMapRerank, 0.4, kPool, ServePath::kPrimal},
      {ServeMode::kMapRerank, 1.0, 0, ServePath::kPrimal},
      {ServeMode::kMapRerank, 1.0, 8, ServePath::kFactorMap},
      {ServeMode::kMapRerank, 1.0, kPool, ServePath::kPrimal},
      // Sampling: only the pure-factor blend with a thin factor goes
      // dual; alpha == 0 and blended 0 < alpha < 1 build primally.
      {ServeMode::kSample, 0.0, 0, ServePath::kPrimal},
      {ServeMode::kSample, 0.0, 8, ServePath::kPrimal},
      {ServeMode::kSample, 0.0, kPool, ServePath::kPrimal},
      {ServeMode::kSample, 0.4, 0, ServePath::kPrimal},
      {ServeMode::kSample, 0.4, 8, ServePath::kPrimal},
      {ServeMode::kSample, 0.4, kPool, ServePath::kPrimal},
      {ServeMode::kSample, 1.0, 0, ServePath::kPrimal},
      {ServeMode::kSample, 1.0, 8, ServePath::kDualSample},
      {ServeMode::kSample, 1.0, kPool, ServePath::kPrimal},
  };
  for (const Row& row : rows) {
    for (bool force_primal : {false, true}) {
      ServeConfig config;
      config.mode = row.mode;
      config.kernel_blend_alpha = row.alpha;
      config.force_primal = force_primal;
      const ServePath expected =
          force_primal ? ServePath::kPrimal : row.expected;
      const ServePath chosen = ChooseServePath(config, kPool, row.thin_rank);
      EXPECT_EQ(chosen, expected)
          << ServeModeName(row.mode) << " alpha=" << row.alpha
          << " rank=" << row.thin_rank << " force_primal=" << force_primal
          << ": chose " << ServePathName(chosen) << ", expected "
          << ServePathName(expected);
    }
  }
}

TEST(ServeTest, PathAttributionIsPerRepresentation) {
  ServeWorld* w = World();
  obs::Counter* primal = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"primal\"}");
  obs::Counter* factor_map = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"factor_map\"}");
  obs::Counter* factor_diag_sample =
      obs::MetricsRegistry::Global().GetCounter(
          "lkp_serve_path_total{path=\"factor_diag_sample\"}");
  obs::Counter* dual_sample = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_path_total{path=\"dual_sample\"}");

  // MAP with the factor rep: path attribution goes to factor_map.
  {
    ServeConfig cfg = SampleConfig(0.5);
    cfg.mode = ServeMode::kMapRerank;
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, cfg);
    ASSERT_TRUE(service.ok());
    const long map_before = factor_map->Value();
    auto responses = (*service)->HandleBatch(RoundRobinBatch(16, 0));
    ASSERT_TRUE(responses.ok());
    bool saw_factor_map = false;
    for (const RecResponse& r : *responses) {
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, ServePath::kFactorMap);
      saw_factor_map = true;
    }
    EXPECT_TRUE(saw_factor_map);
    EXPECT_GT(factor_map->Value(), map_before);
  }

  // Blended sampling builds primally and attributes to primal, never to
  // a thin sampling path.
  {
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr,
        SampleConfig(0.5));
    ASSERT_TRUE(service.ok());
    const long primal_before = primal->Value();
    const long fd_before = factor_diag_sample->Value();
    const long dual_before = dual_sample->Value();
    auto responses = (*service)->HandleBatch(RoundRobinBatch(16, 0));
    ASSERT_TRUE(responses.ok());
    for (const RecResponse& r : *responses) {
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, ServePath::kPrimal);
    }
    EXPECT_GT(primal->Value(), primal_before);
    EXPECT_EQ(factor_diag_sample->Value(), fd_before);
    EXPECT_EQ(dual_sample->Value(), dual_before);
  }

  // Pure-diversity sampling still attributes to dual_sample.
  {
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr,
        SampleConfig(1.0));
    ASSERT_TRUE(service.ok());
    const long dual_before = dual_sample->Value();
    auto responses = (*service)->HandleBatch(RoundRobinBatch(16, 0));
    ASSERT_TRUE(responses.ok());
    for (const RecResponse& r : *responses) {
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, ServePath::kDualSample);
    }
    EXPECT_GT(dual_sample->Value(), dual_before);
  }

  // MAP at alpha == 0 attributes to diag_map.
  {
    ServeConfig cfg = SampleConfig(0.0);
    cfg.mode = ServeMode::kMapRerank;
    auto service = RecommendationService::Create(
        &w->dataset, w->model.get(), &w->diversity, nullptr, cfg);
    ASSERT_TRUE(service.ok());
    auto responses = (*service)->HandleBatch(RoundRobinBatch(8, 0));
    ASSERT_TRUE(responses.ok());
    for (const RecResponse& r : *responses) {
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, ServePath::kDiagMap);
    }
  }
}

TEST(ServeTest, ServePathNamesAreStable) {
  EXPECT_STREQ(ServePathName(ServePath::kPrimal), "primal");
  EXPECT_STREQ(ServePathName(ServePath::kDualSample), "dual_sample");
  EXPECT_STREQ(ServePathName(ServePath::kFactorDiagSample),
               "factor_diag_sample");
  EXPECT_STREQ(ServePathName(ServePath::kFactorMap), "factor_map");
  EXPECT_STREQ(ServePathName(ServePath::kDiagMap), "diag_map");
}

// ---------------------------------------------------------------------
// Config validation regressions (NaN used to pass the range checks)

TEST(ConfigValidationTest, ServeConfigRejectsNonFiniteFields) {
  ServeWorld* w = World();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto create = [&](const ServeConfig& cfg) {
    return RecommendationService::Create(&w->dataset, w->model.get(),
                                         &w->diversity, nullptr, cfg)
        .ok();
  };
  // Regression: `alpha < 0 || alpha > 1` waved NaN straight through.
  ServeConfig cfg = SampleConfig(0.5);
  cfg.kernel_blend_alpha = nan;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.kernel_blend_alpha = inf;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.batch_deadline_ms = nan;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.batch_deadline_ms = inf;
  EXPECT_FALSE(create(cfg));
  EXPECT_TRUE(create(SampleConfig(0.5)));
}

// ---------------------------------------------------------------------
// Gaussian kernels: no exact thin factor, so only exact paths serve them

// Every mode and blend alpha serves on diag_map (MAP at alpha == 0) or
// primal, with the items a force_primal service returns.
TEST(GaussianServeTest, ServesOnlyExactPaths) {
  ServeWorld* w = World();
  Rng rng(41);
  const Matrix embeddings =
      testutil::RandomMatrix(w->dataset.num_items(), 6, &rng);
  struct Case {
    ServeMode mode;
    double alpha;
  };
  for (const Case& c : {Case{ServeMode::kMapRerank, 0.0},
                        Case{ServeMode::kMapRerank, 0.4},
                        Case{ServeMode::kMapRerank, 1.0},
                        Case{ServeMode::kSample, 0.4},
                        Case{ServeMode::kSample, 1.0}}) {
    ServeConfig cfg = BaseConfig(c.mode);
    cfg.kernel_blend_alpha = c.alpha;
    ServeConfig primal_cfg = cfg;
    primal_cfg.force_primal = true;
    auto service = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr, cfg);
    auto oracle = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr,
        primal_cfg);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto got = (*service)->HandleBatch(RoundRobinBatch(12, 0));
    auto want = (*oracle)->HandleBatch(RoundRobinBatch(12, 0));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->size(), want->size());
    const ServePath expected =
        c.mode == ServeMode::kMapRerank && c.alpha == 0.0
            ? ServePath::kDiagMap
            : ServePath::kPrimal;
    for (size_t i = 0; i < got->size(); ++i) {
      const RecResponse& r = (*got)[i];
      EXPECT_EQ(r.items, (*want)[i].items)
          << ServeModeName(c.mode) << " alpha=" << c.alpha << " i=" << i;
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, expected)
          << ServeModeName(c.mode) << " alpha=" << c.alpha << " served on "
          << ServePathName(r.path);
    }
  }
}

// Regression: a NaN embedding column used to be accepted, after which
// MAP lists degraded to one greedy pick plus score-order backfill and
// every sampling batch failed with NumericalError.
TEST(GaussianServeTest, RejectsNonFiniteEmbeddings) {
  ServeWorld* w = World();
  Rng rng(43);
  const Matrix clean =
      testutil::RandomMatrix(w->dataset.num_items(), 6, &rng);
  Matrix nan_column = clean;
  for (int i = 0; i < nan_column.rows(); ++i) {
    nan_column(i, 2) = std::numeric_limits<double>::quiet_NaN();
  }
  Matrix inf_entry = clean;
  inf_entry(7, 0) = std::numeric_limits<double>::infinity();
  for (ServeMode mode : {ServeMode::kMapRerank, ServeMode::kSample}) {
    for (const Matrix* embeddings : {&nan_column, &inf_entry}) {
      auto service = RecommendationService::CreateGaussian(
          &w->dataset, w->model.get(), Matrix(*embeddings), 1.5, nullptr,
          BaseConfig(mode));
      ASSERT_FALSE(service.ok()) << ServeModeName(mode);
      EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_TRUE(RecommendationService::CreateGaussian(
                  &w->dataset, w->model.get(), Matrix(clean), 1.5, nullptr,
                  BaseConfig(ServeMode::kSample))
                  .ok());
}

}  // namespace
}  // namespace lkpdpp
