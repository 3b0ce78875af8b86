// Sharded LRU memoization of per-(user, ground set) serving kernels.
//
// Building a personalized k-DPP over a candidate pool costs an O(n^3)
// eigendecomposition plus the ESP table (the hot path the ROADMAP flags).
// For a fixed trained model the conditioned kernel is a pure function of
// (user, ground set), so repeat requests can skip all of it. The cache
// stores the assembled quality x diversity kernel and, for sampling mode,
// the fully decomposed KDpp (eigenpairs + ESP table) behind shared_ptr,
// so an entry evicted mid-request stays alive for its readers.
//
// Concurrency: the table is lock-striped into N independent shards, each
// with its own mutex, LRU list, and counters, so concurrent lookups on
// different keys never serialize on one global lock. Eviction is LRU
// *per shard* (globally approximate LRU). Small capacities collapse to a
// single shard so the exact-LRU behavior unit tests rely on survives.
//
// The expensive build path goes through GetOrBuild: the builder runs
// with NO shard lock held, and a per-key in-flight guard makes
// concurrent misses on the same key compute once — the first caller
// builds, the rest block on the guard and share the result instead of
// duplicating (or serializing under a held lock) the O(n^3) work.
//
// Invalidation: entries are valid only for the model snapshot they were
// computed under, and every ServedKernel carries the model_version epoch
// it was built against. A streaming update (see serve/model_update.h)
// that folds fresh interactions into a handful of user/item parameter
// rows does NOT require nuking the cache: each shard keeps a reverse
// index (user id -> its keys, item id -> keys whose ground set contains
// the item), so InvalidateUsers/InvalidateItems evict exactly the
// entries whose inputs changed — any entry owned by a touched user, or
// whose pool contains a touched item — and leave everything else warm.
// Pool-membership drift needs no invalidation at all: the key includes
// the ground-set hash, so a pool recomputed from fresh scores that
// admits or drops an item simply misses and rebuilds, while the stale
// pool's entry ages out by LRU. Clear() remains the blunt fallback for
// full retrains / model swaps (the service owns this; see
// RecommendationService::InvalidateModel).

#ifndef LKPDPP_SERVE_KERNEL_CACHE_H_
#define LKPDPP_SERVE_KERNEL_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/kdpp.h"
#include "linalg/kernel_rep.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace lkpdpp {

enum class ServePath;  // Defined in serve/service.h.

/// Everything reusable about one (user, ground set) pair.
struct ServedKernel {
  /// The exact ground set this kernel was built for. Consumers compare
  /// this against their pool on a cache hit, so a 64-bit hash collision
  /// costs one rebuild instead of silently serving the wrong kernel.
  std::vector<int> items;
  /// Conditioned kernel L = Diag(q) (alpha*K + (1-alpha)*I) Diag(q) over
  /// the pool, in pool-local indices, behind whichever KernelRep the
  /// service's cost model picked: a materialized PrimalKernelRep, or a
  /// FactorDiagKernelRep holding just the pool's factor rows + blend
  /// scalars (O(pool * rank) memory, rows synthesized on demand).
  /// MAP-rerank mode only: sampling-mode entries keep the kernel inside
  /// `kdpp` instead of storing a second copy.
  std::shared_ptr<const KernelRep> rep;
  /// Decomposed k-DPP over the conditioned kernel (sampling mode only;
  /// null for MAP rerank, which needs no eigendecomposition). May be a
  /// primal k-DPP (n x n kernel + eigendecomposition) or, at alpha == 1
  /// only, a low-rank dual one (factor + d x d dual eigendecomposition,
  /// kdpp->is_dual()) — the cache is representation-agnostic, and one
  /// service's cache can hold a mix when pool sizes straddle the factor
  /// rank. Both kinds ride the same versioned invalidation below.
  std::shared_ptr<const KDpp> kdpp;
  /// The serve path whose builder produced this entry.
  /// Value-initialized to ServePath::kPrimal.
  ServePath path{};
  /// The model_version epoch the kernel was computed under (stamped by
  /// the service's builder). Targeted invalidation keeps entries from
  /// ever being SERVED stale, so a surviving entry's stamp only says how
  /// old its (still valid) inputs are — observability, not correctness.
  uint64_t model_version = 0;
};

/// Order-sensitive hash of a ground set (SplitMix64 chaining). Serving
/// pools are always produced in descending-score order, so equal sets
/// hash equally.
uint64_t HashGroundSet(const std::vector<int>& items);

/// Thread-safe sharded LRU cache keyed on (user, ground-set hash).
/// Capacity 0 disables storage (Get always misses, Put drops) but the
/// in-flight guard of GetOrBuild still deduplicates concurrent builds.
class KernelCache {
 public:
  /// `capacity` is the total entry budget, distributed across shards.
  /// The effective shard count is clamped so every shard holds at least
  /// kMinEntriesPerShard entries (exact single-shard LRU for small
  /// caches); pass `shards` <= 1 to force one shard.
  explicit KernelCache(int capacity, int shards = kDefaultShards);

  /// Returns the entry and refreshes its recency, or null on miss.
  std::shared_ptr<const ServedKernel> Get(int user, uint64_t ground_hash);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// entry of its shard when that shard is over capacity.
  void Put(int user, uint64_t ground_hash,
           std::shared_ptr<const ServedKernel> value);

  /// Builds one ServedKernel; runs with no cache lock held.
  using Builder =
      std::function<Result<std::shared_ptr<const ServedKernel>>()>;

  /// The memoized build path: returns the cached entry for (user,
  /// ground_hash) whose `items` equal `items`, or runs `build` to create
  /// it. Concurrent calls for the same key run the builder ONCE — the
  /// winner computes (lock-free for the cache), the rest wait on the
  /// per-key in-flight guard and share the result. Builder failures
  /// propagate to the owner and every waiter, and nothing is cached.
  /// `was_hit`, when non-null, reports whether the entry came from the
  /// cache (piggybacking on another caller's in-flight build counts as a
  /// miss: the kernel was not in the cache when this call arrived).
  Result<std::shared_ptr<const ServedKernel>> GetOrBuild(
      int user, uint64_t ground_hash, const std::vector<int>& items,
      const Builder& build, bool* was_hit = nullptr);

  /// Targeted invalidation: evicts every entry keyed on one of `users`
  /// (any ground set), via the per-shard user reverse index. Returns the
  /// number of entries evicted. O(shards + evicted), not O(cache).
  long InvalidateUsers(const std::vector<int>& users);

  /// Targeted invalidation: evicts every entry whose ground set contains
  /// one of `items`, via the per-shard item reverse index. Returns the
  /// number of entries evicted.
  long InvalidateItems(const std::vector<int>& items);

  void Clear();

  /// Zeroes hit/miss/eviction/build/invalidation counters without
  /// touching the entries (used by ServeStats windows).
  void ResetCounters();

  int capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int size() const;
  long hits() const;
  long misses() const;
  long evictions() const;
  /// Number of Builder invocations GetOrBuild actually ran. With the
  /// in-flight guard, concurrent misses on one key contribute one build.
  long builds() const;
  /// Entries evicted by InvalidateUsers/InvalidateItems (NOT counted as
  /// LRU evictions), total and per shard.
  long invalidations() const;
  std::vector<long> InvalidationsByShard() const;

  static constexpr int kDefaultShards = 16;
  /// Floor on per-shard capacity; below it the cache collapses to fewer
  /// shards (capacity < 2 * kMinEntriesPerShard means exactly one).
  static constexpr int kMinEntriesPerShard = 8;

 private:
  struct Key {
    int user;
    uint64_t hash;
    bool operator==(const Key& o) const {
      return user == o.user && hash == o.hash;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key& k) const {
      // SplitMix64-style finalizer over the pair.
      uint64_t x = k.hash ^ (static_cast<uint64_t>(k.user) * 0x9E3779B97F4A7C15ULL);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  using Entry = std::pair<Key, std::shared_ptr<const ServedKernel>>;

  /// One caller computes, the rest block on `cv` until `done`.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::shared_ptr<const ServedKernel>> result =
        Result<std::shared_ptr<const ServedKernel>>(
            Status::Internal("in-flight build not finished"));
  };

  struct Shard {
    mutable std::mutex mu;
    int capacity = 0;
    std::list<Entry> lru;  // Front = most recently used.
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHasher> index;
    std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHasher> inflight;
    // Reverse indices for targeted invalidation: every resident key,
    // bucketed by its user and by each item of its entry's ground set.
    // Maintained by PutLocked/EraseLocked so they mirror `index`
    // exactly; empty buckets are erased so the maps stay proportional
    // to resident entries, not to ids ever seen.
    std::unordered_map<int, std::vector<Key>> user_keys;
    std::unordered_map<int, std::vector<Key>> item_keys;
    // Entries evicted by targeted invalidation (shard.mu held).
    long invalidated = 0;
    // Registry counters lkp_serve_cache_evictions_total{shard="<i>"} /
    // lkp_serve_cache_invalidations_total{shard="<i>"}, shared by every
    // cache with a shard at this index (process-wide per-shard
    // attribution).
    obs::Counter* evictions_metric = nullptr;
    obs::Counter* invalidations_metric = nullptr;
  };

  /// Shard selection re-mixes the key hash through SplitMix64 before
  /// the modulus. Reusing KeyHasher's value verbatim would make the
  /// shard index a pure function of the SAME bits the per-shard
  /// unordered_map buckets on, so every key landing in shard i would
  /// share `hash % num_shards == i` — correlated bucket structure
  /// inside every shard. The finalizer decorrelates the two uses.
  static size_t ShardIndexFor(size_t key_hash, size_t num_shards) {
    uint64_t x = static_cast<uint64_t>(key_hash) + 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<size_t>(x) % num_shards;
  }

  Shard& ShardFor(const Key& key) {
    return *shards_[ShardIndexFor(KeyHasher{}(key), shards_.size())];
  }
  const Shard& ShardFor(const Key& key) const {
    return *shards_[ShardIndexFor(KeyHasher{}(key), shards_.size())];
  }

  /// Inserts or refreshes `key` in `shard` (shard.mu must be held).
  void PutLocked(Shard& shard, const Key& key,
                 std::shared_ptr<const ServedKernel> value);

  /// Removes `key`'s LRU node + index + reverse-index buckets
  /// (shard.mu must be held). No-op if the key is not resident.
  void EraseLocked(Shard& shard, const Key& key);

  /// Reverse-index bookkeeping (shard.mu must be held).
  static void IndexEntryLocked(Shard& shard, const Key& key,
                               const ServedKernel& value);
  static void UnindexEntryLocked(Shard& shard, const Key& key,
                                 const ServedKernel& value);

  const int capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cache-instance counters behind hits()/misses()/evictions()/builds()
  // and ServeStats — obs primitives (lock-free sharded atomics), bumped
  // at the same sites as their process-wide lkp_serve_cache_* mirrors
  // in the MetricsRegistry.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter builds_;
  obs::Counter invalidations_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_SERVE_KERNEL_CACHE_H_
