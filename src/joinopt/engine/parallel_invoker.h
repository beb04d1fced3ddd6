// The preMap/map executor: the Section 7 API (Figure 10's submitComp /
// fetchComp over Figure 4's result hash-map) running on a real worker pool,
// overlapping prefetches with computation. Costs are measured with real
// clocks and fed to the same DecisionEngine the simulator uses, so the
// ski-rental caching policy is live on real payloads.
//
// Design (lock-minimal):
//  * The DecisionEngine + payload cache are *sharded* by key hash: one
//    striped mutex per shard, each shard owning its own engine (frequency
//    counter, tiered cache with 1/num_shards of the capacity, EWMA cost
//    model). Per-shard measurements are merged on read by the Merged*()
//    accessors. No lock is ever held across a service call or a UDF
//    execution.
//  * Cache hits run on the submitting thread. When SubmitComp finds the
//    key's payload and cache-tier slot both present, it runs the hit plan
//    itself, deciding with the owner recorded at fetch time: a hit needs
//    no wire, and handing it to a worker cost more than the join
//    (DESIGN.md §9).
//  * Every other submission enqueues into a bounded MPMC queue drained by
//    a fixed worker pool; a full queue blocks the producer (backpressure
//    instead of unbounded growth). The worker pool thus carries the
//    requests that need the wire: data requests and compute requests.
//  * Duplicate in-flight *fetches* of the same key coalesce (single
//    flight): the second requester waits for the first fetch to land and
//    then re-routes via the engine's const ReDecide (the access was
//    already counted), now against a warm cache. First compute requests
//    coalesce the same way: while a key's blind first delegation is in
//    flight, same-key work holds until its piggybacked cost parameters
//    arrive instead of flooding the data node (Decision::first_request).
//  * Compute-request delegations batch per destination data node, sized by
//    the same BatchSizer the simulator's Batcher uses, and go out through
//    DataService::ExecuteBatch (one round trip per batch).
//
// Each request is decided exactly once (one DecisionEngine::Decide call,
// on whichever thread runs its plan), so frequency counts and ski-rental
// thresholds match the single-threaded executor's.
//
// Determinism: with workers, completion *order* across keys is
// scheduling-dependent, so cross-key decision sequences (and therefore
// exact cache contents) are not deterministic. With num_threads = 1 and
// num_shards = 1, a caller that uses only FetchComp gets the deterministic
// single-threaded executor: every request runs its plan inline on the
// caller's thread against one engine, delegations unbatched.
#ifndef JOINOPT_ENGINE_PARALLEL_INVOKER_H_
#define JOINOPT_ENGINE_PARALLEL_INVOKER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/batcher.h"
#include "joinopt/engine/bounded_queue.h"
#include "joinopt/engine/plan_exec.h"
#include "joinopt/skirental/decision_engine.h"

namespace joinopt {

class NodeLoadView;

struct ParallelInvokerOptions {
  DecisionEngineConfig decision;
  /// Modeled bandwidth for the cost model's network terms.
  double bandwidth_bytes_per_sec = 125e6;
  /// Worker threads draining the prefetch queue.
  int num_threads = 4;
  /// Lock stripes; 0 = derived from num_threads (next power of two of
  /// 4 * num_threads, clamped to [8, 64]). The configured cache capacity
  /// is split evenly across shards.
  int num_shards = 0;
  /// Bounded prefetch queue capacity (backpressure bound).
  size_t queue_capacity = 1024;
  /// Bound on unclaimed prefetched results, applied per shard after
  /// dividing by the shard count (BoundedResultMap's age sweep).
  size_t max_unclaimed_results = 1 << 16;
  /// Delegation batching: static batch size per destination data node...
  int delegation_batch_size = 8;
  /// ...flushed early once the oldest buffered delegation has waited this
  /// long (checked whenever a worker goes idle or a fetcher polls).
  double delegation_max_wait = 500e-6;
  /// Optional dynamic sizing, shared with the simulator's Batcher.
  BatcherDynamicSizing delegation_sizing;
  /// Optional shared load view (DESIGN.md §15): workers periodically push
  /// the cost model's smoothed per-node tCompute/tFetch estimates into it
  /// (throttled; shard lock rank kInvokerShard < kNodeLoadView, so the
  /// nesting is legal), giving replica selection a latency prior before
  /// any direct observation exists. Null disables the feed.
  NodeLoadView* load_view = nullptr;
};

struct ParallelInvokerStats {
  int64_t submitted = 0;
  int64_t served_from_cache = 0;
  /// Cache hits SubmitComp ran on the submitting thread instead of
  /// queueing them for a worker (a subset of served_from_cache).
  int64_t served_inline = 0;
  int64_t fetched_then_computed = 0;
  int64_t delegated = 0;
  /// Fetches that coalesced onto another in-flight fetch of the same key.
  int64_t coalesced_fetches = 0;
  /// First-requests held while the key's blind first delegation was in
  /// flight (Section 4.3's first-request rule under concurrency).
  int64_t held_first_requests = 0;
  /// FetchComp calls that ran the plan in the caller (never prefetched,
  /// or the prefetch failed / was dropped).
  int64_t on_demand_runs = 0;
  /// Unclaimed prefetched results dropped by the per-shard result bound.
  int64_t dropped_results = 0;
  /// Delegation batches shipped via ExecuteBatch.
  int64_t delegation_batches = 0;
  /// Submissions that failed with a transport-class error (kAborted — what
  /// the RPC client surfaces once its own backoff + replica failover is
  /// exhausted; see net/socket.h). FetchComp re-runs these on demand, so a
  /// transient outage costs latency, not correctness.
  int64_t transport_errors = 0;
  /// Cached payloads dropped by ResyncWhere (epoch-gap recovery).
  int64_t resync_dropped = 0;
};

class ParallelInvoker {
 public:
  using Options = ParallelInvokerOptions;

  /// `fn` runs concurrently on several workers; it must be thread-safe.
  ParallelInvoker(DataService* service, UserFn fn,
                  const Options& options = Options());
  /// Drains the queue, flushes delegation batches and joins the workers.
  ~ParallelInvoker();

  ParallelInvoker(const ParallelInvoker&) = delete;
  ParallelInvoker& operator=(const ParallelInvoker&) = delete;

  /// preMap (Figure 10's submitComp). Thread-safe. A cache hit runs to
  /// completion on the calling thread, so the call lasts one UDF
  /// execution; any other request is queued for a worker, blocking only
  /// while the prefetch queue is full.
  void SubmitComp(Key key, std::string params);

  /// map (Figure 10's fetchComp). Thread-safe. Waits for an in-flight
  /// submission of the same request; computes on demand when there is
  /// none.
  StatusOr<std::string> FetchComp(Key key, const std::string& params);

  /// Invalidate a cached value after a store update (Section 4.2.3).
  /// Thread-safe; a fetch racing the update is detected by version and
  /// never installs the stale payload.
  void OnUpdate(Key key, uint64_t new_version);

  /// Epoch-gap re-sync: drops every cached payload (and the matching
  /// engine cache/counter state) whose key satisfies `pred`. Used when an
  /// update-notification stream detects a gap — the dropped keys may or
  /// may not have changed, but their invalidations can no longer be
  /// trusted, so the stale-read window is closed by re-fetching on next
  /// use. Thread-safe; returns the number of payloads dropped (the
  /// "targeted re-sync" metric — it must stay proportional to the gapped
  /// regions, not the whole cache).
  int64_t ResyncWhere(const std::function<bool(Key)>& pred);

  /// Blocks until every submitted request has produced (or dropped) its
  /// result and all delegation batches have flushed.
  void Barrier();

  ParallelInvokerStats stats() const;
  /// Per-shard decision-engine stats summed on read.
  DecisionEngineStats MergedEngineStats() const;
  /// Per-shard cache stats summed on read.
  TieredCacheStats MergedCacheStats() const;
  /// Per-shard EWMA of local UDF wall time averaged across shards
  /// (shards without observations contribute their prior, matching what
  /// their next decision would use).
  double MergedLocalComputeSeconds() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t pending_results() const;

 private:
  struct CachedValue {
    std::shared_ptr<const std::string> value;
    uint64_t version = 0;
    /// The key's owner when the payload was fetched. An inline hit
    /// decides with it instead of a fresh OwnerOf, which can be a round
    /// trip; for a hit the owner only weights the cache benefit (a
    /// promotion since the fetch shifts that weight until the next
    /// fetch), and nothing is routed to it.
    NodeId owner = kInvalidNode;
  };

  struct Shard {
    /// All shards share rank kInvokerShard: two shard locks never nest
    /// (Merged*() and ResyncWhere lock one stripe at a time) and the
    /// checker enforces exactly that.
    mutable Mutex mu{lock_rank::kInvokerShard, "ParallelInvoker::Shard::mu"};
    /// Signals result arrivals, pending-count drops and fetch completions.
    CondVar cv;
    std::unique_ptr<DecisionEngine> engine JOINOPT_GUARDED_BY(mu)
        JOINOPT_PT_GUARDED_BY(mu);
    std::unordered_map<Key, CachedValue> values JOINOPT_GUARDED_BY(mu);
    BoundedResultMap results JOINOPT_GUARDED_BY(mu){0};
    /// (key, params) request ids with submissions still in flight.
    std::unordered_map<uint64_t, int> pending JOINOPT_GUARDED_BY(mu);
    /// Keys with a fetch in flight (single-flight coalescing).
    std::unordered_set<Key> fetching JOINOPT_GUARDED_BY(mu);
    /// Keys with delegations in flight (count: duplicates each delegate
    /// once bought-in, but first-requests hold while this is non-zero).
    std::unordered_map<Key, int> delegating JOINOPT_GUARDED_BY(mu);
    /// Floor on acceptable fetched versions, set by OnUpdate (the new
    /// version) and ResyncWhere (the dropped payload's version): a fetch
    /// that raced an update, or read a lagging replica, and returned an
    /// older version is neither cached nor served.
    std::unordered_map<Key, uint64_t> min_version JOINOPT_GUARDED_BY(mu);
    /// Keys whose fetch was in flight when ResyncWhere covered them: the
    /// payload it returns may predate a missed update, so it is not cached.
    std::unordered_set<Key> resynced_fetches JOINOPT_GUARDED_BY(mu);
    int64_t runs_since_trim JOINOPT_GUARDED_BY(mu) = 0;
  };

  struct WorkItem {
    Key key;
    std::string params;
  };

  struct Delegation {
    Key key;
    std::string params;
    uint64_t request_id;
  };

  struct DestBatch {
    std::vector<Delegation> items;
    BatchSizer sizer;
    double oldest_add = -1.0;
    DestBatch(int size, const BatcherDynamicSizing& dynamic)
        : sizer(size, dynamic) {}
  };

  /// Key -> stripe. Salted so the stripe choice decorrelates from owner
  /// placements that also hash the key (e.g. LogStoreDataService).
  static size_t ShardIndex(Key key, uint64_t mask) {
    return static_cast<size_t>(Mix64(key + 0x9E3779B97F4A7C15ULL) & mask);
  }
  Shard& ShardFor(Key key) { return *shards_[ShardIndex(key, shard_mask_)]; }

  void WorkerLoop();
  /// Runs one queued submission end to end (result recorded in the shard).
  void ProcessQueued(const WorkItem& item);
  /// When SubmitComp may run `key`'s request inline — the payload and its
  /// cache-tier slot are both present, so Decide will route a hit — the
  /// owner the payload was fetched from; nullopt otherwise. Reads only;
  /// counts nothing.
  static std::optional<NodeId> InlineHitOwner(Shard& shard, Key key)
      JOINOPT_REQUIRES(shard.mu);
  /// The request's single counted access: trims the payload map now and
  /// then, refreshes the bandwidth prior and routes through Decide.
  Decision DecideLocked(Shard& shard, Key key, NodeId owner)
      JOINOPT_REQUIRES(shard.mu);
  /// Executes a decided plan. Entered and left holding shard.mu, which is
  /// released around every service call and UDF execution. When
  /// `allow_defer` and the plan is a compute request, nullopt is returned
  /// with the key marked delegating: the caller drops the lock and hands
  /// the request to AddDelegation, whose batch flush records the result.
  std::optional<StatusOr<std::string>> RunPlan(Shard& shard, Key key,
                                               const std::string& params,
                                               NodeId owner, Decision decision,
                                               bool allow_defer)
      JOINOPT_REQUIRES(shard.mu);
  /// The compute-request leg of the plan: marks the key delegating, then
  /// returns nullopt when deferral is allowed (see RunPlan), otherwise
  /// executes inline with cost learning. Like RunPlan, entered and left
  /// holding shard.mu.
  std::optional<StatusOr<std::string>> Delegate(Shard& shard, Key key,
                                                const std::string& params,
                                                NodeId owner,
                                                bool allow_defer)
      JOINOPT_REQUIRES(shard.mu);
  /// Buffers a delegation; executes the destination's batch when full.
  void AddDelegation(NodeId dest, Delegation d) JOINOPT_EXCLUDES(deleg_mu_);
  /// Ships one destination's batch through ExecuteBatch and records the
  /// results.
  void ExecuteDelegationBatch(NodeId dest, std::vector<Delegation> items);
  /// Drops one in-flight-delegation mark for `key` and wakes held
  /// first-requests.
  static void FinishDelegating(Shard& shard, Key key)
      JOINOPT_REQUIRES(shard.mu);
  /// Flushes destination batches: all of them when `force`, otherwise only
  /// those whose oldest item exceeded delegation_max_wait. Takes shard
  /// locks while shipping, so callers waiting on a shard drop its lock
  /// first.
  void FlushDelegations(bool force) JOINOPT_EXCLUDES(deleg_mu_);
  /// Records a finished submission (result or failure) and wakes fetchers;
  /// the caller then drops the lock and calls ReleaseOutstanding.
  void FinishQueuedLocked(Shard& shard, uint64_t request_id,
                          StatusOr<std::string> result)
      JOINOPT_REQUIRES(shard.mu);
  /// Retires one submission from the Barrier count (after its result is
  /// recorded, so a returning Barrier finds every result claimable).
  void ReleaseOutstanding();
  void MaybeTrim(Shard& shard) JOINOPT_REQUIRES(shard.mu);

  DataService* service_;
  UserFn fn_;
  Options options_;
  uint64_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  BoundedQueue<WorkItem> queue_;
  std::vector<std::thread> workers_;

  Mutex deleg_mu_{lock_rank::kInvokerDelegation,
                  "ParallelInvoker::deleg_mu_"};
  std::unordered_map<NodeId, DestBatch> deleg_ JOINOPT_GUARDED_BY(deleg_mu_);

  /// Submissions not yet finished (for Barrier).
  std::atomic<int64_t> outstanding_{0};
  Mutex barrier_mu_{lock_rank::kInvokerBarrier,
                    "ParallelInvoker::barrier_mu_"};
  CondVar barrier_cv_;

  struct AtomicStats {
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> served_from_cache{0};
    std::atomic<int64_t> served_inline{0};
    std::atomic<int64_t> fetched_then_computed{0};
    std::atomic<int64_t> delegated{0};
    std::atomic<int64_t> coalesced_fetches{0};
    std::atomic<int64_t> held_first_requests{0};
    std::atomic<int64_t> on_demand_runs{0};
    std::atomic<int64_t> delegation_batches{0};
    std::atomic<int64_t> transport_errors{0};
    std::atomic<int64_t> resync_dropped{0};
  };
  mutable AtomicStats stats_;
  /// Throttle for the load-view cost-estimate feed (1 push per 64 plans).
  std::atomic<uint64_t> load_view_push_{0};
};

}  // namespace joinopt

#endif  // JOINOPT_ENGINE_PARALLEL_INVOKER_H_
