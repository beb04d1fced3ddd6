#include "joinopt/engine/parallel_invoker.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "joinopt/loadbalance/node_load_view.h"

namespace joinopt {

namespace {

int NextPow2(int v) {
  int p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ParallelInvoker::ParallelInvoker(DataService* service, UserFn fn,
                                 const Options& options)
    : service_(service),
      fn_(std::move(fn)),
      options_(options),
      queue_(options.queue_capacity, lock_rank::kInvokerQueue) {
  int threads = std::max(options_.num_threads, 1);
  int shards = options_.num_shards > 0
                   ? NextPow2(options_.num_shards)
                   : std::clamp(NextPow2(4 * threads), 8, 64);
  shard_mask_ = static_cast<uint64_t>(shards - 1);

  // Each shard gets an even slice of the configured cache budget so the
  // aggregate capacity matches the single-threaded executor's.
  DecisionEngineConfig per_shard = options_.decision;
  per_shard.cache.memory_capacity_bytes /= shards;
  if (std::isfinite(per_shard.cache.disk_capacity_bytes)) {
    per_shard.cache.disk_capacity_bytes /= shards;
  }
  // Keys hash-distribute evenly across shards, so each shard's per-key
  // tables pre-reserve an even slice of the expected key universe (rounded
  // up so the slices still cover it).
  auto shard_slice = [shards](size_t n) {
    return (n + static_cast<size_t>(shards) - 1) / static_cast<size_t>(shards);
  };
  if (per_shard.expected_keys > 0) {
    per_shard.expected_keys = shard_slice(per_shard.expected_keys);
  }
  if (per_shard.cache.expected_items > 0) {
    per_shard.cache.expected_items =
        shard_slice(per_shard.cache.expected_items);
  }
  size_t per_shard_results =
      options_.max_unclaimed_results == 0
          ? 0
          : std::max<size_t>(options_.max_unclaimed_results /
                                 static_cast<size_t>(shards),
                             16);

  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // Workers don't exist yet, but the members are lock-guarded and the
      // analysis (rightly) has no "still single-threaded" concept.
      MutexLock lock(shard->mu);
      shard->engine = std::make_unique<DecisionEngine>(per_shard);
      shard->results = BoundedResultMap(per_shard_results);
    }
    shards_.push_back(std::move(shard));
  }

  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelInvoker::~ParallelInvoker() {
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
  FlushDelegations(/*force=*/true);
}

void ParallelInvoker::SubmitComp(Key key, std::string params) {
  ++stats_.submitted;
  uint64_t request_id = PlanRequestId(key, params);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  // Registered before any work starts, as for a queued request: a
  // concurrent FetchComp of this id waits for it, and Barrier counts it.
  ++shard.pending[request_id];
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (auto owner = InlineHitOwner(shard, key)) {
    // A cached key: the join costs less than the worker handoff, so run
    // the hit plan here.
    ++stats_.served_inline;
    Decision decision = DecideLocked(shard, key, *owner);
    auto result = RunPlan(shard, key, params, *owner, decision,
                          /*allow_defer=*/false);
    FinishQueuedLocked(shard, request_id, std::move(*result));
    lock.Unlock();
    ReleaseOutstanding();
    return;
  }
  lock.Unlock();
  if (!queue_.Push(WorkItem{key, std::move(params)})) {
    // Shutting down: withdraw the registration so fetchers don't wait.
    lock.Relock();
    FinishQueuedLocked(shard, request_id,
                       Status::Aborted("invoker shutting down"));
    lock.Unlock();
    ReleaseOutstanding();
  }
}

StatusOr<std::string> ParallelInvoker::FetchComp(Key key,
                                                 const std::string& params) {
  Shard& shard = ShardFor(key);
  uint64_t request_id = PlanRequestId(key, params);
  {
    MutexLock lock(shard.mu);
    for (;;) {
      if (auto claimed = shard.results.Claim(request_id)) {
        return std::move(*claimed);
      }
      auto it = shard.pending.find(request_id);
      if (it == shard.pending.end() || it->second <= 0) break;
      // A submission is in flight — possibly parked in a delegation
      // batch. Poll with a short timeout, nudging stale batches out.
      if (shard.cv.WaitFor(shard.mu, 1e-3) == std::cv_status::timeout) {
        lock.Unlock();
        FlushDelegations(/*force=*/false);
        lock.Relock();
      }
    }
  }
  // Never submitted (or its prefetch failed / was dropped): run the plan
  // in the caller (the blocking fallback).
  ++stats_.on_demand_runs;
  NodeId owner = service_->OwnerOf(key);
  MutexLock lock(shard.mu);
  Decision decision = DecideLocked(shard, key, owner);
  return std::move(*RunPlan(shard, key, params, owner, decision,
                            /*allow_defer=*/false));
}

void ParallelInvoker::OnUpdate(Key key, uint64_t new_version) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  shard.engine->OnUpdateNotification(key, new_version);
  // Drop the payload only when it predates the update. A duplicate or late
  // notification (every replica notifies, and a fetch may land the new
  // version first) finds a fresh payload: the engine ignores it as stale
  // and keeps the cache slot, and a slot without its payload would turn
  // every later hit into a compute request.
  auto it = shard.values.find(key);
  if (it != shard.values.end() && it->second.version < new_version) {
    shard.values.erase(it);
  }
  uint64_t& floor = shard.min_version[key];
  if (new_version > floor) floor = new_version;
}

int64_t ParallelInvoker::ResyncWhere(const std::function<bool(Key)>& pred) {
  int64_t dropped_payloads = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    // The engine drops its cache-tier entries and counters for matching
    // keys; payloads are a superset (a payload can outlive its tier slot),
    // so they get their own sweep.
    shard.engine->ResyncInvalidate(pred);
    // A fetch already in flight may return a payload from before the missed
    // update: it must not re-install it. Fetches issued from here on read
    // the data node's current state, so unchanged keys stay cacheable.
    for (Key key : shard.fetching) {
      if (pred(key)) shard.resynced_fetches.insert(key);
    }
    for (auto it = shard.values.begin(); it != shard.values.end();) {
      if (pred(it->first)) {
        // A refetch may read a lagging replica: never accept a version
        // older than the one already served. The same version stays
        // cacheable, so unchanged keys are bought again.
        uint64_t& floor = shard.min_version[it->first];
        if (it->second.version > floor) floor = it->second.version;
        it = shard.values.erase(it);
        ++dropped_payloads;
      } else {
        ++it;
      }
    }
  }
  stats_.resync_dropped += dropped_payloads;
  return dropped_payloads;
}

void ParallelInvoker::Barrier() {
  MutexLock lock(barrier_mu_);
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    lock.Unlock();
    FlushDelegations(/*force=*/true);
    lock.Relock();
    barrier_cv_.WaitFor(barrier_mu_, 1e-3);
  }
}

void ParallelInvoker::WorkerLoop() {
  for (;;) {
    std::optional<WorkItem> item = queue_.TryPop();
    if (!item) {
      // Queue lull: nothing to overlap the buffered delegations with, so
      // ship them now instead of adding idle latency.
      FlushDelegations(/*force=*/true);
      item = queue_.Pop();
      if (!item) break;  // closed and drained
    }
    ProcessQueued(*item);
  }
  FlushDelegations(/*force=*/true);
}

void ParallelInvoker::ProcessQueued(const WorkItem& item) {
  Shard& shard = ShardFor(item.key);
  NodeId owner = service_->OwnerOf(item.key);
  MutexLock lock(shard.mu);
  Decision decision = DecideLocked(shard, item.key, owner);
  auto result = RunPlan(shard, item.key, item.params, owner, decision,
                        /*allow_defer=*/true);
  uint64_t request_id = PlanRequestId(item.key, item.params);
  if (result) {
    FinishQueuedLocked(shard, request_id, std::move(*result));
    lock.Unlock();
    ReleaseOutstanding();
    return;
  }
  // A compute request: park it in its destination's batch, whose flush
  // records the result.
  lock.Unlock();
  AddDelegation(owner, Delegation{item.key, item.params, request_id});
}

std::optional<NodeId> ParallelInvoker::InlineHitOwner(Shard& shard, Key key) {
  auto it = shard.values.find(key);
  if (it == shard.values.end() ||
      shard.engine->cache().Peek(key) == CacheTier::kNone) {
    return std::nullopt;
  }
  return it->second.owner;
}

Decision ParallelInvoker::DecideLocked(Shard& shard, Key key, NodeId owner) {
  MaybeTrim(shard);
  shard.engine->cost_model().SetBandwidth(owner,
                                          options_.bandwidth_bytes_per_sec);
  // The access is counted exactly once, here. Every re-route in RunPlan
  // (after a coalesced wait, or when a plan leg falls through) goes through
  // the const ReDecide or a manual route override so the frequency counter
  // and benefit state see this request a single time — keeping ski-rental
  // thresholds aligned with the single-threaded executor's.
  Decision decision = shard.engine->Decide(key, owner);
  if (options_.load_view != nullptr &&
      (load_view_push_.fetch_add(1, std::memory_order_relaxed) & 63) == 0) {
    // Shared load view feed (throttled): shard lock (kInvokerShard) ranks
    // below kNodeLoadView, so observing under it is legal.
    options_.load_view->ObserveCostEstimates(
        owner, shard.engine->cost_model().TCompute(owner),
        shard.engine->cost_model().TFetch(owner));
  }
  return decision;
}

std::optional<StatusOr<std::string>> ParallelInvoker::RunPlan(
    Shard& shard, Key key, const std::string& params, NodeId owner,
    Decision decision, bool allow_defer) {
  bool held_first = false;
  for (;;) {
    switch (decision.route) {
      case Route::kLocalMemoryHit:
      case Route::kLocalDiskHit: {
        auto it = shard.values.find(key);
        if (it == shard.values.end()) {
          // Engine says hit but the payload is gone (evicted between
          // Peek and now, or invalidated): fall back to a compute request.
          decision.route = Route::kComputeAtData;
          decision.first_request = false;
          continue;
        }
        std::shared_ptr<const std::string> payload = it->second.value;
        shard.mu.Unlock();
        ++stats_.served_from_cache;
        TimedResult timed = TimedCompute(fn_, key, params, *payload);
        shard.mu.Lock();
        shard.engine->ObserveLocalCompute(timed.elapsed);
        return StatusOr<std::string>(std::move(timed.value));
      }
      case Route::kFetchCacheMemory:
      case Route::kFetchCacheDisk: {
        if (shard.fetching.count(key) > 0) {
          // Single flight: another request is already fetching this key.
          ++stats_.coalesced_fetches;
          while (shard.fetching.count(key) > 0) shard.cv.Wait(shard.mu);
          decision = shard.engine->ReDecide(key, owner);
          continue;  // usually a hit against the now-warm cache
        }
        shard.fetching.insert(key);
        shard.mu.Unlock();
        auto fetched = service_->Fetch(key);
        shard.mu.Lock();
        shard.fetching.erase(key);
        bool resynced = shard.resynced_fetches.erase(key) > 0;
        shard.cv.NotifyAll();
        if (!fetched.ok()) {
          return StatusOr<std::string>(fetched.status());
        }
        uint64_t version = fetched->version;
        auto floor = shard.min_version.find(key);
        if (resynced ||
            (floor != shard.min_version.end() && version < floor->second)) {
          // The fetch raced an update notification (or a re-sync) and may
          // carry the old payload: never cache or serve it; compute next
          // to the fresh data instead.
          decision.route = Route::kComputeAtData;
          decision.first_request = false;
          continue;
        }
        double size = static_cast<double>(fetched->value.size());
        shard.engine->OnValueFetched(key, decision.route, size, version);
        auto payload = std::make_shared<const std::string>(
            std::move(fetched)->value);
        shard.values[key] = CachedValue{payload, version, owner};
        shard.mu.Unlock();
        ++stats_.fetched_then_computed;
        TimedResult timed = TimedCompute(fn_, key, params, *payload);
        shard.mu.Lock();
        shard.engine->ObserveLocalCompute(timed.elapsed);
        return StatusOr<std::string>(std::move(timed.value));
      }
      case Route::kComputeAtData: {
        if (decision.first_request && !held_first &&
            shard.delegating.count(key) > 0) {
          // The key's blind first delegation is already in flight: hold
          // until its piggybacked cost parameters land rather than issuing
          // another blind compute request. Timed waits nudge parked
          // delegation batches out so the wait is bounded.
          held_first = true;
          ++stats_.held_first_requests;
          while (shard.delegating.count(key) > 0) {
            if (shard.cv.WaitFor(shard.mu, 200e-6) ==
                std::cv_status::timeout) {
              shard.mu.Unlock();
              FlushDelegations(/*force=*/false);
              shard.mu.Lock();
            }
          }
          decision = shard.engine->ReDecide(key, owner);
          continue;  // typically buys (fetch) now that costs are known
        }
        return Delegate(shard, key, params, owner, allow_defer);
      }
    }
  }
}

std::optional<StatusOr<std::string>> ParallelInvoker::Delegate(
    Shard& shard, Key key, const std::string& params, NodeId owner,
    bool allow_defer) {
  ++shard.delegating[key];
  if (allow_defer) return std::nullopt;
  shard.mu.Unlock();
  ++stats_.delegated;
  double t0 = PlanNowSeconds();
  auto result = service_->Execute(key, params, fn_);
  double elapsed = PlanNowSeconds() - t0;
  StatusOr<DataService::ItemStat> stat =
      result.ok() ? service_->Stat(key)
                  : StatusOr<DataService::ItemStat>(result.status());
  shard.mu.Lock();
  if (stat.ok()) {
    ApplyDelegationLearning(*shard.engine, key, owner, elapsed,
                            stat->size_bytes, stat->version);
  }
  FinishDelegating(shard, key);
  return result;
}

void ParallelInvoker::AddDelegation(NodeId dest, Delegation d) {
  std::vector<Delegation> ready;
  {
    MutexLock lock(deleg_mu_);
    auto it = deleg_.find(dest);
    if (it == deleg_.end()) {
      it = deleg_
               .emplace(dest, DestBatch(options_.delegation_batch_size,
                                        options_.delegation_sizing))
               .first;
    }
    DestBatch& batch = it->second;
    double now = PlanNowSeconds();
    batch.sizer.ObserveAdd(now);
    if (batch.items.empty()) batch.oldest_add = now;
    batch.items.push_back(std::move(d));
    if (static_cast<int>(batch.items.size()) >=
        batch.sizer.EffectiveSize()) {
      ready.swap(batch.items);
      batch.oldest_add = -1.0;
    }
  }
  if (!ready.empty()) ExecuteDelegationBatch(dest, std::move(ready));
}

void ParallelInvoker::ExecuteDelegationBatch(NodeId dest,
                                             std::vector<Delegation> items) {
  ++stats_.delegation_batches;
  std::vector<std::pair<Key, std::string>> batch;
  batch.reserve(items.size());
  for (const Delegation& d : items) batch.emplace_back(d.key, d.params);
  double t0 = PlanNowSeconds();
  std::vector<StatusOr<std::string>> results =
      service_->ExecuteBatch(batch, fn_);
  double per_item = (PlanNowSeconds() - t0) /
                    static_cast<double>(std::max<size_t>(items.size(), 1));
  for (size_t i = 0; i < items.size(); ++i) {
    Delegation& d = items[i];
    Shard& shard = ShardFor(d.key);
    ++stats_.delegated;
    StatusOr<std::string> result =
        i < results.size()
            ? std::move(results[i])
            : StatusOr<std::string>(Status::Internal("missing batch result"));
    StatusOr<DataService::ItemStat> stat =
        result.ok() ? service_->Stat(d.key)
                    : StatusOr<DataService::ItemStat>(result.status());
    {
      MutexLock lock(shard.mu);
      if (stat.ok()) {
        ApplyDelegationLearning(*shard.engine, d.key, dest, per_item,
                                stat->size_bytes, stat->version);
      }
      FinishDelegating(shard, d.key);
      FinishQueuedLocked(shard, d.request_id, std::move(result));
    }
    ReleaseOutstanding();
  }
}

void ParallelInvoker::FlushDelegations(bool force) {
  std::vector<std::pair<NodeId, std::vector<Delegation>>> ready;
  {
    MutexLock lock(deleg_mu_);
    double now = PlanNowSeconds();
    for (auto& [dest, batch] : deleg_) {
      if (batch.items.empty()) continue;
      if (force ||
          now - batch.oldest_add >= options_.delegation_max_wait) {
        ready.emplace_back(dest, std::move(batch.items));
        batch.items.clear();
        batch.oldest_add = -1.0;
      }
    }
  }
  for (auto& [dest, items] : ready) {
    ExecuteDelegationBatch(dest, std::move(items));
  }
}

void ParallelInvoker::FinishDelegating(Shard& shard, Key key) {
  auto it = shard.delegating.find(key);
  if (it != shard.delegating.end() && --it->second <= 0) {
    shard.delegating.erase(it);
  }
  shard.cv.NotifyAll();
}

void ParallelInvoker::FinishQueuedLocked(Shard& shard, uint64_t request_id,
                                         StatusOr<std::string> result) {
  if (result.ok()) {
    shard.results.Push(request_id, std::move(result).value());
  } else if (result.status().code() == StatusCode::kAborted) {
    ++stats_.transport_errors;
  }
  // Failures leave no result: FetchComp's on-demand retry re-surfaces
  // the error.
  auto it = shard.pending.find(request_id);
  if (it != shard.pending.end() && --it->second <= 0) {
    shard.pending.erase(it);
  }
  shard.cv.NotifyAll();
}

void ParallelInvoker::ReleaseOutstanding() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(barrier_mu_);
    barrier_cv_.NotifyAll();
  }
}

void ParallelInvoker::MaybeTrim(Shard& shard) {
  if (++shard.runs_since_trim < 256) return;
  shard.runs_since_trim = 0;
  for (auto it = shard.values.begin(); it != shard.values.end();) {
    if (shard.engine->cache().Peek(it->first) == CacheTier::kNone) {
      it = shard.values.erase(it);
    } else {
      ++it;
    }
  }
  // The version floors are only a freshness hint for in-flight fetches;
  // cap their footprint.
  if (shard.min_version.size() > (1u << 16)) shard.min_version.clear();
}

ParallelInvokerStats ParallelInvoker::stats() const {
  ParallelInvokerStats out;
  out.submitted = stats_.submitted.load(std::memory_order_relaxed);
  out.served_from_cache =
      stats_.served_from_cache.load(std::memory_order_relaxed);
  out.served_inline = stats_.served_inline.load(std::memory_order_relaxed);
  out.fetched_then_computed =
      stats_.fetched_then_computed.load(std::memory_order_relaxed);
  out.delegated = stats_.delegated.load(std::memory_order_relaxed);
  out.coalesced_fetches =
      stats_.coalesced_fetches.load(std::memory_order_relaxed);
  out.held_first_requests =
      stats_.held_first_requests.load(std::memory_order_relaxed);
  out.on_demand_runs = stats_.on_demand_runs.load(std::memory_order_relaxed);
  out.delegation_batches =
      stats_.delegation_batches.load(std::memory_order_relaxed);
  out.transport_errors =
      stats_.transport_errors.load(std::memory_order_relaxed);
  out.resync_dropped = stats_.resync_dropped.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.dropped_results += shard->results.dropped();
  }
  return out;
}

DecisionEngineStats ParallelInvoker::MergedEngineStats() const {
  DecisionEngineStats out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out += shard->engine->stats();
  }
  return out;
}

TieredCacheStats ParallelInvoker::MergedCacheStats() const {
  TieredCacheStats out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out += shard->engine->cache().stats();
  }
  return out;
}

double ParallelInvoker::MergedLocalComputeSeconds() const {
  double sum = 0.0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    sum += shard->engine->cost_model().local_compute_time();
  }
  return shards_.empty() ? 0.0 : sum / static_cast<double>(shards_.size());
}

size_t ParallelInvoker::pending_results() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->results.size();
  }
  return total;
}

}  // namespace joinopt
