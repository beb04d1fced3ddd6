// The data side of the Section 7 programming API: the DataService a
// preMap/map executor (ParallelInvoker) talks to. Each call the executor
// makes is one of the optimizer's plans: a "data request" (fetch the value
// to cache it per Algorithm 1 and compute locally) or a "compute request"
// (delegate to the service — the coprocessor path).
//
// The provided LocalDataService backs the API with an in-process
// ParallelStore, LogStoreDataService with a LogStructuredStore; a
// deployment would implement DataService over HBase or any store with
// server-side function shipping (net/ and cluster/ do so over sockets).
#ifndef JOINOPT_ENGINE_ASYNC_API_H_
#define JOINOPT_ENGINE_ASYNC_API_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/common/status.h"
#include "joinopt/engine/async_api_fwd.h"
#include "joinopt/store/log_store.h"
#include "joinopt/store/parallel_store.h"

namespace joinopt {

/// Remote side of the API: point fetches and server-side execution.
///
/// Contract (load-bearing — two implementations cross threads: the
/// in-process services below, and the socket-backed RpcClientService /
/// RpcServer pair in net/, whose wire protocol is DESIGN.md §10):
///
///  * Thread safety: every verb must be safe to call from any number of
///    threads concurrently, with no external locking. The ParallelInvoker's
///    workers overlap calls freely, and the RpcServer dispatches each
///    connection from its own thread into the wrapped service. In-process
///    implementations satisfy this with atomic counters over an immutable
///    (or externally synchronized) store; RpcClientService with
///    per-endpoint connection pools.
///  * Blocking: every verb is synchronous and may block the calling thread
///    — for in-process services microseconds, for networked ones a full
///    round trip (or several, under retry/failover). No verb may block
///    forever: socket-backed implementations enforce connect/IO deadlines
///    and surface expiry as Status kAborted (the retriable transport
///    class; see net/socket.h's error-mapping notes). Callers must not
///    hold locks across any DataService call.
///  * Errors: application-level failures (missing key, bad params) use the
///    specific codes (kNotFound, kInvalidArgument, ...); kAborted is
///    reserved for transport failures, which callers may retry and the
///    ParallelInvoker counts as ParallelInvokerStats::transport_errors.
class DataService {
 public:
  virtual ~DataService() = default;

  struct Fetched {
    std::string value;
    uint64_t version = 0;
  };
  /// Data request: returns the stored value for caching + local execution.
  /// Blocking (one round trip remote); thread-safe; the returned payload
  /// is an independent copy the caller may cache without aliasing worries.
  virtual StatusOr<Fetched> Fetch(Key key) = 0;
  /// Compute request: executes `fn` next to the data ("coprocessor").
  /// Blocking (round trip + UDF service time); thread-safe — `fn` itself
  /// must be thread-safe, since data-side execution may run it on any
  /// thread. Networked services do NOT ship `fn`: the UDF is registered at
  /// the server (RpcServer's constructor) and the argument here is ignored
  /// — callers must pass the same function they deployed, or results will
  /// differ between local and delegated execution (DESIGN.md §10).
  virtual StatusOr<std::string> Execute(Key key, const std::string& params,
                                        const UserFn& fn) = 0;
  /// Batched compute request: one round trip carrying many (k, p) pairs to
  /// the same data node (Section 7.2's batching applied to delegations).
  /// The default loops over Execute; networked services override it to
  /// amortize the round trip — the wire format (§10) carries the whole
  /// batch in a single request/response frame pair. Results are
  /// index-aligned with `items`; a transport failure fails every item with
  /// the same kAborted status. Blocking for the whole batch; thread-safe.
  virtual std::vector<StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<Key, std::string>>& items,
      const UserFn& fn) {
    std::vector<StatusOr<std::string>> out;
    out.reserve(items.size());
    for (const auto& [key, params] : items) {
      out.push_back(Execute(key, params, fn));
    }
    return out;
  }
  /// Metadata only (size + version) — what a compute-request response
  /// piggybacks (Section 4.3) without shipping the payload.
  struct ItemStat {
    double size_bytes = 0;
    uint64_t version = 0;
  };
  /// Blocking (round trip remote, but payload-free — cheap even over a
  /// network); thread-safe; const so decision-engine probes can run
  /// against a const service reference.
  virtual StatusOr<ItemStat> Stat(Key key) const = 0;
  /// Placement: which (logical) data node owns the key. Blocking (one
  /// round trip for socket-backed services, which return kInvalidNode when
  /// every replica is unreachable — callers treat that as "placement
  /// unknown", not an error); thread-safe; const.
  virtual NodeId OwnerOf(Key key) const = 0;
};

/// In-process DataService over a ParallelStore holding real payloads.
class LocalDataService : public DataService {
 public:
  explicit LocalDataService(ParallelStore* store) : store_(store) {}

  StatusOr<Fetched> Fetch(Key key) override;
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override;
  StatusOr<ItemStat> Stat(Key key) const override;
  NodeId OwnerOf(Key key) const override { return store_->OwnerOf(key); }

  int64_t fetches() const { return fetches_; }
  int64_t executes() const { return executes_; }
  /// Number of Stat probes served (cost-model observability).
  int64_t stats() const { return stats_; }

 private:
  ParallelStore* store_;
  std::atomic<int64_t> fetches_{0};
  std::atomic<int64_t> executes_{0};
  mutable std::atomic<int64_t> stats_{0};
};

/// DataService over a LogStructuredStore — the fully real storage path:
/// payloads live in the segmented log, versions come from the log's
/// per-key version chain. `num_shards` only affects OwnerOf (placement
/// metadata for the cost model); the store itself is one process.
class LogStoreDataService : public DataService {
 public:
  LogStoreDataService(LogStructuredStore* store, int num_shards = 4)
      : store_(store), num_shards_(num_shards) {}

  StatusOr<Fetched> Fetch(Key key) override {
    ++fetches_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return Fetched{std::move(value).value(), store_->VersionOf(key)};
  }

  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    ++executes_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return fn(key, params, *value);
  }

  StatusOr<ItemStat> Stat(Key key) const override {
    ++stats_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return ItemStat{static_cast<double>(value->size()),
                    store_->VersionOf(key)};
  }

  NodeId OwnerOf(Key key) const override {
    return static_cast<NodeId>(Mix64(key) %
                               static_cast<uint64_t>(num_shards_));
  }

  int64_t fetches() const { return fetches_; }
  int64_t executes() const { return executes_; }
  /// Number of Stat probes served: Stat performs a store Get too, so
  /// cost-model probes are observable separately from data requests.
  int64_t stats() const { return stats_; }

 private:
  LogStructuredStore* store_;
  int num_shards_;
  std::atomic<int64_t> fetches_{0};
  std::atomic<int64_t> executes_{0};
  mutable std::atomic<int64_t> stats_{0};
};

}  // namespace joinopt

#endif  // JOINOPT_ENGINE_ASYNC_API_H_
