// RpcServer: the data-node side of the RPC transport. Wraps any in-process
// DataService (LocalDataService, LogStoreDataService, a LatencyPaddedService
// stack, ...) behind a TCP listener speaking the net/frame.h protocol.
//
// Two serving backends share one frontend (and one VerbDispatcher, so verb
// semantics cannot drift):
//
//  * kThreadPerConnection (the original, still the default): one acceptor
//    thread polls the listen socket; each accepted connection gets a
//    dedicated thread running a synchronous read-dispatch-write loop (one
//    request in flight per connection — concurrency comes from the client
//    opening pooled connections). Simple, but threads scale with
//    connections, and a slow Notify subscriber is dropped on queue
//    overflow for a full reconnect-and-re-sync.
//
//  * kReactor (net/reactor/, DESIGN.md §13): a fixed set of epoll IO
//    threads with non-blocking sockets, incremental frame parsing, a
//    bounded worker pool for verb execution, and per-connection bounded
//    write queues. Thread count is flat in connection count; clients may
//    pipeline requests (responses correlate by frame seq); slow Notify
//    subscribers are throttled with per-key event coalescing instead of
//    dropped.
//
// The wire protocol is identical on both: callers (ClusterDataNode,
// ClusterDeployment, the loopback harness, every test) run unmodified on
// either backend. Select per-server with RpcServerOptions::backend or
// process-wide with JOINOPT_RPC_BACKEND=reactor|threaded (options win).
//
// Stop() tears everything down and joins all threads; it is safe to call
// concurrently with in-flight requests and from the destructor.
//
// The UDF cannot travel over the wire: like HBase coprocessors, the
// function is *registered* server-side at construction, and Execute /
// ExecuteBatch requests name only (key, params). The client's fn argument
// is ignored (see DataService::Execute's contract in engine/async_api.h).
//
// Wire v2 (see frame.h): ExecuteBatch is tagged and deduplicated
// server-side on replay. Put, the Subscribe/Notify invalidation stream and
// the anti-entropy verbs are served only when the wrapped service
// implements WritableDataService (discovered by dynamic_cast at
// construction). A request stamped with any other wire version gets an
// in-band FailedPrecondition answer and the connection keeps serving.
#ifndef JOINOPT_NET_RPC_SERVER_H_
#define JOINOPT_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/update_hub.h"
#include "joinopt/net/verb_dispatcher.h"

namespace joinopt {

class ReactorCore;

enum class RpcBackend {
  /// Resolve from the JOINOPT_RPC_BACKEND environment variable
  /// ("reactor" or "threaded"); falls back to thread-per-connection.
  kDefault,
  kThreadPerConnection,
  kReactor,
};

struct RpcServerOptions {
  /// Bind address. Tests and benches stay on loopback; never expose the
  /// protocol off-host without an authenticating proxy in front.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the chosen port back with port()).
  uint16_t port = 0;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Deadline for writing one response (thread-per-connection backend);
  /// a client that stops draining its socket loses the connection instead
  /// of parking the worker forever. The reactor never blocks on writes —
  /// its equivalent is the write-queue watermark below.
  double send_deadline = 5.0;
  int accept_backlog = 64;
  /// Tagged-batch responses remembered for replay dedup (exactly-once
  /// ExecuteBatch). FIFO-evicted; 0 disables dedup.
  size_t dedup_capacity = 1024;
  /// Pending invalidation events per subscription. Thread-per-connection:
  /// overflow drops the connection (the subscriber must reconnect and
  /// re-sync). Reactor: bound on the per-key-coalesced pending queue; only
  /// a distinct-key flood beyond it drops the stream.
  size_t subscription_queue_capacity = 4096;

  /// Which serving backend runs this server.
  RpcBackend backend = RpcBackend::kDefault;
  // ---- reactor tuning (ignored by the legacy backend) ----
  int reactor_io_threads = 1;
  int reactor_worker_threads = 2;
  size_t reactor_worker_queue = 256;
  /// Per-connection write-queue byte watermarks: reads pause above high,
  /// resume below low (the pipelining / slow-reader backpressure bound).
  size_t reactor_write_high_watermark = 1u << 20;
  size_t reactor_write_low_watermark = 256u << 10;
  /// Outstanding pipelined requests per connection.
  int reactor_max_pipelined_requests = 64;

  /// Logical endpoint id for NetFaultInjector partitions (net/net_fault.h).
  /// -1 (the default) opts out: the server is invisible to injected
  /// faults. The cluster layer sets this to the data node's id.
  int32_t net_identity = -1;
};

struct RpcServerStats {
  int64_t connections_accepted = 0;
  int64_t requests = 0;       ///< well-formed requests dispatched
  int64_t batch_items = 0;    ///< items carried by ExecuteBatch requests
  int64_t protocol_errors = 0;  ///< malformed frames / version mismatches
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t puts = 0;             ///< Put requests served
  int64_t subscriptions = 0;    ///< Subscribe streams established
  int64_t notify_events = 0;    ///< kNotifyEvt frames pushed
  int64_t batch_dedup_hits = 0;  ///< tagged batches answered from cache
  /// Gauge: threads currently dedicated to serving (acceptor + connection
  /// threads, or IO + worker threads). The reactor's headline property is
  /// that this stays flat as connections scale.
  int64_t server_threads = 0;
  int64_t live_connections = 0;  ///< gauge: open connections
  int64_t notify_coalesced = 0;  ///< events superseded in pending queues
  int64_t backpressure_pauses = 0;  ///< reads paused by flow control
};

class RpcServer {
 public:
  /// `inner` and `fn` must outlive the server and be thread-safe: each
  /// connection/worker thread calls them concurrently.
  RpcServer(DataService* inner, UserFn fn, RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and starts the chosen backend. Fails (address in use,
  /// ...) without leaving threads behind. Serialized against Stop() and
  /// other Start() calls: concurrent double-Start is a FailedPrecondition
  /// for exactly one caller, never two listeners.
  Status Start() JOINOPT_EXCLUDES(lifecycle_mu_);

  /// Stops accepting, severs open connections and joins all threads.
  /// Idempotent.
  void Stop() JOINOPT_EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after a successful Start()).
  uint16_t port() const {
    MutexLock lock(lifecycle_mu_);
    return port_;
  }
  const std::string& host() const { return options_.host; }

  /// The backend actually serving (env var resolved); kDefault before the
  /// first successful Start().
  RpcBackend active_backend() const {
    MutexLock lock(lifecycle_mu_);
    return active_backend_;
  }

  RpcServerStats stats() const;

 private:
  /// Bounded per-subscription event queue (legacy backend); OnUpdateEvent
  /// is called on the writer's thread, Drain on the connection thread.
  class ConnSink;

  void AcceptLoop();
  void ServeConnection(int fd);
  /// Takes over a connection after a kSubscribeReq: registers a sink,
  /// answers with the epoch snapshot, then pushes kNotifyEvt frames until
  /// stop/close/overflow.
  void ServeSubscription(int fd, const FrameHeader& header,
                         const std::string& body);

  DataService* inner_;
  UserFn fn_;
  RpcServerOptions options_;
  mutable RpcAtomicStats stats_;
  VerbDispatcher dispatcher_;

  /// Serializes Start/Stop (held across the whole transition, including
  /// the thread joins in Stop — worker threads never take it).
  mutable Mutex lifecycle_mu_{lock_rank::kServerLifecycle,
                              "RpcServer::lifecycle_mu_"};
  uint16_t port_ JOINOPT_GUARDED_BY(lifecycle_mu_) = 0;
  RpcBackend active_backend_ JOINOPT_GUARDED_BY(lifecycle_mu_) =
      RpcBackend::kDefault;
  /// Fresh instance per reactor Start (a stopped core is not restartable;
  /// ClusterDataNode::Restart reuses this RpcServer object).
  std::unique_ptr<ReactorCore> reactor_;

  // ---- thread-per-connection backend state ----
  /// Written by Start before the acceptor exists and Reset by Stop after
  /// joining it (thread-confined by that protocol, not lock-guarded: the
  /// acceptor reads it without — and must not take — lifecycle_mu_).
  UniqueFd listen_fd_;
  std::thread acceptor_;
  std::atomic<bool> stop_{true};
  std::atomic<bool> running_{false};

  mutable Mutex conns_mu_{lock_rank::kServerConns, "RpcServer::conns_mu_"};
  /// Open connection fds (owned by their threads; registered here so
  /// Stop() can shutdown() them to unblock reads).
  std::vector<int> conn_fds_ JOINOPT_GUARDED_BY(conns_mu_);
  std::vector<std::thread> conn_threads_ JOINOPT_GUARDED_BY(conns_mu_);
};

}  // namespace joinopt

#endif  // JOINOPT_NET_RPC_SERVER_H_
