#include "joinopt/net/rpc_server.h"

#include <errno.h>
#include <stdlib.h>
#include <sys/socket.h>

#include <chrono>
#include <deque>
#include <string_view>
#include <utility>

#include "joinopt/net/net_fault.h"
#include "joinopt/net/reactor/reactor_core.h"

namespace joinopt {

namespace {

/// Acceptor/reader poll tick: how often blocked threads re-check stop_.
/// Shutdown latency is bounded by this even if shutdown() is missed.
constexpr double kPollTick = 0.05;

RpcBackend ResolveBackend(RpcBackend requested) {
  if (requested != RpcBackend::kDefault) return requested;
  const char* env = ::getenv("JOINOPT_RPC_BACKEND");
  if (env != nullptr && std::string_view(env) == "reactor") {
    return RpcBackend::kReactor;
  }
  return RpcBackend::kThreadPerConnection;
}

ReactorOptions ReactorOptionsFrom(const RpcServerOptions& o) {
  ReactorOptions r;
  r.host = o.host;
  r.port = o.port;
  r.accept_backlog = o.accept_backlog;
  r.max_frame_bytes = o.max_frame_bytes;
  r.io_threads = o.reactor_io_threads;
  r.worker_threads = o.reactor_worker_threads;
  r.worker_queue_capacity = o.reactor_worker_queue;
  r.write_high_watermark = o.reactor_write_high_watermark;
  r.write_low_watermark = o.reactor_write_low_watermark;
  r.max_pipelined_requests = o.reactor_max_pipelined_requests;
  r.notify_queue_capacity = o.subscription_queue_capacity;
  r.poll_tick = kPollTick;
  return r;
}

}  // namespace

/// Bounded event queue bridging the writer's thread (OnUpdateEvent) to the
/// subscription's connection thread (Drain). Overflow latches a flag that
/// makes the connection thread drop the stream.
class RpcServer::ConnSink : public UpdateSink {
 public:
  explicit ConnSink(size_t capacity) : capacity_(capacity) {}

  void OnUpdateEvent(const UpdateEvent& event) override {
    MutexLock lock(mu_);
    if (queue_.size() >= capacity_) {
      overflow_ = true;
      return;
    }
    queue_.push_back(event);
    cv_.NotifyOne();
  }

  /// Waits up to `wait_sec` for events; returns what is queued (possibly
  /// empty on timeout — or on a spurious wake, which the polling caller
  /// absorbs like a timeout).
  std::vector<UpdateEvent> Drain(double wait_sec) {
    MutexLock lock(mu_);
    if (queue_.empty() && !overflow_) cv_.WaitFor(mu_, wait_sec);
    std::vector<UpdateEvent> out(queue_.begin(), queue_.end());
    queue_.clear();
    return out;
  }

  bool overflowed() const {
    MutexLock lock(mu_);
    return overflow_;
  }

 private:
  const size_t capacity_;
  /// Innermost lock of the update fan-out: the writer calls OnUpdateEvent
  /// while holding the service's update lock (kNodeUpdateFanout).
  mutable Mutex mu_{lock_rank::kUpdateSink, "RpcServer::ConnSink::mu_"};
  CondVar cv_;
  std::deque<UpdateEvent> queue_ JOINOPT_GUARDED_BY(mu_);
  bool overflow_ JOINOPT_GUARDED_BY(mu_) = false;
};

RpcServer::RpcServer(DataService* inner, UserFn fn, RpcServerOptions options)
    : inner_(inner),
      fn_(std::move(fn)),
      options_(std::move(options)),
      dispatcher_(inner_, fn_, options_.dedup_capacity, &stats_) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  // The lifecycle lock makes check-and-transition atomic: two concurrent
  // Start() calls used to both pass the running_ check and race the bind.
  MutexLock lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  RpcBackend backend = ResolveBackend(options_.backend);
  if (backend == RpcBackend::kReactor) {
    ReactorOptions ropts = ReactorOptionsFrom(options_);
    ropts.net_identity = options_.net_identity;
    auto core =
        std::make_unique<ReactorCore>(&dispatcher_, &stats_, ropts);
    JOINOPT_RETURN_NOT_OK(core->Start());
    reactor_ = std::move(core);
    port_ = reactor_->port();
    if (options_.net_identity >= 0) {
      NetFaultInjector::Instance().RegisterServerPort(port_,
                                                      options_.net_identity);
    }
    active_backend_ = backend;
    running_.store(true, std::memory_order_release);
    return Status::OK();
  }
  JOINOPT_ASSIGN_OR_RETURN(
      listen_fd_,
      TcpListen(options_.host, options_.port, options_.accept_backlog));
  JOINOPT_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_.get()));
  if (options_.net_identity >= 0) {
    NetFaultInjector::Instance().RegisterServerPort(port_,
                                                    options_.net_identity);
  }
  stop_.store(false, std::memory_order_release);
  active_backend_ = backend;
  running_.store(true, std::memory_order_release);
  ++stats_.server_threads;  // the acceptor
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  MutexLock lock(lifecycle_mu_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (options_.net_identity >= 0) {
    NetFaultInjector::Instance().UnregisterServerPort(port_);
  }
  if (reactor_ != nullptr) {
    reactor_->Stop();
    reactor_.reset();
    return;
  }
  stop_.store(true, std::memory_order_release);
  // Severing the sockets converts blocked reads/writes into immediate
  // failures; the poll tick catches any thread not currently blocked on
  // the fd.
  {
    MutexLock conns(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  --stats_.server_threads;
  std::vector<std::thread> threads;
  {
    MutexLock conns(conns_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  listen_fd_.Reset();
}

void RpcServer::AcceptLoop() {
  // Read the bound port off the socket: the acceptor must not take
  // lifecycle_mu_ (Stop holds it while joining this thread).
  auto listen_port = BoundPort(listen_fd_.get());
  while (!stop_.load(std::memory_order_acquire)) {
    auto readable = WaitReadable(listen_fd_.get(), kPollTick);
    if (!readable.ok()) break;
    if (!*readable) continue;
    int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) continue;  // racing Stop() or a transient accept error
    if (listen_port.ok() &&
        !NetFaultInjector::Instance().OnAccept(*listen_port, fd)) {
      // Injected partition: the kernel completed the handshake, but the
      // application drops the peer — the closest a userspace harness gets
      // to a SYN black hole.
      ::close(fd);
      continue;
    }
    ++stats_.connections_accepted;
    MutexLock lock(conns_mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    ++stats_.live_connections;
    ++stats_.server_threads;
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void RpcServer::ServeConnection(int fd) {
  UniqueFd owned(fd);
  while (!stop_.load(std::memory_order_acquire)) {
    // Idle poll keeps the thread responsive to Stop() while the client
    // holds the pooled connection open between requests.
    auto readable = WaitReadable(fd, kPollTick);
    if (!readable.ok()) break;
    if (!*readable) continue;

    // Once bytes arrive, the whole message must land within the send
    // deadline — a peer that stalls mid-frame is desynced anyway.
    auto frame = RecvFrame(fd, options_.send_deadline,
                           options_.max_frame_bytes);
    if (!frame.ok()) {
      // Clean idle close (peer drained the pool) is not a protocol error.
      if (frame.status().message() !=
          "recv: connection closed by peer") {
        ++stats_.protocol_errors;
      }
      break;
    }
    stats_.bytes_in += static_cast<int64_t>(kFrameHeaderBytes +
                                            frame->body.size());

    if (frame->header.type == MsgType::kSubscribeReq) {
      // A subscription consumes the connection: it flips from
      // request/response to a one-way push stream.
      ServeSubscription(fd, frame->header, frame->body);
      break;
    }

    auto [resp_type, resp_body] = dispatcher_.Dispatch(frame->header,
                                                       frame->body);
    if (resp_type == static_cast<MsgType>(0)) {
      ++stats_.protocol_errors;
      break;  // unknown request type: the stream cannot be trusted
    }
    Status sent = SendFrame(fd, resp_type, frame->header.seq, resp_body,
                            options_.send_deadline,
                            options_.max_frame_bytes);
    if (!sent.ok()) break;
    stats_.bytes_out += static_cast<int64_t>(kFrameHeaderBytes +
                                             resp_body.size());
  }
  MutexLock lock(conns_mu_);
  --stats_.live_connections;
  --stats_.server_threads;
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      break;
    }
  }
}

void RpcServer::ServeSubscription(int fd, const FrameHeader& header,
                                  const std::string& body) {
  // Subscriptions need a writable service and our wire version; neither
  // failure mode has an in-band error slot (the response body is a bare
  // snapshot), so the stream is refused by closing the connection — the
  // same signal a subscriber handles for crashes.
  WritableDataService* writable = dispatcher_.writable();
  if (writable == nullptr || header.version != kWireVersion) {
    ++stats_.protocol_errors;
    return;
  }
  auto subscriber = DecodeSubscribeRequest(body);
  if (!subscriber.ok()) {
    ++stats_.protocol_errors;
    return;
  }
  ++stats_.requests;

  ConnSink sink(options_.subscription_queue_capacity);
  // Register the sink *before* taking the snapshot: events in the gap are
  // delivered twice (snapshot position + queued event) and deduplicated by
  // the subscriber's seq tracking, whereas the other order would lose them.
  writable->AddUpdateSink(&sink);
  Status sent = SendFrame(fd, MsgType::kSubscribeResp, header.seq,
                          EncodeSubscribeResponse(writable->EpochSnapshot()),
                          options_.send_deadline, options_.max_frame_bytes);
  if (sent.ok()) {
    ++stats_.subscriptions;
    uint32_t push_seq = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      std::vector<UpdateEvent> events = sink.Drain(kPollTick);
      if (sink.overflowed()) break;
      bool failed = false;
      for (const UpdateEvent& event : events) {
        Status pushed = SendFrame(fd, MsgType::kNotifyEvt, push_seq++,
                                  EncodeNotifyEvent(event),
                                  options_.send_deadline,
                                  options_.max_frame_bytes);
        if (!pushed.ok()) {
          failed = true;
          break;
        }
        ++stats_.notify_events;
        stats_.bytes_out += static_cast<int64_t>(
            kFrameHeaderBytes + 36);  // fixed-size notify body
      }
      if (failed) break;
      // The client never sends on a subscription stream: readability
      // means close (or a protocol violation) — either way, stop pushing.
      // Checked without waiting: the sink's Drain above is the loop's only
      // wait, so events keep flowing while the subscriber stays quiet.
      auto readable = WaitReadable(fd, 0);
      if (readable.ok() && *readable) {
        char probe[64];
        ssize_t n = ::recv(fd, probe, sizeof(probe), MSG_DONTWAIT);
        if (n > 0) ++stats_.protocol_errors;
        if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          break;
        }
      }
    }
  }
  // After RemoveUpdateSink returns no OnUpdateEvent call can be in flight
  // (the service holds its update lock across fanout), so the stack-
  // allocated sink is safe to destroy.
  writable->RemoveUpdateSink(&sink);
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats out;
  out.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.batch_items = stats_.batch_items.load(std::memory_order_relaxed);
  out.protocol_errors =
      stats_.protocol_errors.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.puts = stats_.puts.load(std::memory_order_relaxed);
  out.subscriptions = stats_.subscriptions.load(std::memory_order_relaxed);
  out.notify_events = stats_.notify_events.load(std::memory_order_relaxed);
  out.batch_dedup_hits =
      stats_.batch_dedup_hits.load(std::memory_order_relaxed);
  out.server_threads =
      stats_.server_threads.load(std::memory_order_relaxed);
  out.live_connections =
      stats_.live_connections.load(std::memory_order_relaxed);
  out.notify_coalesced =
      stats_.notify_coalesced.load(std::memory_order_relaxed);
  out.backpressure_pauses =
      stats_.backpressure_pauses.load(std::memory_order_relaxed);
  return out;
}

}  // namespace joinopt
