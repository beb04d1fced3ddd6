#include "joinopt/net/reactor/reactor_core.h"

#include "joinopt/net/net_fault.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <string_view>
#include <utility>

namespace joinopt {

namespace {

/// epoll tag of the listen socket (loop 0 only; conn ids start at 1).
constexpr uint64_t kListenerTag = 0;

/// Read-chunk size and per-wakeup chunk cap: level-triggered epoll re-arms
/// a still-readable fd, so bounding work here trades a little syscall
/// overhead for fairness across connections on one loop.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kMaxReadChunksPerWakeup = 4;

/// iovec fan-in per writev call.
constexpr int kMaxIov = 16;

ReactorConnLimits LimitsFrom(const ReactorOptions& o) {
  ReactorConnLimits l;
  l.max_frame_bytes = o.max_frame_bytes;
  l.write_high_watermark = o.write_high_watermark;
  l.write_low_watermark = std::min(o.write_low_watermark,
                                   o.write_high_watermark);
  l.max_pipeline = o.max_pipelined_requests > 0 ? o.max_pipelined_requests
                                                : 1;
  l.notify_queue_capacity = o.notify_queue_capacity ? o.notify_queue_capacity
                                                    : 1;
  return l;
}

}  // namespace

ReactorCore::ReactorCore(VerbDispatcher* dispatcher, RpcAtomicStats* stats,
                         ReactorOptions options)
    : dispatcher_(dispatcher),
      stats_(stats),
      options_(std::move(options)),
      limits_(LimitsFrom(options_)),
      worker_pool_(options_.worker_threads, options_.worker_queue_capacity) {}

ReactorCore::~ReactorCore() { Stop(); }

Status ReactorCore::Start() {
  JOINOPT_ASSIGN_OR_RETURN(
      listen_fd_,
      TcpListen(options_.host, options_.port, options_.accept_backlog));
  JOINOPT_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_.get()));
  // TcpListen hands back a *blocking* socket (the legacy backend polls
  // before each accept). The reactor drains accepts to completion, so the
  // listener must be non-blocking or the last accept4 parks the IO thread.
  int lflags = ::fcntl(listen_fd_.get(), F_GETFL, 0);
  if (lflags < 0 ||
      ::fcntl(listen_fd_.get(), F_SETFL, lflags | O_NONBLOCK) < 0) {
    Status s = ErrnoToStatus(errno, "fcntl(listen O_NONBLOCK)");
    listen_fd_.Reset();
    return s;
  }

  int num_loops = options_.io_threads > 0 ? options_.io_threads : 1;
  loops_.clear();
  for (int i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    Status s = loops_.back()->epoll.Init();
    if (!s.ok()) {
      loops_.clear();
      listen_fd_.Reset();
      return s;
    }
  }
  // The accept path is level-triggered readability on loop 0.
  Status s = loops_[0]->epoll.Add(listen_fd_.get(), EPOLLIN, kListenerTag);
  if (!s.ok()) {
    loops_.clear();
    listen_fd_.Reset();
    return s;
  }

  stop_.store(false, std::memory_order_release);
  worker_pool_.Start();
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  stats_->server_threads += serving_threads();
  return Status::OK();
}

void ReactorCore::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& loop : loops_) loop->epoll.Wake();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Workers after loops: in-flight tasks append to closed connections
  // (no-ops) and their RequestFlush wakes nobody — both harmless.
  worker_pool_.Stop();
  listen_fd_.Reset();
  stats_->server_threads -= serving_threads();
}

void ReactorCore::RequestFlush(size_t loop_index, uint64_t conn_id) {
  Loop& loop = *loops_[loop_index];
  {
    MutexLock lock(loop.mu);
    loop.dirty.push_back(conn_id);
  }
  loop.epoll.Wake();
}

void ReactorCore::IoLoop(size_t index) {
  Loop& loop = *loops_[index];
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  const int idle_ms =
      std::max(1, static_cast<int>(options_.poll_tick * 1000));

  while (!stop_.load(std::memory_order_acquire)) {
    // A stalled connection (frames waiting for worker-queue space) has no
    // readiness event to retry on — poll fast until it drains.
    int timeout_ms = loop.stalled.empty() ? idle_ms : 2;
    auto n = loop.epoll.Wait(events, kMaxEvents, timeout_ms);
    if (!n.ok()) break;  // EBADF etc. — only plausible during teardown

    // Adopt connections handed over by loop 0's acceptor.
    std::vector<std::shared_ptr<ReactorConn>> fresh;
    {
      MutexLock lock(loop.mu);
      fresh.swap(loop.incoming);
    }
    for (auto& conn : fresh) {
      conn->interest_ = EPOLLIN;
      if (!loop.epoll.Add(conn->fd_.get(), EPOLLIN, conn->id()).ok()) {
        --stats_->live_connections;
        continue;  // conn drops here; the fd closes with it
      }
      loop.conns.emplace(conn->id(), std::move(conn));
    }

    for (int i = 0; i < *n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        if (index == 0) HandleAccept(loop);
        continue;
      }
      auto it = loop.conns.find(tag);
      if (it == loop.conns.end()) continue;  // torn down this iteration
      std::shared_ptr<ReactorConn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        Teardown(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(loop, conn);
      if (!conn->fd_.valid()) continue;  // HandleReadable tore it down
      if (events[i].events & EPOLLOUT) TryFlush(loop, conn);
    }

    // Flush requests from workers / update fanout.
    std::vector<uint64_t> dirty;
    {
      MutexLock lock(loop.mu);
      dirty.swap(loop.dirty);
    }
    for (uint64_t id : dirty) {
      auto it = loop.conns.find(id);
      if (it != loop.conns.end()) TryFlush(loop, it->second);
    }

    // Retry stalled connections against the worker queue.
    if (!loop.stalled.empty()) {
      std::vector<uint64_t> retry(loop.stalled.begin(), loop.stalled.end());
      loop.stalled.clear();
      for (uint64_t id : retry) {
        auto it = loop.conns.find(id);
        if (it == loop.conns.end()) continue;
        std::shared_ptr<ReactorConn> conn = it->second;
        ParseAndDispatch(loop, conn);
        if (conn->fd_.valid()) TryFlush(loop, conn);
      }
    }
  }

  // Teardown everything this loop owns (deregistering subscription sinks);
  // must run on this thread like every other epoll/conn-state touch.
  std::vector<std::shared_ptr<ReactorConn>> remaining;
  remaining.reserve(loop.conns.size());
  for (auto& [id, conn] : loop.conns) remaining.push_back(conn);
  for (auto& conn : remaining) Teardown(loop, conn);
  {
    MutexLock lock(loop.mu);
    loop.incoming.clear();
    loop.dirty.clear();
  }
}

void ReactorCore::HandleAccept(Loop& loop0) {
  for (;;) {
    int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, racing Stop(), or transient error
    if (!NetFaultInjector::Instance().OnAccept(port_, fd)) {
      // Injected partition: drop the handshake the kernel already
      // completed — the peer sees a connect that never answers.
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++stats_->connections_accepted;
    ++stats_->live_connections;
    uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    size_t target = id % loops_.size();
    auto conn = std::make_shared<ReactorConn>(id, UniqueFd(fd), this,
                                              target, limits_, stats_);
    if (target == 0) {
      conn->interest_ = EPOLLIN;
      if (!loop0.epoll.Add(conn->fd_.get(), EPOLLIN, id).ok()) {
        --stats_->live_connections;
        continue;
      }
      loop0.conns.emplace(id, std::move(conn));
    } else {
      Loop& dest = *loops_[target];
      {
        MutexLock lock(dest.mu);
        dest.incoming.push_back(std::move(conn));
      }
      dest.epoll.Wake();
    }
  }
}

void ReactorCore::HandleReadable(Loop& loop,
                                 const std::shared_ptr<ReactorConn>& conn) {
  char buf[kReadChunk];
  for (int chunk = 0; chunk < kMaxReadChunksPerWakeup; ++chunk) {
    ssize_t n = ::read(conn->fd_.get(), buf, sizeof(buf));
    if (n > 0) {
      conn->read_buf_.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed; undelivered responses are moot
      Teardown(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Teardown(loop, conn);
    return;
  }
  ParseAndDispatch(loop, conn);
  if (conn->fd_.valid()) TryFlush(loop, conn);
}

void ReactorCore::ParseAndDispatch(Loop& loop,
                                   const std::shared_ptr<ReactorConn>& conn) {
  size_t consumed = 0;
  bool kill = false;
  bool throttled = false;  // pipeline depth or write watermark
  bool stalled = false;    // worker queue full

  while (true) {
    std::string_view avail(conn->read_buf_);
    avail.remove_prefix(consumed);
    if (avail.size() < kFrameHeaderBytes) break;
    auto header = ParseFrameHeader(avail.substr(0, kFrameHeaderBytes),
                                   limits_.max_frame_bytes);
    if (!header.ok()) {
      ++stats_->protocol_errors;
      kill = true;
      break;
    }
    const size_t frame_size = kFrameHeaderBytes + header->body_len;
    if (avail.size() < frame_size) break;  // incomplete; wait for bytes

    if (header->type == MsgType::kSubscribeReq) {
      std::string body(avail.substr(kFrameHeaderBytes, header->body_len));
      consumed += frame_size;
      stats_->bytes_in += static_cast<int64_t>(frame_size);
      if (!HandleSubscribe(loop, conn, *header, body)) {
        kill = true;
        break;
      }
      continue;
    }

    // Backpressure gates, checked before consuming the frame so a paused
    // connection simply keeps the bytes buffered.
    {
      MutexLock lock(conn->mu_);
      if (conn->close_requested_) break;
      if (conn->inflight_ >= limits_.max_pipeline ||
          conn->write_bytes_ >= limits_.write_high_watermark) {
        throttled = true;
        break;
      }
      ++conn->inflight_;  // before TryPost: the worker may finish first
    }
    FrameHeader h = *header;
    std::string body(avail.substr(kFrameHeaderBytes, header->body_len));
    bool posted = worker_pool_.TryPost(
        [this, conn, h, body = std::move(body)]() mutable {
          auto [type, resp_body] = dispatcher_->Dispatch(h, body);
          if (type == static_cast<MsgType>(0)) {
            ++stats_->protocol_errors;
            conn->CompleteRequest("", /*kill=*/true);
            return;
          }
          auto frame = BuildFrame(type, h.seq, resp_body,
                                  limits_.max_frame_bytes);
          if (!frame.ok()) {  // response exceeds the frame bound
            ++stats_->protocol_errors;
            conn->CompleteRequest("", /*kill=*/true);
            return;
          }
          conn->CompleteRequest(*std::move(frame), /*kill=*/false);
        });
    if (!posted) {
      MutexLock lock(conn->mu_);
      --conn->inflight_;
      stalled = true;
      break;
    }
    consumed += frame_size;
    stats_->bytes_in += static_cast<int64_t>(frame_size);
  }

  conn->read_buf_.erase(0, consumed);
  if (kill) {
    Teardown(loop, conn);
    return;
  }
  bool should_pause = throttled || stalled;
  if (should_pause != conn->reads_paused_) {
    conn->reads_paused_ = should_pause;
    if (should_pause) ++stats_->backpressure_pauses;
  }
  if (stalled) loop.stalled.insert(conn->id());
  UpdateInterest(loop, *conn);
}

bool ReactorCore::HandleSubscribe(Loop& loop,
                                  const std::shared_ptr<ReactorConn>& conn,
                                  const FrameHeader& header,
                                  const std::string& body) {
  (void)loop;
  // Same refusal modes as the legacy backend: no in-band error slot, so a
  // subscription we cannot serve is refused by dropping the connection.
  WritableDataService* writable = dispatcher_->writable();
  if (writable == nullptr || header.version != kWireVersion) {
    ++stats_->protocol_errors;
    return false;
  }
  auto subscriber = DecodeSubscribeRequest(body);
  if (!subscriber.ok()) {
    ++stats_->protocol_errors;
    return false;
  }
  if (conn->subscribed_io_) {
    ++stats_->protocol_errors;  // double-subscribe on one connection
    return false;
  }
  ++stats_->requests;
  conn->subscribed_io_ = true;
  {
    MutexLock lock(conn->mu_);
    conn->subscribed_ = true;
  }
  // Register the sink *before* taking the snapshot (mu_ released: the
  // fanout lock the service holds while calling sinks ranks below
  // kReactorConn). Events in the gap arrive twice — snapshot position +
  // queued event — and the subscriber's seq tracking dedups the overlap.
  writable->AddUpdateSink(conn.get());
  conn->sink_registered_ = true;
  auto frame = BuildFrame(MsgType::kSubscribeResp, header.seq,
                          EncodeSubscribeResponse(writable->EpochSnapshot()),
                          limits_.max_frame_bytes);
  if (!frame.ok()) return false;
  {
    MutexLock lock(conn->mu_);
    conn->write_bytes_ += frame->size();
    conn->write_queue_.push_back(*std::move(frame));
  }
  ++stats_->subscriptions;
  return true;
}

void ReactorCore::TryFlush(Loop& loop,
                           const std::shared_ptr<ReactorConn>& conn) {
  if (!conn->fd_.valid()) return;
  bool close_now = false;
  bool resume_reads = false;
  {
    MutexLock lock(conn->mu_);
    if (conn->closed_) return;

    // Injected half-open partition: this fd's transmit direction is
    // black-holed, so frames must not reach the kernel. Tear the
    // connection down instead — parity with the threaded backend, whose
    // SendAll performs the same check before every write. Only a flush
    // with something to send writes: the one that follows each read must
    // not tear down before the requests it just posted are served.
    NetFaultInjector& nf = NetFaultInjector::Instance();
    if (nf.faults_active() &&
        (!conn->write_queue_.empty() ||
         (conn->subscribed_ && !conn->pending_notifies_.empty())) &&
        !nf.CheckSend(conn->fd_.get()).ok()) {
      close_now = true;
    }

    // Stage-then-write until no more progress: if one writev drains the
    // whole queue, pending notifies must be staged NOW — with the queue
    // empty there is no EPOLLOUT edge left to bring us back here.
    bool again = !close_now;
    while (again) {
    again = false;
    // Stage pending notifies into the write queue while it has headroom —
    // this is the throttle: a slow subscriber's events wait (coalescing)
    // in pending_notifies_ instead of ballooning the write queue.
    if (conn->subscribed_) {
      while (!conn->pending_notifies_.empty() &&
             conn->write_bytes_ < limits_.write_high_watermark) {
        UpdateEvent event = conn->pending_notifies_.front();
        conn->pending_notifies_.pop_front();
        conn->notify_index_.erase(event.key);
        auto frame = BuildFrame(MsgType::kNotifyEvt, conn->notify_seq_++,
                                EncodeNotifyEvent(event),
                                limits_.max_frame_bytes);
        if (!frame.ok()) continue;  // fixed-size body; cannot happen
        conn->write_bytes_ += frame->size();
        conn->write_queue_.push_back(*std::move(frame));
        ++stats_->notify_events;
      }
    }

    // writev as much as the kernel will take.
    while (!conn->write_queue_.empty()) {
      struct iovec iov[kMaxIov];
      int iov_count = 0;
      size_t offset = conn->front_offset_;
      for (const std::string& chunk : conn->write_queue_) {
        if (iov_count == kMaxIov) break;
        iov[iov_count].iov_base =
            const_cast<char*>(chunk.data()) + offset;
        iov[iov_count].iov_len = chunk.size() - offset;
        offset = 0;
        ++iov_count;
      }
      ssize_t w = ::writev(conn->fd_.get(), iov, iov_count);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_now = true;  // peer reset / torn socket
        break;
      }
      stats_->bytes_out += static_cast<int64_t>(w);
      size_t remaining = static_cast<size_t>(w);
      while (remaining > 0) {
        std::string& front = conn->write_queue_.front();
        size_t front_left = front.size() - conn->front_offset_;
        if (remaining >= front_left) {
          remaining -= front_left;
          conn->write_bytes_ -= front.size() - conn->front_offset_;
          conn->front_offset_ = 0;
          conn->write_queue_.pop_front();
        } else {
          conn->front_offset_ += remaining;
          conn->write_bytes_ -= remaining;
          remaining = 0;
        }
      }
    }
    if (!close_now && conn->write_queue_.empty() && conn->subscribed_ &&
        !conn->pending_notifies_.empty()) {
      again = true;  // the drain opened headroom; stage the next batch
    }
    }  // while (again)

    if (conn->close_requested_ &&
        (close_now ||
         (conn->write_queue_.empty() && conn->pending_notifies_.empty()))) {
      close_now = true;  // graceful: queued frames were delivered first
    }
    if (!close_now && conn->reads_paused_ &&
        conn->write_bytes_ <= limits_.write_low_watermark &&
        conn->inflight_ < limits_.max_pipeline &&
        !conn->close_requested_) {
      resume_reads = true;
    }
  }

  if (close_now) {
    Teardown(loop, conn);  // no locks held, as Teardown requires
    return;
  }
  if (resume_reads) {
    conn->reads_paused_ = false;
    // Frames may already be buffered; parse them now (re-pauses and
    // re-requests a flush itself if it must).
    ParseAndDispatch(loop, conn);
    if (!conn->fd_.valid()) return;
  }
  UpdateInterest(loop, *conn);
}

void ReactorCore::UpdateInterest(Loop& loop, ReactorConn& conn) {
  if (!conn.fd_.valid()) return;
  uint32_t want = conn.reads_paused_ ? 0u : EPOLLIN;
  {
    MutexLock lock(conn.mu_);
    if (conn.write_bytes_ > 0) want |= EPOLLOUT;
  }
  if (want == conn.interest_) return;
  conn.interest_ = want;
  loop.epoll.Mod(conn.fd_.get(), want, conn.id());
}

void ReactorCore::Teardown(Loop& loop,
                           const std::shared_ptr<ReactorConn>& conn) {
  if (!conn->fd_.valid()) return;  // already torn down
  {
    MutexLock lock(conn->mu_);
    conn->closed_ = true;  // workers/fanout writers become no-ops
  }
  if (conn->sink_registered_) {
    // After RemoveUpdateSink returns no OnUpdateEvent call is in flight
    // (the service holds its update lock across fanout). No locks held
    // here: kNodeUpdateFanout ranks below both reactor locks.
    dispatcher_->writable()->RemoveUpdateSink(conn.get());
    conn->sink_registered_ = false;
  }
  loop.epoll.Del(conn->fd_.get());
  conn->fd_.Reset();
  loop.stalled.erase(conn->id());
  loop.conns.erase(conn->id());
  --stats_->live_connections;
}

}  // namespace joinopt
