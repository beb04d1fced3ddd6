// ReactorConn: one non-blocking connection served by the reactor backend
// (DESIGN.md §13). The state is split by owner, not by class:
//
//  * IO-thread-confined — the read buffer, incremental frame parsing
//    cursor, epoll interest cache and subscription bookkeeping are touched
//    only by the owning EpollLoop's thread, so they need no lock at all.
//  * mu_-guarded (rank kReactorConn, the reactor's innermost lock) — the
//    bounded write queue, pipeline depth and pending-Notify coalescing
//    state, because three thread families reach them: worker threads
//    appending responses, update-fanout writers appending invalidation
//    events (holding kNodeUpdateFanout), and the IO thread flushing.
//
// Flow control lives here:
//  * The write queue is bounded by byte watermarks: past the high mark the
//    IO thread stops parsing new requests from this connection (the bytes
//    wait in the kernel socket buffer and then in the peer's send path —
//    end-to-end backpressure), resuming below the low mark.
//  * Pipelining is bounded by max_pipeline outstanding requests.
//  * Notify events pending for a slow subscriber coalesce per key: a newer
//    event for the same key replaces the older one and moves to the tail
//    (delivered seqs stay monotonic). The skipped sequence numbers are
//    provably superseded same-key updates, which is why the subscriber
//    treats live-stream gaps as benign (cluster/subscriber.h) instead of
//    re-syncing the region. Only a flood of *distinct* keys beyond the
//    bound still drops the stream — the legacy backend's behaviour, now
//    the last resort instead of the only answer.
#ifndef JOINOPT_NET_REACTOR_REACTOR_CONN_H_
#define JOINOPT_NET_REACTOR_REACTOR_CONN_H_

#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/sync.h"
#include "joinopt/net/frame.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/update_hub.h"

namespace joinopt {

class ReactorCore;
struct RpcAtomicStats;

/// Per-connection bounds, copied from ReactorOptions at accept time.
struct ReactorConnLimits {
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t write_high_watermark = 1u << 20;
  size_t write_low_watermark = 256u << 10;
  int max_pipeline = 64;
  size_t notify_queue_capacity = 4096;
};

class ReactorConn : public UpdateSink {
 public:
  ReactorConn(uint64_t id, UniqueFd fd, ReactorCore* core,
              size_t loop_index, const ReactorConnLimits& limits,
              RpcAtomicStats* stats);
  ~ReactorConn() override;

  uint64_t id() const { return id_; }

  /// UpdateSink: called on the writer's thread with the service's update
  /// lock (kNodeUpdateFanout) held — must only touch mu_-guarded state
  /// and request a flush. Coalesces per key as described above.
  void OnUpdateEvent(const UpdateEvent& event) override;

  /// Worker-thread completion: decrements the pipeline depth and, unless
  /// `kill` (undispatchable request — the stream can no longer be
  /// trusted), appends the encoded response frame. Wakes the IO thread.
  void CompleteRequest(std::string frame_bytes, bool kill);

 private:
  friend class ReactorCore;  // the IO thread's half lives in reactor_core.cc

  const uint64_t id_;
  ReactorCore* const core_;
  const size_t loop_index_;
  const ReactorConnLimits limits_;
  RpcAtomicStats* const stats_;

  // ---- IO-thread-confined (owning loop only; no lock) ----
  UniqueFd fd_;
  std::string read_buf_;          ///< unparsed inbound bytes
  bool reads_paused_ = false;     ///< EPOLLIN removed by backpressure
  uint32_t interest_ = 0;         ///< current epoll mask (Mod cache)
  bool subscribed_io_ = false;    ///< IO-side view of the subscription
  bool sink_registered_ = false;  ///< AddUpdateSink done, Remove pending
  uint32_t notify_seq_ = 0;       ///< frame seq for kNotifyEvt pushes

  // ---- shared (workers, update fanout, IO thread) ----
  mutable Mutex mu_{lock_rank::kReactorConn, "ReactorConn::mu_"};
  std::deque<std::string> write_queue_ JOINOPT_GUARDED_BY(mu_);
  size_t write_bytes_ JOINOPT_GUARDED_BY(mu_) = 0;
  /// Bytes of write_queue_.front() already handed to the kernel.
  size_t front_offset_ JOINOPT_GUARDED_BY(mu_) = 0;
  int inflight_ JOINOPT_GUARDED_BY(mu_) = 0;  ///< pipelined requests
  bool closed_ JOINOPT_GUARDED_BY(mu_) = false;
  bool close_requested_ JOINOPT_GUARDED_BY(mu_) = false;
  /// Subscription pending-event queue with per-key coalescing index.
  bool subscribed_ JOINOPT_GUARDED_BY(mu_) = false;
  std::list<UpdateEvent> pending_notifies_ JOINOPT_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<UpdateEvent>::iterator> notify_index_
      JOINOPT_GUARDED_BY(mu_);
  bool notify_overflow_ JOINOPT_GUARDED_BY(mu_) = false;
};

}  // namespace joinopt

#endif  // JOINOPT_NET_REACTOR_REACTOR_CONN_H_
