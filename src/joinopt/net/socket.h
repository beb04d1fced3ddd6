// Thin POSIX TCP layer for the RPC transport: RAII fds, connect / send /
// recv with absolute deadlines (poll-based, so a stuck peer surfaces as a
// Status instead of a hung thread), and the errno → Status mapping the
// failure-recovery machinery consumes.
//
// Error mapping (see DESIGN.md §10 for the full table):
//   * every *transport* failure — refused/reset connections, unreachable
//     hosts, broken pipes, peer close mid-message — maps to kAborted, the
//     retriable class the client's timeout → backoff → replica-failover
//     loop acts on;
//   * a deadline expiry also maps to kAborted but with a message starting
//     with "deadline exceeded", so IsDeadlineExceeded() can count timeouts
//     separately from connection failures (RecoveryCounters::timeouts);
//   * malformed frames (bad magic, reserved flags, oversized body) map to
//     kInvalidArgument / kResourceExhausted in the codec layer and are
//     *not* retried against the same connection — the stream is desynced
//     and the connection must be dropped.
// Application-level errors (e.g. NotFound from the store) never appear
// here: they travel in-band as serialized Status payloads.
#ifndef JOINOPT_NET_SOCKET_H_
#define JOINOPT_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "joinopt/common/status.h"
#include "joinopt/net/frame.h"

namespace joinopt {

/// RAII file descriptor (closes on destruction; movable, not copyable).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) {
      Reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// Maps an errno from `op` to the transport Status class described above.
Status ErrnoToStatus(int err, const char* op);

/// True for the deadline-expiry flavour of kAborted (counted as a timeout
/// by the recovery machinery; other kAborted are connection failures).
bool IsDeadlineExceeded(const Status& status);

/// True for the retriable transport class (kAborted): the caller may back
/// off and fail over to a replica endpoint. In-band application statuses
/// (NotFound, InvalidArgument, ...) return false and must not be retried.
bool IsTransportError(const Status& status);

/// Deadline arguments are relative seconds for the whole operation;
/// <= 0 means no deadline (block until progress or peer close).

/// Connects to host:port with TCP_NODELAY set — RPC frames are
/// latency-bound, not throughput-bound. `host` may be a numeric IPv4
/// address ("127.0.0.1", fast path, no resolver) or a hostname
/// ("localhost", "db-3.rack2"): names go through getaddrinfo with the
/// connect deadline applied across resolution *and* the handshake, and
/// transient resolver failures (EAI_AGAIN) are retried with a short
/// backoff while budget remains. Resolution failures map to kAborted —
/// the retriable transport class — because in a cluster a name that does
/// not resolve right now (DNS blip, node rejoining) is indistinguishable
/// from a node being down.
StatusOr<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                              double deadline_sec);

/// Binds + listens on host:port; port 0 picks an ephemeral port (read it
/// back with BoundPort). SO_REUSEADDR is set so tests can restart servers.
StatusOr<UniqueFd> TcpListen(const std::string& host, uint16_t port,
                             int backlog);

StatusOr<uint16_t> BoundPort(int fd);

/// Waits up to deadline_sec for `fd` to become readable. Returns true if
/// readable, false on timeout. A deadline <= 0 polls once without
/// waiting; there is no "wait forever" value.
StatusOr<bool> WaitReadable(int fd, double deadline_sec);

Status SendAll(int fd, const void* data, size_t len, double deadline_sec);
Status RecvAll(int fd, void* data, size_t len, double deadline_sec);

/// Sends one framed message (header + body) within the deadline.
Status SendFrame(int fd, MsgType type, uint32_t seq, std::string_view body,
                 double deadline_sec, size_t max_frame_bytes);

/// Receives one framed message within the deadline; validates the header
/// (magic, flags, size bound) but *not* the version — the caller decides
/// whether to answer a mismatched peer or drop it.
struct RecvdFrame {
  FrameHeader header;
  std::string body;
};
StatusOr<RecvdFrame> RecvFrame(int fd, double deadline_sec,
                               size_t max_frame_bytes);

}  // namespace joinopt

#endif  // JOINOPT_NET_SOCKET_H_
