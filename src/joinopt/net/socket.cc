#include "joinopt/net/socket.h"

#include "joinopt/net/net_fault.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace joinopt {

namespace {

constexpr char kDeadlinePrefix[] = "deadline exceeded";

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status DeadlineError(const char* op) {
  return Status::Aborted(std::string(kDeadlinePrefix) + " in " + op);
}

/// Remaining poll budget in ms, or -1 (infinite) when no deadline was set.
/// Returns 0 when the deadline already passed.
int RemainingMs(double deadline_abs) {
  if (deadline_abs <= 0) return -1;
  double left = deadline_abs - MonotonicSeconds();
  if (left <= 0) return 0;
  double ms = left * 1e3;
  return ms > 2147483000.0 ? 2147483000 : static_cast<int>(ms) + 1;
}

double AbsDeadline(double deadline_sec) {
  return deadline_sec > 0 ? MonotonicSeconds() + deadline_sec : 0.0;
}

Status SetNonBlocking(int fd, bool enable) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoToStatus(errno, "fcntl");
  flags = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, flags) < 0) return ErrnoToStatus(errno, "fcntl");
  return Status::OK();
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    NetFaultInjector& nf = NetFaultInjector::Instance();
    if (nf.tracking()) nf.OnClose(fd_);
    ::close(fd_);
  }
  fd_ = -1;
}

Status ErrnoToStatus(int err, const char* op) {
  // All transport-level failures are kAborted: the retriable class the
  // backoff + failover loop consumes. The message keeps the errno name so
  // operators can tell ECONNREFUSED (server down) from EPIPE (died
  // mid-write) in logs, while the recovery machinery treats them the same.
  return Status::Aborted(std::string(op) + ": " + ::strerror(err));
}

bool IsDeadlineExceeded(const Status& status) {
  return status.code() == StatusCode::kAborted &&
         status.message().rfind(kDeadlinePrefix, 0) == 0;
}

bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kAborted;
}

namespace {

/// Resolves `host` to IPv4 addresses. Numeric addresses never touch the
/// resolver; names go through getaddrinfo, retrying EAI_AGAIN (transient
/// resolver overload / DNS timeout) with a short backoff while the
/// deadline budget lasts. All failures are kAborted: an unresolvable name
/// is a transport-class failure the replica-failover loop should rotate
/// past, not a programming error.
StatusOr<std::vector<in_addr>> ResolveIPv4(const std::string& host,
                                           double deadline_abs) {
  in_addr numeric{};
  if (::inet_pton(AF_INET, host.c_str(), &numeric) == 1) {
    return std::vector<in_addr>{numeric};
  }

  constexpr double kResolveRetryBackoff = 20e-3;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  int rc;
  for (;;) {
    addrinfo* res = nullptr;
    rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (rc == 0) {
      std::vector<in_addr> addrs;
      for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        if (ai->ai_family != AF_INET) continue;
        addrs.push_back(
            reinterpret_cast<sockaddr_in*>(ai->ai_addr)->sin_addr);
      }
      ::freeaddrinfo(res);
      if (addrs.empty()) {
        return Status::Aborted("resolve: no IPv4 address for " + host);
      }
      return addrs;
    }
    if (res != nullptr) ::freeaddrinfo(res);
    bool transient = rc == EAI_AGAIN;
    if (!transient) break;
    // Retry only while enough budget remains to also attempt the connect.
    int left_ms = RemainingMs(deadline_abs);
    if (left_ms >= 0 && left_ms < static_cast<int>(kResolveRetryBackoff * 2e3)) {
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kResolveRetryBackoff));
  }
  return Status::Aborted(std::string("resolve: ") + ::gai_strerror(rc) +
                         " for " + host);
}

/// Deadline-bounded non-blocking connect to one resolved address.
StatusOr<UniqueFd> ConnectOne(const in_addr& ip, uint16_t port,
                              double deadline_abs) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = ip;

  // Non-blocking connect so the deadline applies to the handshake too
  // (a SYN black hole otherwise blocks for the kernel's ~2 min default).
  JOINOPT_RETURN_NOT_OK(SetNonBlocking(fd.get(), true));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) return ErrnoToStatus(errno, "connect");
    pollfd pfd{fd.get(), POLLOUT, 0};
    int rc = ::poll(&pfd, 1, RemainingMs(deadline_abs));
    if (rc < 0) return ErrnoToStatus(errno, "poll(connect)");
    if (rc == 0) return DeadlineError("connect");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return ErrnoToStatus(errno, "getsockopt");
    }
    if (err != 0) return ErrnoToStatus(err, "connect");
  }
  JOINOPT_RETURN_NOT_OK(SetNonBlocking(fd.get(), false));

  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

StatusOr<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                              double deadline_sec) {
  // Injected-partition seam: a dial between two declared endpoints with a
  // blocked direction fails before touching the kernel (a dropped SYN
  // would otherwise burn the whole deadline for real).
  NetFaultInjector& nf = NetFaultInjector::Instance();
  if (nf.faults_active()) {
    JOINOPT_RETURN_NOT_OK(nf.CheckConnect(port));
  }
  double deadline_abs = AbsDeadline(deadline_sec);
  JOINOPT_ASSIGN_OR_RETURN(std::vector<in_addr> addrs,
                           ResolveIPv4(host, deadline_abs));
  Status last = Status::Aborted("connect: no addresses tried");
  for (const in_addr& ip : addrs) {
    auto fd = ConnectOne(ip, port, deadline_abs);
    if (fd.ok()) {
      if (nf.tracking()) nf.OnConnected(fd->get(), port);
      return fd;
    }
    last = fd.status();
    // Names can map to several addresses; fall through to the next one
    // while budget remains, but a spent deadline ends the whole dial.
    if (IsDeadlineExceeded(last)) break;
  }
  return last;
}

StatusOr<UniqueFd> TcpListen(const std::string& host, uint16_t port,
                             int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket");

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoToStatus(errno, "bind");
  }
  if (::listen(fd.get(), backlog) < 0) {
    return ErrnoToStatus(errno, "listen");
  }
  return fd;
}

StatusOr<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoToStatus(errno, "getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<bool> WaitReadable(int fd, double deadline_sec) {
  pollfd pfd{fd, POLLIN, 0};
  int timeout_ms =
      deadline_sec <= 0 ? 0 : static_cast<int>(deadline_sec * 1e3) + 1;
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return false;
    return ErrnoToStatus(errno, "poll");
  }
  return rc > 0;
}

Status SendAll(int fd, const void* data, size_t len, double deadline_sec) {
  {
    // Established-connection half of the injected partition: bytes leaving
    // on a blocked direction would vanish, so surface the timeout now.
    NetFaultInjector& nf = NetFaultInjector::Instance();
    if (nf.faults_active()) JOINOPT_RETURN_NOT_OK(nf.CheckSend(fd));
  }
  const char* p = static_cast<const char*>(data);
  double deadline_abs = AbsDeadline(deadline_sec);
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a peer that died mid-batch must surface as EPIPE (→
    // kAborted → failover), not kill the process with SIGPIPE.
    ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return ErrnoToStatus(errno, "send");
    }
    pollfd pfd{fd, POLLOUT, 0};
    int rc = ::poll(&pfd, 1, RemainingMs(deadline_abs));
    if (rc < 0 && errno != EINTR) return ErrnoToStatus(errno, "poll(send)");
    if (rc == 0) return DeadlineError("send");
  }
  return Status::OK();
}

Status RecvAll(int fd, void* data, size_t len, double deadline_sec) {
  char* p = static_cast<char*>(data);
  double deadline_abs = AbsDeadline(deadline_sec);
  size_t got = 0;
  while (got < len) {
    pollfd pfd{fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, RemainingMs(deadline_abs));
    if (rc < 0 && errno != EINTR) return ErrnoToStatus(errno, "poll(recv)");
    if (rc == 0) return DeadlineError("recv");
    if (rc < 0) continue;  // EINTR: retry with the remaining budget
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n == 0) {
      // Peer closed mid-message: a half frame is a connection failure.
      return Status::Aborted("recv: connection closed by peer");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      return ErrnoToStatus(errno, "recv");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SendFrame(int fd, MsgType type, uint32_t seq, std::string_view body,
                 double deadline_sec, size_t max_frame_bytes) {
  JOINOPT_ASSIGN_OR_RETURN(std::string frame,
                           BuildFrame(type, seq, body, max_frame_bytes));
  return SendAll(fd, frame.data(), frame.size(), deadline_sec);
}

StatusOr<RecvdFrame> RecvFrame(int fd, double deadline_sec,
                               size_t max_frame_bytes) {
  // The deadline covers header + body together: one budget per message.
  double deadline_abs = AbsDeadline(deadline_sec);
  double budget = deadline_abs > 0 ? deadline_abs - MonotonicSeconds() : 0.0;
  if (deadline_abs > 0 && budget <= 0) return DeadlineError("recv");

  char header_buf[kFrameHeaderBytes];
  JOINOPT_RETURN_NOT_OK(
      RecvAll(fd, header_buf, sizeof(header_buf), budget));
  JOINOPT_ASSIGN_OR_RETURN(
      FrameHeader header,
      ParseFrameHeader(std::string_view(header_buf, sizeof(header_buf)),
                       max_frame_bytes));
  RecvdFrame out;
  out.header = header;
  out.body.resize(header.body_len);
  if (header.body_len > 0) {
    budget = deadline_abs > 0 ? deadline_abs - MonotonicSeconds() : 0.0;
    if (deadline_abs > 0 && budget <= 0) return DeadlineError("recv");
    JOINOPT_RETURN_NOT_OK(
        RecvAll(fd, out.body.data(), out.body.size(), budget));
  }
  return out;
}

}  // namespace joinopt
