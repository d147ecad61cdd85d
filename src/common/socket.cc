#include "common/socket.h"

#include "common/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#define GRANULA_HAVE_POSIX_SOCKETS 1
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace granula {

#ifdef GRANULA_HAVE_POSIX_SOCKETS

namespace {

Status SetTimeoutOpt(int fd, int option, int ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return Status::IoError(StrFormat("setsockopt(%d) failed: %s", option,
                                     std::strerror(errno)));
  }
  return Status::OK();
}

// A peer closing mid-write must surface as an error return, never as a
// process-killing SIGPIPE: the fleet daemon writes to webhook endpoints
// and serve clients that die at will. Linux suppresses the signal per
// send() via MSG_NOSIGNAL (see WriteAll); BSD/macOS lack that flag but
// offer the per-socket SO_NOSIGPIPE, set here on every socket this module
// creates or accepts.
void DisableSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

Result<sockaddr_in> ResolveV4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (host.empty() || host == "0.0.0.0" || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Numeric IPv4 only: the daemon binds loopback or an explicit
    // interface address; name resolution would drag in a resolver
    // dependency for no listener-side benefit.
    return Status::InvalidArgument(
        StrFormat("bad host '%s' (expected an IPv4 address)", host.c_str()));
  }
  return addr;
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TcpSocket::SetTimeouts(int recv_ms, int send_ms) {
  if (!valid()) return Status::FailedPrecondition("socket is closed");
  if (recv_ms > 0) {
    GRANULA_RETURN_IF_ERROR(SetTimeoutOpt(fd_, SO_RCVTIMEO, recv_ms));
  }
  if (send_ms > 0) {
    GRANULA_RETURN_IF_ERROR(SetTimeoutOpt(fd_, SO_SNDTIMEO, send_ms));
  }
  return Status::OK();
}

TcpSocket::ReadOutcome TcpSocket::Read(std::string& out, size_t cap) {
  if (!valid()) return ReadOutcome::kError;
  char buf[16384];
  if (cap > sizeof(buf)) cap = sizeof(buf);
  for (;;) {
    ssize_t got = ::recv(fd_, buf, cap, 0);
    if (got > 0) {
      out.append(buf, static_cast<size_t>(got));
      return ReadOutcome::kData;
    }
    if (got == 0) return ReadOutcome::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadOutcome::kTimeout;
    return ReadOutcome::kError;
  }
}

Status TcpSocket::WriteAll(std::string_view data) {
  if (!valid()) return Status::FailedPrecondition("socket is closed");
  size_t written = 0;
  while (written < data.size()) {
    ssize_t got = ::send(fd_, data.data() + written, data.size() - written,
#ifdef MSG_NOSIGNAL
                         MSG_NOSIGNAL
#else
                         0
#endif
    );
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("socket write timed out");
      }
      return Status::IoError(
          StrFormat("socket write failed: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(got);
  }
  return Status::OK();
}

bool TcpSocket::PeerClosed() {
  if (!valid()) return true;
  for (;;) {
    char byte;
    ssize_t got = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (got > 0) return false;  // unread bytes: the peer is still there
    if (got == 0) return true;  // orderly close (or our own SHUT_RD)
    if (errno == EINTR) continue;
    return errno != EAGAIN && errno != EWOULDBLOCK;  // reset or error
  }
}

void TcpSocket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpListener> TcpListener::Bind(const std::string& host, int port,
                                      int backlog) {
  GRANULA_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("cannot create socket: %s", std::strerror(errno)));
  }
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IoError(StrFormat(
        "cannot bind %s:%d: %s", host.c_str(), port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Status::IoError(StrFormat(
        "cannot listen on %s:%d: %s", host.c_str(), port,
        std::strerror(errno)));
    ::close(fd);
    return status;
  }
  TcpListener listener;
  listener.fd_ = fd;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    listener.port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    listener.port_ = port;
  }
  return listener;
}

Result<TcpSocket> TcpListener::Accept(int timeout_ms) {
  if (!valid()) return Status::FailedPrecondition("listener is closed");
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return TcpSocket();  // spurious wake: poll again
    return Status::IoError(
        StrFormat("poll failed: %s", std::strerror(errno)));
  }
  if (ready == 0) return TcpSocket();  // timeout
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return TcpSocket();  // transient; caller loops
    }
    return Status::IoError(
        StrFormat("accept failed: %s", std::strerror(errno)));
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  DisableSigpipe(fd);
  return TcpSocket(fd);
}

void TcpListener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpSocket> TcpConnect(const std::string& host, int port,
                             int timeout_ms) {
  GRANULA_ASSIGN_OR_RETURN(
      sockaddr_in addr, ResolveV4(host.empty() ? "127.0.0.1" : host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("cannot create socket: %s", std::strerror(errno)));
  }
  TcpSocket sock(fd);  // owns the fd from here on
  // Non-blocking connect bounded by poll, then back to blocking mode so
  // the caller's SetTimeouts() semantics apply to reads/writes.
  int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::IoError(StrFormat("cannot connect to %s:%d: %s",
                                     host.c_str(), port,
                                     std::strerror(errno)));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      return Status::IoError(
          StrFormat("connect to %s:%d timed out", host.c_str(), port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return Status::IoError(StrFormat("cannot connect to %s:%d: %s",
                                       host.c_str(), port,
                                       std::strerror(err)));
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  DisableSigpipe(fd);
  return sock;
}

void ShutdownReadFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

#else  // !GRANULA_HAVE_POSIX_SOCKETS

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  fd_ = other.fd_;
  other.fd_ = -1;
  return *this;
}
Status TcpSocket::SetTimeouts(int, int) {
  return Status::Unimplemented("sockets unavailable on this platform");
}
TcpSocket::ReadOutcome TcpSocket::Read(std::string&, size_t) {
  return ReadOutcome::kError;
}
Status TcpSocket::WriteAll(std::string_view) {
  return Status::Unimplemented("sockets unavailable on this platform");
}
bool TcpSocket::PeerClosed() { return true; }
void TcpSocket::Close() { fd_ = -1; }

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  fd_ = other.fd_;
  port_ = other.port_;
  other.fd_ = -1;
  return *this;
}
Result<TcpListener> TcpListener::Bind(const std::string&, int, int) {
  return Status::Unimplemented("sockets unavailable on this platform");
}
Result<TcpSocket> TcpListener::Accept(int) {
  return Status::Unimplemented("sockets unavailable on this platform");
}
void TcpListener::Close() { fd_ = -1; }

Result<TcpSocket> TcpConnect(const std::string&, int, int) {
  return Status::Unimplemented("sockets unavailable on this platform");
}

void ShutdownReadFd(int) {}

#endif  // GRANULA_HAVE_POSIX_SOCKETS

}  // namespace granula
