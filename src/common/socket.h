#ifndef GRANULA_COMMON_SOCKET_H_
#define GRANULA_COMMON_SOCKET_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace granula {

// Minimal blocking TCP primitives for the embedded archive server
// (granula/serve) and its test/bench clients. POSIX sockets only — on a
// non-POSIX build every call returns Unimplemented, mirroring how
// MappedFile degrades. No external dependencies, no event loop: the
// serve layer is a listener plus blocking per-connection workers, so
// plain fds with kernel timeouts are all that is needed.

// A connected stream socket. Move-only; the destructor closes the fd.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Kernel-enforced read/write deadlines (SO_RCVTIMEO / SO_SNDTIMEO).
  // <= 0 leaves the direction unbounded.
  Status SetTimeouts(int recv_ms, int send_ms);

  // One blocking read of at most `cap` bytes appended to `out`.
  enum class ReadOutcome { kData, kEof, kTimeout, kError };
  ReadOutcome Read(std::string& out, size_t cap = 16384);

  // Writes all of `data`; a send timeout or closed peer is an IoError
  // with "timed out" in the message for the timeout case.
  Status WriteAll(std::string_view data);

  // Whether the peer has closed or reset the connection, without blocking
  // and without consuming bytes it sent. A writer that only writes now and
  // then (a feed stream on an idle log) calls this between writes to
  // notice a follower that has gone. Also true once ShutdownReadFd() has
  // shut the read side.
  bool PeerClosed();

  void Close();

 private:
  int fd_ = -1;
};

// A bound, listening socket.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds `host:port` (port 0 picks a free port — port() reports the
  // real one) and listens. IoError on bind/listen failure (port in use,
  // bad host); the message names the address.
  static Result<TcpListener> Bind(const std::string& host, int port,
                                  int backlog = 128);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }

  // Waits up to `timeout_ms` for a connection; an invalid TcpSocket
  // means the wait timed out (callers poll a stop flag between waits).
  Result<TcpSocket> Accept(int timeout_ms);

  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

// Client-side connect with a millisecond deadline, for tests, benches,
// and future fleet tooling.
Result<TcpSocket> TcpConnect(const std::string& host, int port,
                             int timeout_ms);

// Half-closes the read side of an fd owned elsewhere (::shutdown SHUT_RD).
// The server's Stop() uses this on in-flight connections it tracks only by
// fd: a thread blocked in Read() observes EOF, while writes still flush,
// so a response being drained is not cut off mid-body. No-op for invalid
// fds.
void ShutdownReadFd(int fd);

}  // namespace granula

#endif  // GRANULA_COMMON_SOCKET_H_
