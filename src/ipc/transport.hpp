// Blocking message transport over a local stream socket.
//
// A Transport owns one connected socket fd and moves whole frames
// (ipc/message.hpp) across it:
//
//   send()  -- writes the frame header and the payload in place with
//              gathered sendmsg calls (no frame copy). Serialized by an
//              internal mutex so a worker's serve loop and its heartbeat
//              thread can share one transport. SIGPIPE is suppressed
//              (MSG_NOSIGNAL); a peer that vanished mid-write is a typed
//              IoError.
//   recv()  -- blocks for the next frame. Clean EOF *at a frame boundary*
//              returns nullopt (the peer closed deliberately or died
//              idle); EOF mid-header or mid-payload, bad magic, an
//              oversized declared length, and CRC mismatch all throw
//              IoError. recv() is NOT internally serialized: exactly one
//              logical reader at a time is the caller's contract (the
//              supervisor's per-worker exchange mutex enforces it).
//
// Workers connect either by inheriting one end of a socketpair() across
// fork (make_socketpair + Transport(fd)) or, for exec'd worker binaries,
// by connecting to a Listener's AF_UNIX path (Transport::connect).
//
// Metrics (null-safe): counters `ipc.messages_sent` /
// `ipc.messages_received`, gauges `ipc.bytes_sent` / `ipc.bytes_received`
// (byte traffic accumulates like the spill gauges), timer `ipc.recv_wait`
// (time blocked waiting for a frame). kHeartbeat frames count in none of
// the four: how many a job sends depends on how long its tasks run, not on
// the job (the supervisor's `worker.heartbeats` counts them).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "ipc/message.hpp"

namespace dasc {
class MetricsRegistry;
}  // namespace dasc

namespace dasc::ipc {

/// AF_UNIX SOCK_STREAM socketpair; returns {parent_fd, child_fd}. Throws
/// IoError on failure. Both fds are inherited across fork(); each side
/// closes the end it does not use.
std::pair<int, int> make_socketpair();

class Transport {
 public:
  /// Take ownership of a connected stream-socket fd.
  explicit Transport(int fd, MetricsRegistry* metrics = nullptr);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Connect to a Listener's AF_UNIX path (exec-mode workers).
  static std::unique_ptr<Transport> connect(const std::string& path,
                                            MetricsRegistry* metrics = nullptr);

  /// Frame and write one message; thread-safe. Throws IoError when the
  /// peer is gone or the write fails.
  void send(const Message& message);

  /// Block for the next frame. nullopt on clean EOF at a frame boundary;
  /// IoError on truncation, bad magic, oversized length, or CRC mismatch.
  /// Single logical reader only (see file comment).
  std::optional<Message> recv();

  int fd() const { return fd_; }
  /// Close the socket now (recv on the peer sees EOF). Idempotent.
  void close();
  /// shutdown(2) both directions without closing the fd: a thread blocked
  /// in recv() on this transport wakes with EOF, and later sends fail as
  /// typed IoError. Safe to call from another thread while recv() blocks —
  /// which close() is not (fd reuse) — so this is how the worker data
  /// plane unblocks its per-peer serving threads at shutdown. Idempotent.
  void shutdown_rw();

 private:
  int fd_ = -1;
  std::mutex send_mutex_;
  MetricsRegistry* metrics_ = nullptr;
};

/// AF_UNIX listening socket bound to `path` (unlinked on destruction).
/// Used by the supervisor to accept exec-mode worker connections.
class Listener {
 public:
  explicit Listener(const std::string& path);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection, waiting up to `timeout_ms` (a worker that
  /// never connects is a typed IoError, not a hang).
  std::unique_ptr<Transport> accept(std::size_t timeout_ms = 10000,
                                    MetricsRegistry* metrics = nullptr);

  /// Accept one connection, or return nullptr after `timeout_ms` with no
  /// pending peer (kNoTimeout waits indefinitely) or once wake() has been
  /// called.
  std::unique_ptr<Transport> try_accept(std::size_t timeout_ms,
                                        MetricsRegistry* metrics = nullptr);

  /// Makes every try_accept, current or later, return nullptr at once.
  /// Safe to call from another thread while try_accept waits: this is how
  /// a worker's data plane stops its acceptor without a polling period.
  void wake();

  static constexpr std::size_t kNoTimeout = static_cast<std::size_t>(-1);

  const std::string& path() const { return path_; }
  int fd() const { return fd_; }

 private:
  std::string path_;
  int fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd, readable once wake() ran
};

}  // namespace dasc::ipc
