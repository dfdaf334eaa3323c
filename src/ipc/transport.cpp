#include "ipc/transport.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dasc::ipc {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Write `head` then `body` whole with gathered sendmsg calls, riding out
/// EINTR and partial writes. MSG_NOSIGNAL turns a dead peer into EPIPE
/// instead of a process-killing SIGPIPE.
void send_all(int fd, std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  iovec* next = iov;
  std::size_t count = 2;
  while (count > 0) {
    if (next->iov_len == 0) {
      ++next;
      --count;
      continue;
    }
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_text("ipc: send failed"));
    }
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
}

/// Read exactly `size` bytes. Returns the bytes actually read before EOF,
/// so the caller can distinguish clean EOF (0) from truncation (0 < n <
/// size). Hard read errors throw.
std::size_t recv_up_to(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_text("ipc: recv failed"));
    }
    if (n == 0) break;  // peer closed
    got += static_cast<std::size_t>(n);
  }
  return got;
}

void fill_unix_addr(sockaddr_un& addr, const std::string& path) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  DASC_EXPECT(path.size() < sizeof(addr.sun_path),
              "ipc: AF_UNIX socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

}  // namespace

std::pair<int, int> make_socketpair() {
  int fds[2];
  // CLOEXEC: a later exec'd worker must not inherit these ends — a held
  // copy of a sibling's socket would mask that sibling's death from the
  // supervisor's EOF detection. Forked workers close unused ends by hand.
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw IoError(errno_text("ipc: socketpair failed"));
  }
  return {fds[0], fds[1]};
}

Transport::Transport(int fd, MetricsRegistry* metrics)
    : fd_(fd), metrics_(metrics) {
  DASC_EXPECT(fd >= 0, "ipc: Transport needs a valid fd");
}

Transport::~Transport() { close(); }

void Transport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Transport::shutdown_rw() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<Transport> Transport::connect(const std::string& path,
                                              MetricsRegistry* metrics) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(errno_text("ipc: socket failed"));
  sockaddr_un addr;
  fill_unix_addr(addr, path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw IoError(errno_text("ipc: connect to " + path + " failed"));
  }
  return std::make_unique<Transport>(fd, metrics);
}

void Transport::send(const Message& message) {
  const std::array<char, kFrameHeaderBytes> header =
      encode_frame_header(message);
  {
    std::lock_guard lock(send_mutex_);
    if (fd_ < 0) throw IoError("ipc: send on closed transport");
    send_all(fd_, std::string_view(header.data(), header.size()),
             message.payload);
  }
  // Heartbeats are liveness, not traffic: their number depends on how
  // long tasks run, so they stay out of the byte and message counts
  // (the supervisor counts them as worker.heartbeats).
  if (metrics_ != nullptr && message.type != MessageType::kHeartbeat) {
    metrics_->counter("ipc.messages_sent").add();
    metrics_->gauge("ipc.bytes_sent")
        .add(static_cast<std::int64_t>(header.size() +
                                       message.payload.size()));
  }
}

std::optional<Message> Transport::recv() {
  if (fd_ < 0) throw IoError("ipc: recv on closed transport");
  char header[kFrameHeaderBytes];
  std::size_t header_got = 0;
  {
    ScopedTimer wait(metrics_, "ipc.recv_wait");
    header_got = recv_up_to(fd_, header, kFrameHeaderBytes);
  }
  if (header_got == 0) return std::nullopt;  // clean EOF between frames
  if (header_got < kFrameHeaderBytes) {
    throw IoError("ipc: truncated frame header (peer died mid-frame)");
  }
  const FrameHeader parsed =
      parse_frame_header(std::string_view(header, kFrameHeaderBytes));

  Message message;
  message.type = parsed.type;
  message.payload.resize(parsed.payload_bytes);
  if (parsed.payload_bytes > 0) {
    const std::size_t got =
        recv_up_to(fd_, message.payload.data(), parsed.payload_bytes);
    if (got < parsed.payload_bytes) {
      throw IoError("ipc: truncated frame payload (peer died mid-frame)");
    }
  }
  verify_frame_payload(parsed, message.payload);
  if (metrics_ != nullptr && message.type != MessageType::kHeartbeat) {
    metrics_->counter("ipc.messages_received").add();
    metrics_->gauge("ipc.bytes_received")
        .add(static_cast<std::int64_t>(kFrameHeaderBytes +
                                       message.payload.size()));
  }
  return message;
}

Listener::Listener(const std::string& path) : path_(path) {
  ::unlink(path.c_str());  // a stale socket from a crashed run is not ours
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw IoError(errno_text("ipc: socket failed"));
  sockaddr_un addr;
  fill_unix_addr(addr, path_);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError(errno_text("ipc: bind to " + path_ + " failed"));
  }
  if (::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError(errno_text("ipc: listen on " + path_ + " failed"));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError(errno_text("ipc: eventfd for " + path_ + " failed"));
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  ::unlink(path_.c_str());
}

void Listener::wake() {
  const std::uint64_t one = 1;
  // Never read back, so the eventfd stays readable: a wake before the
  // acceptor reaches poll is not lost. EAGAIN (counter at its maximum)
  // leaves it readable too.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::unique_ptr<Transport> Listener::accept(std::size_t timeout_ms,
                                            MetricsRegistry* metrics) {
  std::unique_ptr<Transport> accepted = try_accept(timeout_ms, metrics);
  if (accepted == nullptr) {
    throw IoError("ipc: timed out waiting for a worker to connect to " +
                  path_);
  }
  return accepted;
}

std::unique_ptr<Transport> Listener::try_accept(std::size_t timeout_ms,
                                                MetricsRegistry* metrics) {
  pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
  const int timeout =
      timeout_ms == kNoTimeout ? -1 : static_cast<int>(timeout_ms);
  while (true) {
    const int ready = ::poll(pfds, 2, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_text("ipc: poll on listener failed"));
    }
    if (ready == 0 || pfds[1].revents != 0) return nullptr;
    break;
  }
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) throw IoError(errno_text("ipc: accept failed"));
  return std::make_unique<Transport>(fd, metrics);
}

}  // namespace dasc::ipc
