// Transport framing tests: round trips (up to a frame far larger than the
// socket buffer), every malformed-frame class as a typed dasc::IoError,
// listener accept/connect, and the supervisor's spool sweep (DESIGN.md
// section 13).
#include "ipc/transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/spool.hpp"
#include "ipc/message.hpp"
#include "ipc/worker_supervisor.hpp"

namespace dasc::ipc {
namespace {

/// A connected transport pair over a socketpair.
struct Pair {
  Pair() {
    const auto [a, b] = make_socketpair();
    left = std::make_unique<Transport>(a);
    right = std::make_unique<Transport>(b);
  }
  std::unique_ptr<Transport> left;
  std::unique_ptr<Transport> right;
};

/// Write raw bytes to the peer's socket, bypassing Message framing. Loops
/// over partial writes, so a caller writing more than the socket buffer
/// holds needs a concurrent reader.
void send_raw(Transport& transport, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(transport.fd(), bytes.data() + written,
                              bytes.size() - written);
    ASSERT_GT(n, 0);
    written += static_cast<std::size_t>(n);
  }
}

/// 8 MiB of random bytes (embedded NULs included): one frame many times
/// larger than an AF_UNIX socket buffer.
std::string large_payload() {
  Rng rng(21);
  std::string bytes(std::size_t{8} << 20, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_index(256));
  return bytes;
}

/// Send `out` from one end of a fresh pair and return what the other end
/// receives. The sender blocks once the socket buffer is full, so the
/// reader runs concurrently, as it does between a worker and its supervisor.
std::optional<Message> round_trip(const Message& out) {
  Pair pair;
  std::thread sender([&] { EXPECT_NO_THROW(pair.left->send(out)); });
  std::optional<Message> in;
  EXPECT_NO_THROW(in = pair.right->recv());
  if (!in.has_value()) pair.right->shutdown_rw();  // unblock the sender
  sender.join();
  return in;
}

TEST(Transport, RoundTripsMessages) {
  WireWriter writer;
  writer.u64(7);
  writer.record("key", "value");
  writer.record("", "");  // empty key/value frames fine
  const Message out{MessageType::kMapAssign, writer.take()};
  const auto in = round_trip(out);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->type, out.type);
  EXPECT_EQ(in->payload, out.payload);

  WireReader reader(in->payload);
  EXPECT_EQ(reader.u64(), 7u);
  const auto [key, value] = reader.record();
  EXPECT_EQ(key, "key");
  EXPECT_EQ(value, "value");
  const auto [key2, value2] = reader.record();
  EXPECT_TRUE(key2.empty());
  EXPECT_TRUE(value2.empty());
  EXPECT_TRUE(reader.done());
}

TEST(Transport, LargePayloadRoundTripsAsOneFrame) {
  // A reply many times the socket buffer travels as a single frame.
  const Message out{MessageType::kReducePullDone, large_payload()};
  const auto in = round_trip(out);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->type, out.type);
  EXPECT_TRUE(in->payload == out.payload);  // no 8 MiB diff on failure
}

TEST(Transport, EmptyPayloadRoundTrips) {
  Pair pair;
  pair.left->send({MessageType::kHeartbeat, {}});
  const auto in = pair.right->recv();
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->type, MessageType::kHeartbeat);
  EXPECT_TRUE(in->payload.empty());
}

TEST(Transport, CleanEofAtFrameBoundaryIsNullopt) {
  Pair pair;
  pair.left->send({MessageType::kShutdown, {}});
  pair.left->close();
  EXPECT_TRUE(pair.right->recv().has_value());  // the shutdown frame
  EXPECT_FALSE(pair.right->recv().has_value());  // then clean EOF
}

TEST(Transport, TruncatedHeaderIsIoError) {
  Pair pair;
  send_raw(*pair.left, std::string(kFrameHeaderBytes / 2, 'x'));
  pair.left->close();
  EXPECT_THROW(pair.right->recv(), IoError);
}

TEST(Transport, TruncatedPayloadIsIoError) {
  Pair pair;
  const std::string frame =
      encode_frame({MessageType::kFetchData, "some payload bytes"});
  send_raw(*pair.left, frame.substr(0, frame.size() - 4));
  pair.left->close();
  EXPECT_THROW(pair.right->recv(), IoError);
}

TEST(Transport, LargeFrameTruncatedMidPayloadIsIoError) {
  // A peer that dies halfway through a frame larger than the socket buffer:
  // the reader has taken part of the payload when EOF arrives.
  Pair pair;
  const std::string frame =
      encode_frame({MessageType::kReducePullDone, large_payload()});
  std::thread writer([&] {
    send_raw(*pair.left, frame.substr(0, frame.size() / 2));
    pair.left->close();
  });
  EXPECT_THROW(pair.right->recv(), IoError);
  pair.right->shutdown_rw();  // never leave the writer blocked
  writer.join();
}

TEST(Transport, BadMagicIsIoError) {
  Pair pair;
  std::string frame = encode_frame({MessageType::kHello, "payload"});
  frame[0] = 'X';
  send_raw(*pair.left, frame);
  EXPECT_THROW(pair.right->recv(), IoError);
}

TEST(Transport, CrcTamperIsIoError) {
  Pair pair;
  std::string frame = encode_frame({MessageType::kFetchData, "records..."});
  frame[kFrameHeaderBytes] =
      static_cast<char>(frame[kFrameHeaderBytes] ^ 0x1);  // flip payload byte
  send_raw(*pair.left, frame);
  EXPECT_THROW(pair.right->recv(), IoError);
}

TEST(Transport, OversizedDeclaredLengthIsIoError) {
  Pair pair;
  // Hand-build a header that declares a payload beyond kMaxPayloadBytes;
  // the receiver must reject it from the header alone (never allocating).
  std::string header(kFrameHeaderBytes, '\0');
  std::memcpy(header.data(), kFrameMagic.data(), 4);
  const std::uint32_t type = 5;
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  std::memcpy(header.data() + 4, &type, 4);
  std::memcpy(header.data() + 8, &huge, 4);
  send_raw(*pair.left, header);
  EXPECT_THROW(pair.right->recv(), IoError);
}

TEST(Transport, OversizedSendIsInvalidArgument) {
  Message message;
  message.type = MessageType::kFetchData;
  EXPECT_THROW(
      {
        // encode_frame validates before any socket is involved.
        message.payload.resize(kMaxPayloadBytes + 1);
        encode_frame(message);
      },
      InvalidArgument);
}

TEST(Transport, CountsTrafficInMetrics) {
  MetricsRegistry registry;
  const auto [a, b] = make_socketpair();
  Transport left(a, &registry);
  Transport right(b, &registry);
  left.send({MessageType::kHello, "payload"});
  ASSERT_TRUE(right.recv().has_value());
  EXPECT_EQ(registry.counter_value("ipc.messages_sent"), 1);
  EXPECT_EQ(registry.counter_value("ipc.messages_received"), 1);
  EXPECT_EQ(registry.gauge_value("ipc.bytes_sent"),
            static_cast<std::int64_t>(kFrameHeaderBytes + 7));
  EXPECT_EQ(registry.gauge_value("ipc.bytes_received"),
            static_cast<std::int64_t>(kFrameHeaderBytes + 7));

  // A heartbeat sent and received leaves all four values unchanged: how
  // many a job sends depends on task duration, not on the job.
  left.send({MessageType::kHeartbeat, ""});
  const auto beat = right.recv();
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->type, MessageType::kHeartbeat);
  EXPECT_EQ(registry.counter_value("ipc.messages_sent"), 1);
  EXPECT_EQ(registry.counter_value("ipc.messages_received"), 1);
  EXPECT_EQ(registry.gauge_value("ipc.bytes_sent"),
            static_cast<std::int64_t>(kFrameHeaderBytes + 7));
  EXPECT_EQ(registry.gauge_value("ipc.bytes_received"),
            static_cast<std::int64_t>(kFrameHeaderBytes + 7));
}

TEST(Listener, AcceptsAConnection) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dasc-test-listener-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Listener listener(path);
  std::thread client([&] {
    const auto transport = Transport::connect(path);
    transport->send({MessageType::kHello, "hi"});
  });
  const auto accepted = listener.accept(/*timeout_ms=*/5000);
  const auto hello = accepted->recv();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->payload, "hi");
  client.join();
  EXPECT_FALSE(std::filesystem::exists(path + ".nope"));
}

TEST(Listener, AcceptTimesOutAsIoError) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dasc-test-timeout-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Listener listener(path);
  EXPECT_THROW(listener.accept(/*timeout_ms=*/10), IoError);
}

TEST(Listener, WakeEndsAnAcceptWaitingOnAnotherThread) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dasc-test-wake-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Listener listener(path);
  // A peer that dials before the wake is still accepted.
  const auto early = Transport::connect(path);
  EXPECT_NE(listener.try_accept(Listener::kNoTimeout), nullptr);

  std::atomic<bool> woken{false};
  std::thread acceptor([&] {
    woken = listener.try_accept(Listener::kNoTimeout) == nullptr;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.wake();
  acceptor.join();
  EXPECT_TRUE(woken.load());
  // The wake stays: a later wait returns at once, with a peer pending too.
  const auto late = Transport::connect(path);
  EXPECT_EQ(listener.try_accept(Listener::kNoTimeout), nullptr);
}

TEST(SweepSpoolFiles, RemovesOnlyTheDeadWorkersFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dasc-test-sweep-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const long dead_pid = 123456;
  const auto touch = [&](const std::string& name) {
    std::ofstream(dir / name) << "x";
  };
  touch("dasc-spool-123456-0.spl");
  touch("dasc-spool-123456-17.spl");
  touch("dasc-spool-999-0.spl");     // someone else's spool
  touch("dasc-spool-123456-0.tmp");  // wrong suffix
  touch("unrelated.txt");

  EXPECT_EQ(sweep_spool_files(dir.string(), dead_pid), 2u);
  EXPECT_FALSE(fs::exists(dir / "dasc-spool-123456-0.spl"));
  EXPECT_FALSE(fs::exists(dir / "dasc-spool-123456-17.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-999-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-123456-0.tmp"));
  EXPECT_TRUE(fs::exists(dir / "unrelated.txt"));
  EXPECT_EQ(sweep_spool_files(dir.string(), dead_pid), 0u);  // idempotent
  fs::remove_all(dir);
}

TEST(SweepSpoolFiles, PidIsMatchedWholeNotAsAPrefix) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dasc-test-sweep-pid-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto touch = [&](const std::string& name) {
    std::ofstream(dir / name) << "x";
  };
  // Pid 123 dies; files of pids 1234 and 12 — and malformed middles that
  // merely contain "123" — must survive a sweep for 123.
  touch("dasc-spool-123-0.spl");
  touch("dasc-spool-1234-0.spl");
  touch("dasc-spool-12-0.spl");
  touch("dasc-spool-123x-0.spl");
  touch("dasc-spool-x123-0.spl");
  touch("dasc-spool--123-0.spl");

  EXPECT_EQ(sweep_spool_files(dir.string(), 123), 1u);
  EXPECT_FALSE(fs::exists(dir / "dasc-spool-123-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-1234-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-12-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-123x-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool-x123-0.spl"));
  EXPECT_TRUE(fs::exists(dir / "dasc-spool--123-0.spl"));
  fs::remove_all(dir);
}

TEST(SweepSpoolFiles, LiveSpoolSurvivesSweepingAnotherPid) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dasc-test-sweep-live-" + std::to_string(::getpid()));
  fs::create_directories(dir);

  // A live spool with everything spilled (budget 0), then a sweep for a
  // different dead pid: the spool's pages must still read back intact
  // (its file is unlinked-at-creation, so no sweep can ever reach it).
  SpoolConfig config;
  config.dir = dir.string();
  config.budget_bytes = 0;
  config.page_bytes = 64;
  SpoolBuffer spool(config);
  for (int i = 0; i < 100; ++i) {
    spool.append("key" + std::to_string(i % 7), "value" + std::to_string(i));
  }
  spool.finish();
  ASSERT_GE(spool.pages_spilled(), 1u);

  std::ofstream(dir / "dasc-spool-424242-0.spl") << "x";
  EXPECT_EQ(sweep_spool_files(dir.string(), 424242), 1u);

  std::size_t seen = 0;
  std::string last_key;
  spool.for_each_sorted([&](std::string_view key, std::string_view value) {
    EXPECT_GE(key, last_key);  // still globally sorted
    EXPECT_FALSE(value.empty());
    last_key.assign(key);
    ++seen;
  });
  EXPECT_EQ(seen, 100u);
  fs::remove_all(dir);
}

TEST(WireReader, TruncatedPayloadReadsAreIoError) {
  WireWriter writer;
  writer.u32(7);
  const std::string payload = writer.take();
  {
    WireReader reader(payload);
    EXPECT_THROW(reader.u64(), IoError);  // only 4 bytes present
  }
  {
    WireReader reader(payload);
    EXPECT_THROW(reader.bytes(), IoError);  // length 7 > remaining 0
  }
}

}  // namespace
}  // namespace dasc::ipc
