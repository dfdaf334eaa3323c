// Chunked streaming tests (ipc/stream.hpp): round trips across chunk
// boundaries under randomized sizes and windows, zero-length and
// single-chunk payloads staying plain frames, mid-stream peer death as a
// typed IoError, per-chunk and whole-payload tamper detection, chunk
// sequencing, interloper routing, flow-control credit validation, and the
// adaptive-config differential: payload-derived framing must be
// byte-identical to fixed framing in every endpoint pairing, with tamper
// detection intact.
#include "ipc/stream.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "ipc/transport.hpp"

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

std::string random_payload(Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.uniform_index(256));  // embedded NULs welcome
  }
  return bytes;
}

/// Round-trip one message through send_message/recv_message with a
/// concurrent sender (the sender blocks for window credit, so the
/// receiver must run at the same time — exactly the production shape).
void round_trip(const Message& message, const StreamConfig& config) {
  Pair pair;
  std::thread sender(
      [&] { send_message(*pair.left, message, config); });
  const std::optional<Message> received =
      recv_message(*pair.right, config);
  sender.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, message.type);
  EXPECT_EQ(received->payload, message.payload);
}

TEST(Stream, LargePayloadRoundTripsInChunks) {
  Rng rng(0x57E0);
  const StreamConfig config{/*chunk_bytes=*/64, /*window_chunks=*/2};
  // Sizes straddling every boundary: one byte over a chunk, exact
  // multiples, a partial tail, and far more chunks than the window.
  for (const std::size_t size : {65ul, 128ul, 129ul, 1000ul, 64ul * 40}) {
    Message message{MessageType::kFetchData, random_payload(rng, size)};
    round_trip(message, config);
  }
}

TEST(Stream, ZeroLengthAndSingleChunkPayloadsShipAsPlainFrames) {
  const StreamConfig config{/*chunk_bytes=*/64, /*window_chunks=*/2};
  for (const std::size_t size : {0ul, 1ul, 63ul, 64ul}) {
    Pair pair;
    Message message{MessageType::kMapDone, std::string(size, 'x')};
    send_message(*pair.left, message, config);
    // Observe the wire directly: at or under chunk_bytes there is no
    // chunking — one frame of the final type, never kDataChunk.
    const auto raw = pair.right->recv();
    ASSERT_TRUE(raw.has_value()) << "size=" << size;
    EXPECT_EQ(raw->type, MessageType::kMapDone);
    EXPECT_EQ(raw->payload, message.payload);
  }
}

TEST(Stream, RandomSizesChunkSizesAndWindowsRoundTrip) {
  Rng rng(0xD15C);
  for (int round = 0; round < 30; ++round) {
    const StreamConfig config{1 + rng.uniform_index(256),
                              1 + rng.uniform_index(5)};
    const std::size_t size = rng.uniform_index(1500);
    Message message{MessageType::kReducePullDone,
                    random_payload(rng, size)};
    round_trip(message, config);
  }
}

TEST(Stream, PeerDeathMidStreamIsIoError) {
  Pair pair;
  // One chunk of a declared-larger stream, then the peer vanishes: the
  // receiver must get the typed mid-stream error, never a short payload.
  pair.left->send(encode_chunk(MessageType::kFetchData, /*total_bytes=*/100,
                               /*chunk_index=*/0, "first 32 bytes..."));
  pair.left->close();
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, OutOfSequenceChunkIsIoError) {
  Pair pair;
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 0, "chunk zero"));
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 2, "chunk two?"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, InconsistentChunkHeaderIsIoError) {
  Pair pair;
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 0, "total=100"));
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 200, 1, "total=200"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, ChunksExceedingDeclaredTotalAreIoError) {
  Pair pair;
  pair.left->send(encode_chunk(MessageType::kFetchData, /*total_bytes=*/4,
                               0, "way more than four bytes"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, OversizedStreamDeclarationIsIoError) {
  Pair pair;
  // Above the 4 GiB stream cap: rejected from the first chunk header,
  // before any allocation approaches the declared size.
  pair.left->send(encode_chunk(MessageType::kFetchData,
                               (std::uint64_t{1} << 32) + 1, 0, "x"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, TamperedTrailerCrcIsIoError) {
  Pair pair;
  const std::string payload = "reassembled payload under test";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    /*chunk_count=*/1,
                                    crc32(payload) ^ 0x1));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, WrongTrailerChunkCountIsIoError) {
  Pair pair;
  const std::string payload = "one chunk, trailer claims two";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    /*chunk_count=*/2, crc32(payload)));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, ShortPayloadAtTrailerIsIoError) {
  Pair pair;
  const std::string payload = "only half arrives";
  pair.left->send(encode_chunk(MessageType::kFetchData,
                               /*total_bytes=*/payload.size() * 2, 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData,
                                    payload.size() * 2, 1, crc32(payload)));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, BareHeartbeatMidStreamIsSkipped) {
  Pair pair;
  const std::string payload = "heartbeats may interleave";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send({MessageType::kHeartbeat, {}});
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    1, crc32(payload)));
  const auto received = recv_message(*pair.right);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, payload);
}

TEST(Stream, InterloperReceivesUnrelatedMidStreamFrames) {
  Pair pair;
  const std::string payload = "interloper drains protocol frames";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send({MessageType::kPullFailed, "unrelated"});
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    1, crc32(payload)));
  std::vector<Message> seen;
  const auto received = recv_message(
      *pair.right, {}, [&](const Message& m) { seen.push_back(m); });
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, payload);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, MessageType::kPullFailed);
  EXPECT_EQ(seen[0].payload, "unrelated");
}

TEST(Stream, UnexpectedFrameMidStreamWithoutInterloperIsIoError) {
  Pair pair;
  pair.left->send(encode_chunk(MessageType::kFetchData, 100, 0, "opening"));
  pair.left->send({MessageType::kMapAssign, "real protocol traffic"});
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, PlainFramesPassThroughUntouched) {
  Pair pair;
  pair.left->send({MessageType::kPullResume, "not a chunk"});
  const auto received = recv_message(*pair.right);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, MessageType::kPullResume);
  EXPECT_EQ(received->payload, "not a chunk");
}

TEST(Stream, OutOfSequenceCreditIsIoErrorAtTheSender) {
  Pair pair;
  // window=1: the sender blocks for credit after its first chunk. A bogus
  // ack (acked=0, i.e. no forward progress) must be the typed error.
  const StreamConfig config{/*chunk_bytes=*/4, /*window_chunks=*/1};
  Message message{MessageType::kFetchData, std::string(64, 'z')};
  std::atomic<bool> threw{false};
  std::thread sender([&] {
    try {
      send_message(*pair.left, message, config);
    } catch (const IoError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(pair.right->recv().has_value());  // chunk 0 arrives
  WireWriter bogus;
  bogus.u64(0);
  pair.right->send({MessageType::kChunkAck, bogus.take()});
  sender.join();
  EXPECT_TRUE(threw);
}

TEST(Stream, StreamShorterThanTheWindowLeavesNoCreditUnread) {
  // 1.5 MiB adaptive: 6 chunks of 256 KiB under a sender window of 16, so
  // the sender never fills its window, while the receiver acks every 4.
  // The reply that follows on the same socket must be the reply — not a
  // leftover kChunkAck that a window-only credit read would leave behind.
  Pair pair;
  const StreamConfig adaptive = adaptive_stream_config();
  const Message request{MessageType::kMapAssign,
                        std::string(1536 * 1024, 'r')};
  ASSERT_EQ(derived_stream_config(request.payload.size()).window_chunks, 16u);
  std::thread receiver([&] {
    const auto received = recv_message(*pair.right, adaptive);
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->payload, request.payload);
    pair.right->send({MessageType::kMapDone, "reply"});
  });
  send_message(*pair.left, request, adaptive);
  const auto reply = recv_message(*pair.left, adaptive);
  receiver.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kMapDone);
  EXPECT_EQ(reply->payload, "reply");
}

TEST(Stream, SenderSeesPeerDeathWhileAwaitingCredit) {
  Pair pair;
  const StreamConfig config{/*chunk_bytes=*/4, /*window_chunks=*/1};
  Message message{MessageType::kFetchData, std::string(64, 'z')};
  std::atomic<bool> threw{false};
  std::thread sender([&] {
    try {
      send_message(*pair.left, message, config);
    } catch (const IoError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(pair.right->recv().has_value());  // chunk 0 arrives
  pair.right->close();  // peer dies instead of granting credit
  sender.join();
  EXPECT_TRUE(threw);
}

// --- Adaptive framing (derived_stream_config; DESIGN.md section 15) ---

TEST(Stream, DerivedConfigStaysWithinItsDocumentedBounds) {
  // Pure and deterministic over the whole size range: chunks 64 KiB-
  // aligned within [256 KiB, 4 MiB], windows within [4, 16], and both ends
  // derive identical values from the same declared size.
  const std::uint64_t kKi = 1024;
  for (const std::uint64_t bytes :
       {std::uint64_t{0}, std::uint64_t{1}, 4 * kKi, 256 * kKi,
        16 * kKi * kKi, 64 * kKi * kKi, 256 * kKi * kKi,
        std::uint64_t{4} * kKi * kKi * kKi}) {
    const StreamConfig derived = derived_stream_config(bytes);
    EXPECT_GE(derived.chunk_bytes, 256 * kKi) << "bytes=" << bytes;
    EXPECT_LE(derived.chunk_bytes, 4 * kKi * kKi) << "bytes=" << bytes;
    EXPECT_EQ(derived.chunk_bytes % (64 * kKi), 0u) << "bytes=" << bytes;
    EXPECT_GE(derived.window_chunks, 4u) << "bytes=" << bytes;
    EXPECT_LE(derived.window_chunks, 16u) << "bytes=" << bytes;
    EXPECT_FALSE(derived.adaptive);  // already resolved
    const StreamConfig again = derived_stream_config(bytes);
    EXPECT_EQ(derived.chunk_bytes, again.chunk_bytes);
    EXPECT_EQ(derived.window_chunks, again.window_chunks);
  }
  // Small payloads keep the historical framing exactly.
  EXPECT_EQ(derived_stream_config(0).chunk_bytes, StreamConfig{}.chunk_bytes);
  // The window floor equals the fixed default: the fact that makes mixed
  // adaptive/fixed pairings deadlock-free (the receiver's ack cadence can
  // never exceed any sender's window).
  EXPECT_EQ(derived_stream_config(std::uint64_t{1} << 32).window_chunks,
            StreamConfig{}.window_chunks);
}

/// Round-trips `message` with independent sender/receiver configs and
/// returns the received payload (so callers can diff pairings).
std::string round_trip_mixed(const Message& message,
                             const StreamConfig& send_config,
                             const StreamConfig& recv_config) {
  Pair pair;
  std::thread sender(
      [&] { send_message(*pair.left, message, send_config); });
  const std::optional<Message> received =
      recv_message(*pair.right, recv_config);
  sender.join();
  EXPECT_TRUE(received.has_value());
  EXPECT_EQ(received->type, message.type);
  return received.has_value() ? received->payload : std::string();
}

TEST(Stream, AdaptiveFramingIsByteIdenticalToFixedInEveryPairing) {
  // Differential across the boundary sizes the derivation cares about:
  // empty, one byte, a page boundary +/- 1, the default chunk size +/- 1
  // (the plain-frame/stream crossover), and a payload big enough that the
  // derived chunk leaves the 256 KiB floor (1 MiB chunks, window 8).
  const std::size_t kPage = 4096;
  const std::size_t kChunk = 256 * 1024;
  const std::size_t kBig = 64ul * 1024 * 1024;
  const StreamConfig fixed;  // the historical defaults
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, kPage - 1, kPage, kPage + 1,
        kChunk - 1, kChunk, kChunk + 1, kBig}) {
    // Deterministic non-trivial bytes; cheap enough for the 64 MiB case.
    std::string payload(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>((i * 2654435761u) >> 24);
    }
    const Message message{MessageType::kFetchData, std::move(payload)};
    const std::string via_fixed =
        round_trip_mixed(message, fixed, fixed);
    ASSERT_EQ(via_fixed, message.payload) << "size=" << size;
    // Adaptive on both ends, and each mixed pairing: all byte-identical.
    EXPECT_EQ(round_trip_mixed(message, adaptive_stream_config(),
                               adaptive_stream_config()),
              via_fixed)
        << "size=" << size;
    EXPECT_EQ(round_trip_mixed(message, adaptive_stream_config(), fixed),
              via_fixed)
        << "size=" << size;
    EXPECT_EQ(round_trip_mixed(message, fixed, adaptive_stream_config()),
              via_fixed)
        << "size=" << size;
  }
}

TEST(Stream, AdaptiveReceiverStillFailsTamperedStreamsTyped) {
  const StreamConfig adaptive = adaptive_stream_config();
  {  // whole-payload CRC tamper
    Pair pair;
    const std::string payload = "adaptive receiver, tampered trailer";
    pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                                 payload));
    pair.left->send(encode_stream_end(MessageType::kFetchData,
                                      payload.size(), 1,
                                      crc32(payload) ^ 0x1));
    EXPECT_THROW(recv_message(*pair.right, adaptive), IoError);
  }
  {  // peer death mid-stream
    Pair pair;
    pair.left->send(encode_chunk(MessageType::kFetchData, 100, 0, "opening"));
    pair.left->close();
    EXPECT_THROW(recv_message(*pair.right, adaptive), IoError);
  }
  {  // out-of-sequence chunk
    Pair pair;
    pair.left->send(encode_chunk(MessageType::kFetchData, 100, 0, "zero"));
    pair.left->send(encode_chunk(MessageType::kFetchData, 100, 2, "two?"));
    EXPECT_THROW(recv_message(*pair.right, adaptive), IoError);
  }
  {  // oversized declaration still rejected before allocation
    Pair pair;
    pair.left->send(encode_chunk(MessageType::kFetchData,
                                 (std::uint64_t{1} << 32) + 1, 0, "x"));
    EXPECT_THROW(recv_message(*pair.right, adaptive), IoError);
  }
}

}  // namespace
}  // namespace dasc::ipc
