#include "ipc/stream.hpp"

#include <algorithm>
#include <string>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "ipc/transport.hpp"

namespace dasc::ipc {

namespace {

/// Hard cap on a reassembled stream: a corrupted kDataChunk header must
/// never drive an unbounded allocation, but a stream may legitimately
/// exceed the single-frame kMaxPayloadBytes (that is its purpose).
constexpr std::uint64_t kMaxStreamBytes = std::uint64_t{1} << 32;

/// Route a frame that is not part of the protocol step in progress:
/// through the interloper when one is given, silently for bare
/// heartbeats, IoError otherwise (a stream must never absorb real
/// protocol traffic).
void route_interloper(const Message& message,
                      const std::function<void(const Message&)>& interloper,
                      const char* where) {
  if (interloper != nullptr) {
    interloper(message);
    return;
  }
  if (message.type == MessageType::kHeartbeat) return;
  throw IoError(std::string("ipc: unexpected frame type ") +
                std::to_string(static_cast<std::uint32_t>(message.type)) +
                " " + where);
}

}  // namespace

StreamConfig derived_stream_config(std::uint64_t payload_bytes) {
  constexpr std::uint64_t kAlignBytes = 64 * 1024;
  constexpr std::uint64_t kMinChunkBytes = 256 * 1024;
  constexpr std::uint64_t kMaxChunkBytes = 4 * 1024 * 1024;
  constexpr std::uint64_t kInflightTargetBytes = 8 * 1024 * 1024;
  constexpr std::uint64_t kMinWindow = 4;  // == StreamConfig{}.window_chunks
  constexpr std::uint64_t kMaxWindow = 16;

  std::uint64_t chunk = payload_bytes / 64;
  chunk = ((chunk + kAlignBytes - 1) / kAlignBytes) * kAlignBytes;
  chunk = std::clamp(chunk, kMinChunkBytes, kMaxChunkBytes);
  const std::uint64_t window =
      std::clamp(kInflightTargetBytes / chunk, kMinWindow, kMaxWindow);

  StreamConfig config;
  config.chunk_bytes = static_cast<std::size_t>(chunk);
  config.window_chunks = static_cast<std::size_t>(window);
  config.adaptive = false;  // already resolved; nothing left to derive
  return config;
}

Message encode_chunk(MessageType final_type, std::uint64_t total_bytes,
                     std::uint64_t chunk_index, std::string_view chunk) {
  WireWriter writer;
  writer.u32(static_cast<std::uint32_t>(final_type));
  writer.u64(total_bytes);
  writer.u64(chunk_index);
  writer.bytes(chunk);
  return {MessageType::kDataChunk, writer.take()};
}

Message encode_stream_end(MessageType final_type, std::uint64_t total_bytes,
                          std::uint64_t chunk_count, std::uint32_t crc) {
  WireWriter writer;
  writer.u32(static_cast<std::uint32_t>(final_type));
  writer.u64(total_bytes);
  writer.u64(chunk_count);
  writer.u32(crc);
  return {MessageType::kDataEnd, writer.take()};
}

void send_message(Transport& transport, const Message& message,
                  const StreamConfig& requested,
                  const std::function<void(const Message&)>& interloper) {
  const StreamConfig config =
      requested.adaptive ? derived_stream_config(message.payload.size())
                         : requested;
  DASC_EXPECT(config.chunk_bytes >= 1, "ipc: chunk_bytes must be >= 1");
  DASC_EXPECT(config.window_chunks >= 1, "ipc: window_chunks must be >= 1");
  if (message.payload.size() <= config.chunk_bytes) {
    transport.send(message);
    return;
  }

  const std::uint64_t total = message.payload.size();
  std::uint64_t sent_chunks = 0;
  std::uint64_t acked_chunks = 0;
  // Block until at most `in_flight` chunks are unacknowledged. Credit
  // always arrives (the receiver acks on its cadence and once more after
  // the trailer), or the peer's death surfaces as EOF/IoError right here.
  const auto await_credit = [&](std::uint64_t in_flight) {
    while (sent_chunks - acked_chunks > in_flight) {
      std::optional<Message> credit = transport.recv();
      if (!credit.has_value()) {
        throw IoError("ipc: peer died mid-stream (no chunk credit)");
      }
      if (credit->type == MessageType::kChunkAck) {
        WireReader reader(credit->payload);
        const std::uint64_t acked = reader.u64();
        if (acked <= acked_chunks || acked > sent_chunks) {
          throw IoError("ipc: chunk credit out of sequence");
        }
        acked_chunks = acked;
        continue;
      }
      route_interloper(*credit, interloper, "while awaiting chunk credit");
    }
  };
  for (std::size_t offset = 0; offset < message.payload.size();
       offset += config.chunk_bytes) {
    await_credit(config.window_chunks - 1);  // bounded in-flight window
    const std::size_t len =
        std::min(config.chunk_bytes, message.payload.size() - offset);
    transport.send(encode_chunk(
        message.type, total, sent_chunks,
        std::string_view(message.payload).substr(offset, len)));
    ++sent_chunks;
  }
  transport.send(encode_stream_end(message.type, total, sent_chunks,
                                   crc32(message.payload)));
  // Consume every credit frame before returning, so none is left in the
  // socket for whoever reads from this transport next.
  await_credit(0);
}

std::optional<Message> recv_message(
    Transport& transport, const StreamConfig& config,
    const std::function<void(const Message&)>& interloper) {
  std::optional<Message> first = transport.recv();
  if (!first.has_value()) return std::nullopt;
  if (first->type != MessageType::kDataChunk) return first;

  // Stream assembly. From here on, EOF is a peer death mid-stream — a
  // typed error, never a silently short payload.
  Message assembled;
  std::string payload;
  std::uint64_t expected_total = 0;
  std::uint64_t next_index = 0;
  std::size_t ack_every = config.window_chunks;
  bool have_header = false;
  std::optional<Message> frame = std::move(first);
  while (true) {
    if (frame->type == MessageType::kDataChunk) {
      WireReader reader(frame->payload);
      const auto final_type = static_cast<MessageType>(reader.u32());
      const std::uint64_t total = reader.u64();
      const std::uint64_t index = reader.u64();
      const std::string_view chunk = reader.bytes();
      if (!have_header) {
        if (total > kMaxStreamBytes) {
          throw IoError("ipc: stream declares oversized payload (" +
                        std::to_string(total) + " bytes)");
        }
        assembled.type = final_type;
        expected_total = total;
        payload.reserve(static_cast<std::size_t>(total));
        if (config.adaptive) {
          // Ack on the smaller of the derived window and the fixed default:
          // a deadlock needs the receiver's ack cadence to exceed the
          // sender's window, and every sender window (fixed or derived) is
          // at least the default, so this cadence is always safe whatever
          // config the sender ran with.
          ack_every = std::min(derived_stream_config(total).window_chunks,
                               StreamConfig{}.window_chunks);
        }
        have_header = true;
      } else if (final_type != assembled.type || total != expected_total) {
        throw IoError("ipc: inconsistent stream chunk header");
      }
      if (index != next_index) {
        throw IoError("ipc: stream chunk out of sequence");
      }
      if (payload.size() + chunk.size() > expected_total) {
        throw IoError("ipc: stream chunks exceed declared payload size");
      }
      payload.append(chunk);
      ++next_index;
      if (next_index % ack_every == 0) {
        WireWriter ack;
        ack.u64(next_index);
        transport.send({MessageType::kChunkAck, ack.take()});
      }
    } else if (frame->type == MessageType::kDataEnd) {
      WireReader reader(frame->payload);
      const auto final_type = static_cast<MessageType>(reader.u32());
      const std::uint64_t total = reader.u64();
      const std::uint64_t chunk_count = reader.u64();
      const std::uint32_t crc = reader.u32();
      if (!have_header || final_type != assembled.type ||
          total != expected_total || chunk_count != next_index) {
        throw IoError("ipc: inconsistent stream trailer");
      }
      if (payload.size() != expected_total) {
        throw IoError("ipc: stream payload length mismatch");
      }
      if (crc32(payload) != crc) {
        throw IoError("ipc: stream payload failed CRC-32 verification");
      }
      if (next_index % ack_every != 0) {
        // The final credit: the sender drains acks until every chunk is
        // acknowledged, so a stream never leaves a kChunkAck unread.
        WireWriter ack;
        ack.u64(next_index);
        transport.send({MessageType::kChunkAck, ack.take()});
      }
      assembled.payload = std::move(payload);
      return assembled;
    } else {
      route_interloper(*frame, interloper, "mid-stream");
    }
    frame = transport.recv();
    if (!frame.has_value()) {
      throw IoError("ipc: peer died mid-stream");
    }
  }
}

}  // namespace dasc::ipc
