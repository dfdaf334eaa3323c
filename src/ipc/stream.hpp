// Chunked streaming framing for large logical messages.
//
// A logical message whose payload exceeds StreamConfig::chunk_bytes is not
// shipped as one giant frame (which would buffer the whole payload at both
// ends of the socket and cap out at kMaxPayloadBytes); it streams as a
// sequence of bounded frames:
//
//   kDataChunk  payload = {u32 final_type, u64 total_bytes,
//                          u64 chunk_index, bytes chunk}
//   ...                                           (chunk_index 0, 1, 2, ...)
//   kDataEnd    payload = {u32 final_type, u64 total_bytes,
//                          u64 chunk_count, u32 payload_crc32}
//
// Every kDataChunk frame carries the transport's own per-frame CRC-32 (a
// flipped bit in any chunk is caught on receipt), and kDataEnd carries a
// CRC over the whole reassembled payload, so a pathologically reordered or
// dropped chunk cannot reassemble silently. The receiver grants flow-
// control credit with kChunkAck{chunks_received} every
// StreamConfig::window_chunks chunks, and once more for the full chunk
// count after a verified kDataEnd when the cadence did not land on it; the
// sender blocks for credit once that many chunks are unacknowledged,
// bounding in-flight bytes at window_chunks x chunk_bytes regardless of
// payload size, and drains credit until every chunk is acknowledged before
// send_message returns — no kChunkAck is ever left for the next reader.
//
// send_message / recv_message are drop-in wrappers over Transport::send /
// Transport::recv: payloads at or under chunk_bytes go as one plain frame,
// and recv_message returns any non-chunk frame untouched. A peer that dies
// mid-stream surfaces as a typed IoError ("peer died mid-stream"), never a
// hang or a short payload; unexpected frame types mid-stream are IoError
// too. `interloper` lets the caller consume unrelated frames that may
// interleave with a stream (the supervisor drains worker kHeartbeat frames
// through it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "ipc/message.hpp"

namespace dasc::ipc {
class Transport;
}  // namespace dasc::ipc

namespace dasc::ipc {

struct StreamConfig {
  /// Payloads larger than this stream as kDataChunk frames of this size.
  std::size_t chunk_bytes = 256 * 1024;
  /// Chunks in flight before the sender blocks for a kChunkAck.
  std::size_t window_chunks = 4;
  /// Derive chunk_bytes/window_chunks per message from the payload size
  /// (sender) or the stream's declared total (receiver) instead of the
  /// fixed values above — see derived_stream_config. An adaptive receiver
  /// acks on the fixed default cadence (4 chunks), which never exceeds any
  /// derived or default sender window, so mixed adaptive/fixed pairings
  /// cannot deadlock.
  bool adaptive = false;
};

/// The config an adaptive endpoint resolves for a payload of
/// `payload_bytes`: chunks of payload/64 rounded up to 64 KiB, clamped to
/// [256 KiB, 4 MiB] (small payloads keep the historical framing; huge ones
/// amortize per-frame overhead), and a window targeting ~8 MiB in flight,
/// clamped to [4, 16]. Pure and deterministic — both ends of a transfer
/// derive the same values from the same declared size. The window floor of
/// 4 (== the fixed default) is what makes adaptive and fixed endpoints
/// safely interoperable (see StreamConfig::adaptive).
StreamConfig derived_stream_config(std::uint64_t payload_bytes);

/// Convenience: a default config with `adaptive` set — what the
/// multi-process runtime passes on every control- and data-plane endpoint.
inline StreamConfig adaptive_stream_config() {
  StreamConfig config;
  config.adaptive = true;
  return config;
}

/// Frames a single kDataChunk. Exposed for tests that tamper with streams.
Message encode_chunk(MessageType final_type, std::uint64_t total_bytes,
                     std::uint64_t chunk_index, std::string_view chunk);

/// Frames the kDataEnd trailer. Exposed for tests.
Message encode_stream_end(MessageType final_type, std::uint64_t total_bytes,
                          std::uint64_t chunk_count, std::uint32_t crc);

/// Send `message`, streaming it as chunks when the payload exceeds
/// config.chunk_bytes. Blocks for kChunkAck credit per the window;
/// `interloper` (may be null) is handed any frame received while waiting
/// for credit that is not a kChunkAck — unknown frames without an
/// interloper are IoError. Throws IoError when the peer dies.
void send_message(Transport& transport, const Message& message,
                  const StreamConfig& config = {},
                  const std::function<void(const Message&)>& interloper =
                      nullptr);

/// Receive one logical message, reassembling chunked streams. Plain frames
/// return as-is; a kDataChunk opener runs the assembly loop (acking every
/// window_chunks chunks) until kDataEnd, verifying chunk sequencing,
/// declared sizes, and the whole-payload CRC. nullopt only on clean EOF
/// *between* logical messages; EOF mid-stream is IoError. `interloper`
/// (may be null) is handed kHeartbeat or other unrelated frames that
/// arrive mid-stream — without an interloper, only kHeartbeat is skipped.
std::optional<Message> recv_message(
    Transport& transport, const StreamConfig& config = {},
    const std::function<void(const Message&)>& interloper = nullptr);

}  // namespace dasc::ipc
