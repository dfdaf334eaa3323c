// Length-prefixed, CRC-32-framed messages for the local worker transport.
//
// Frame layout (16-byte header, mirroring the spool page header of
// common/spool.hpp):
//
//   bytes  0..3   magic 'DIPC'
//   bytes  4..7   u32 message type
//   bytes  8..11  u32 payload bytes
//   bytes 12..15  u32 CRC-32 of the payload
//
// followed by the payload. Integers are host-endian: the transport never
// leaves the machine (AF_UNIX sockets between a supervisor and its worker
// processes). Every protocol message is exactly one frame, so its payload
// is checked once, by that frame's CRC. A frame that is truncated, carries
// an unknown magic, declares more than kMaxPayloadBytes, or fails its CRC is
// a typed dasc::IoError at the receiver.
//
// Payloads are built with WireWriter and walked with WireReader; key/value
// records reuse the spool record framing (u32 key length, u32 value
// length, key bytes, value bytes), so a map output's partition run is the
// same bytes in the map output, in kFetchData and in a spool page.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace dasc::ipc {

/// Protocol message types. kHello..kShutdown are the supervisor/worker
/// vocabulary (DESIGN.md section 13); kFetchPart..kPullFailed are the
/// worker-to-worker shuffle extensions (section 14); unknown types are
/// receiver errors. Every supervisor -> worker request gets exactly one
/// reply, with kHeartbeat frames before it.
enum class MessageType : std::uint32_t {
  kHello = 1,      ///< worker -> supervisor: u64 pid (handshake)
  kJobSetup,       ///< supervisor -> exec worker: registered-job setup
  kMapAssign,      ///< supervisor -> worker: task, partitions, the
                   ///< split's framed run as the payload's tail
  kMapDone,        ///< worker -> supervisor: map task counters
  kFetchData,      ///< owner -> reducer: one listed map task's run of the
                   ///< partition {u64 map_task, run bytes}; the frame CRC
                   ///< is the run's only transfer check
  kTaskError,      ///< worker -> supervisor: task failed (message text)
  kHeartbeat,      ///< worker -> supervisor: liveness while busy
  kShutdown,       ///< supervisor -> worker: exit the serve loop
  // Worker-to-worker shuffle (DESIGN.md section 14):
  kFetchPart,      ///< reducer -> mapper data plane: one partition of a
                   ///< list of map outputs {partition, num_partitions,
                   ///< count, map_task...}; one reply per task, in order
  kReducePull,     ///< supervisor -> reducer: pull-based reduce assignment
                   ///< (partition map of owner slots)
  kReducePullDone, ///< reducer -> supervisor: reduce output + spill/fault
                   ///< accounting report
  kPullFailed,     ///< reducer -> supervisor: the kReducePull's reply when
                   ///< a map-output owner cannot be reached {reduce_task,
                   ///< map_task, owner}; the pass reports nothing else
};

struct Message {
  MessageType type = MessageType::kHello;
  std::string payload;
};

constexpr std::size_t kFrameHeaderBytes = 16;
constexpr std::string_view kFrameMagic = "DIPC";
/// Hard cap on a frame's payload, and so on any one message. Large enough
/// for any assignment, fetch reply or reduce output the runtime ships,
/// small enough that a corrupted length field cannot drive a multi-gigabyte
/// allocation.
constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 30;

/// Parsed and validated frame header.
struct FrameHeader {
  MessageType type = MessageType::kHello;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

/// The 16-byte header that frames `message`'s payload. Throws
/// InvalidArgument on oversized payload.
std::array<char, kFrameHeaderBytes> encode_frame_header(const Message& message);

/// Serialize header + payload: the frame's wire bytes in one string.
/// Transport::send writes the same bytes without building it. Throws
/// InvalidArgument on oversized payload.
std::string encode_frame(const Message& message);

/// Parse a 16-byte header. Throws IoError on bad magic or oversized
/// declared payload (the caller never allocates for a bogus length).
FrameHeader parse_frame_header(std::string_view header);

/// Throws IoError when the payload does not match the header's CRC/length.
void verify_frame_payload(const FrameHeader& header, std::string_view payload);

/// Append-only payload builder.
class WireWriter {
 public:
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  /// Length-prefixed byte string (u32 length + bytes).
  void bytes(std::string_view value);
  /// One key/value record in spool framing (u32 klen, u32 vlen, key, value).
  void record(std::string_view key, std::string_view value);

  std::string take() { return std::move(out_); }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Cursor over a payload; every read throws IoError on truncation, so a
/// malformed payload can never be silently misparsed.
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : payload_(payload) {}

  std::uint32_t u32();
  std::uint64_t u64();
  /// Length-prefixed byte string; the view aliases the payload.
  std::string_view bytes();
  /// One key/value record in spool framing.
  std::pair<std::string_view, std::string_view> record();

  bool done() const { return offset_ == payload_.size(); }
  std::size_t remaining() const { return payload_.size() - offset_; }
  /// The unread tail of the payload; the view aliases the payload.
  std::string_view rest() const { return payload_.substr(offset_); }

 private:
  void need(std::size_t n) const;

  std::string_view payload_;
  std::size_t offset_ = 0;
};

}  // namespace dasc::ipc
