#include "ipc/message.hpp"

#include <cstring>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/spool.hpp"

namespace dasc::ipc {

namespace {

void put_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(value));
}

void put_u64(std::string& out, std::uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(value));
}

std::uint32_t get_u32(const char* bytes) {
  std::uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

std::uint64_t get_u64(const char* bytes) {
  std::uint64_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

}  // namespace

std::array<char, kFrameHeaderBytes> encode_frame_header(
    const Message& message) {
  DASC_EXPECT(message.payload.size() <= kMaxPayloadBytes,
              "ipc: message payload exceeds kMaxPayloadBytes");
  const std::uint32_t fields[3] = {
      static_cast<std::uint32_t>(message.type),
      static_cast<std::uint32_t>(message.payload.size()),
      crc32(message.payload)};
  std::array<char, kFrameHeaderBytes> header{};
  std::memcpy(header.data(), kFrameMagic.data(), kFrameMagic.size());
  std::memcpy(header.data() + kFrameMagic.size(), fields, sizeof(fields));
  return header;
}

std::string encode_frame(const Message& message) {
  const std::array<char, kFrameHeaderBytes> header =
      encode_frame_header(message);
  std::string frame;
  frame.reserve(header.size() + message.payload.size());
  frame.append(header.data(), header.size());
  frame.append(message.payload);
  return frame;
}

FrameHeader parse_frame_header(std::string_view header) {
  DASC_ENSURE(header.size() == kFrameHeaderBytes,
              "ipc: parse_frame_header needs exactly 16 bytes");
  if (header.substr(0, 4) != kFrameMagic) {
    throw IoError("ipc: bad frame magic (stream out of sync or corrupt)");
  }
  FrameHeader parsed;
  parsed.type = static_cast<MessageType>(get_u32(header.data() + 4));
  parsed.payload_bytes = get_u32(header.data() + 8);
  parsed.crc = get_u32(header.data() + 12);
  if (parsed.payload_bytes > kMaxPayloadBytes) {
    throw IoError("ipc: frame declares oversized payload (" +
                  std::to_string(parsed.payload_bytes) + " bytes)");
  }
  return parsed;
}

void verify_frame_payload(const FrameHeader& header,
                          std::string_view payload) {
  if (payload.size() != header.payload_bytes) {
    throw IoError("ipc: frame payload length mismatch");
  }
  if (crc32(payload) != header.crc) {
    throw IoError("ipc: frame payload failed CRC-32 verification");
  }
}

void WireWriter::u32(std::uint32_t value) { put_u32(out_, value); }

void WireWriter::u64(std::uint64_t value) { put_u64(out_, value); }

void WireWriter::bytes(std::string_view value) {
  put_u32(out_, static_cast<std::uint32_t>(value.size()));
  out_.append(value);
}

void WireWriter::record(std::string_view key, std::string_view value) {
  append_record_frame(out_, key, value);
}

void WireReader::need(std::size_t n) const {
  if (offset_ + n > payload_.size()) {
    throw IoError("ipc: truncated message payload");
  }
}

std::uint32_t WireReader::u32() {
  need(4);
  const std::uint32_t value = get_u32(payload_.data() + offset_);
  offset_ += 4;
  return value;
}

std::uint64_t WireReader::u64() {
  need(8);
  const std::uint64_t value = get_u64(payload_.data() + offset_);
  offset_ += 8;
  return value;
}

std::string_view WireReader::bytes() {
  const std::uint32_t len = u32();
  need(len);
  const std::string_view value = payload_.substr(offset_, len);
  offset_ += len;
  return value;
}

std::pair<std::string_view, std::string_view> WireReader::record() {
  const RecordFrame frame = parse_record_frame(payload_, offset_);
  offset_ = frame.next;
  return {frame.key, frame.value};
}

}  // namespace dasc::ipc
