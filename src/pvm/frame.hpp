// Length-prefixed wire framing for Message over a byte stream, used by the
// ptsd serving layer (src/service/).
//
// A frame is a fixed 12-byte header followed by the Message payload bytes:
//
//   u32  magic    kFrameMagic ("ptsF"), rejects desynchronized/alien streams
//   i32  tag      Message tag (the service layer's request/event type)
//   u32  length   payload bytes; 0 and > max_payload are rejected
//
// Encoding is a single buffer append (encode_frame). Decoding is incremental:
// a FrameDecoder is fed arbitrary byte chunks exactly as read(2) delivers
// them — partial headers, split payloads, many frames per chunk — and yields
// complete Messages. Malformed input (bad magic, zero-length or oversized
// payload) puts the decoder into a sticky error state: a byte stream that
// lied about its framing cannot be trusted past the lie, so the connection
// must be dropped rather than resynchronized.
//
// The decoder only checks framing; payload structure is the consumer's
// problem (Message::validate_layout + peek_field for untrusted bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "pvm/message.hpp"

namespace pts::pvm {

inline constexpr std::uint32_t kFrameMagic = 0x7074'7346u;  // "ptsF"
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Default payload cap. Large enough for a scale-tier SolveResult JSON,
/// small enough that a hostile length field cannot balloon the decoder.
inline constexpr std::size_t kDefaultMaxPayload = 64u << 20;

/// Appends the framed encoding of `msg` to `out` (header + payload).
/// Messages with empty payloads are not encodable (every protocol message
/// carries at least one field; zero-length frames are rejected on decode).
void encode_frame(const Message& msg, std::vector<std::uint8_t>& out);

/// Convenience: the framed encoding as a fresh buffer.
std::vector<std::uint8_t> encode_frame(const Message& msg);

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw stream bytes. Returns false once the decoder is errored
  /// (further bytes are discarded).
  bool feed(const void* data, std::size_t size);

  /// Next complete frame as a Message, or nullopt if more bytes are needed
  /// (or the decoder is errored).
  std::optional<Message> next();

  /// Sticky malformed-stream state; `error()` names the first violation.
  bool errored() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void fail(std::string reason);

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::string error_;
};

}  // namespace pts::pvm
