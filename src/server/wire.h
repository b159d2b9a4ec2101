// Frame codec for the tpcpd wire protocol.
//
// Every message — request or response — travels as one frame:
//
//   [4-byte big-endian payload length][payload bytes]
//
// where the payload is one JSON object (server/json.h). The length
// prefix makes message boundaries explicit on a stream socket; the codec
// enforces a hard frame-size ceiling so a hostile or broken client can
// neither balloon daemon memory with one giant length word nor wedge a
// connection with a zero-length frame. Encoding and decoding are pure
// byte-string transforms, testable without any socket.

#ifndef TPCP_SERVER_WIRE_H_
#define TPCP_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tpcp {

/// Hard ceiling on a frame payload (1 MiB). Protocol messages are small
/// (a submit with a full options map is well under 4 KiB); anything
/// larger is a corrupt or hostile length prefix.
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Wrap `payload` in a length-prefixed frame. InvalidArgument when the
/// payload is empty or exceeds kMaxFrameBytes.
Result<std::string> EncodeFrame(const std::string& payload);

/// Incremental frame decoder: feed raw bytes as they arrive, pop complete
/// payloads. Once a malformed prefix is seen (zero-length or oversized
/// frame) the decoder latches the error — the byte stream has no
/// recoverable resync point, so the connection must be dropped.
class FrameDecoder {
 public:
  /// Append raw bytes from the stream. Returns the latched error, if any.
  Status Feed(const char* data, size_t size);
  Status Feed(const std::string& data) {
    return Feed(data.data(), data.size());
  }

  /// Pop the next complete payload into `*payload`. Returns false when no
  /// complete frame is buffered (or the decoder is in the error state).
  bool Next(std::string* payload);

  /// True when a malformed prefix has been seen.
  bool failed() const { return !error_.ok(); }
  const Status& error() const { return error_; }

  /// True when the buffer holds a partial frame (useful for detecting
  /// truncated streams at connection close).
  bool has_partial() const { return !buffer_.empty(); }

 private:
  std::string buffer_;
  std::vector<std::string> ready_;
  Status error_ = Status::OK();
};

}  // namespace tpcp

#endif  // TPCP_SERVER_WIRE_H_
