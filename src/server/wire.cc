#include "server/wire.h"

namespace tpcp {
namespace {

void AppendBe32(uint32_t value, std::string* out) {
  out->push_back(static_cast<char>((value >> 24) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>(value & 0xff));
}

uint32_t ReadBe32(const std::string& buffer, size_t offset) {
  return (static_cast<uint32_t>(
              static_cast<unsigned char>(buffer[offset]))
          << 24) |
         (static_cast<uint32_t>(
              static_cast<unsigned char>(buffer[offset + 1]))
          << 16) |
         (static_cast<uint32_t>(
              static_cast<unsigned char>(buffer[offset + 2]))
          << 8) |
         static_cast<uint32_t>(
             static_cast<unsigned char>(buffer[offset + 3]));
}

}  // namespace

Result<std::string> EncodeFrame(const std::string& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("cannot encode an empty frame");
  }
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte limit");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendBe32(static_cast<uint32_t>(payload.size()), &frame);
  frame += payload;
  return frame;
}

Status FrameDecoder::Feed(const char* data, size_t size) {
  if (!error_.ok()) return error_;
  buffer_.append(data, size);
  // Peel off every complete frame currently buffered.
  while (buffer_.size() >= 4) {
    const uint32_t length = ReadBe32(buffer_, 0);
    if (length == 0) {
      error_ = Status::InvalidArgument("zero-length frame");
      return error_;
    }
    if (length > kMaxFrameBytes) {
      error_ = Status::InvalidArgument(
          "frame length " + std::to_string(length) + " exceeds the " +
          std::to_string(kMaxFrameBytes) + "-byte limit");
      return error_;
    }
    if (buffer_.size() < 4 + static_cast<size_t>(length)) break;
    ready_.push_back(buffer_.substr(4, length));
    buffer_.erase(0, 4 + static_cast<size_t>(length));
  }
  return Status::OK();
}

bool FrameDecoder::Next(std::string* payload) {
  if (ready_.empty()) return false;
  *payload = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return true;
}

}  // namespace tpcp
