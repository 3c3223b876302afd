#include "net/stream_framing.hpp"

#include "obs/instruments.hpp"

namespace e2e::net {

Bytes encode_frame(BytesView payload) {
  Bytes frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>(length >> 24));
  frame.push_back(static_cast<std::uint8_t>(length >> 16));
  frame.push_back(static_cast<std::uint8_t>(length >> 8));
  frame.push_back(static_cast<std::uint8_t>(length));
  append(frame, payload);
  return frame;
}

Status FrameDecoder::feed(BytesView chunk) {
  if (!poison_.ok()) return poison_;
  append(buffer_, chunk);
  std::size_t pos = 0;
  while (buffer_.size() - pos >= kFrameHeaderBytes) {
    const std::size_t length = (std::size_t{buffer_[pos]} << 24) |
                               (std::size_t{buffer_[pos + 1]} << 16) |
                               (std::size_t{buffer_[pos + 2]} << 8) |
                               std::size_t{buffer_[pos + 3]};
    if (length > kMaxFramePayload) {
      static obs::Counter& errors =
          obs::MetricsRegistry::global().counter(obs::kNetFramingErrorsTotal);
      errors.increment();
      poison_ = make_error(ErrorCode::kBadMessage,
                           "frame length " + std::to_string(length) +
                               " exceeds cap " +
                               std::to_string(kMaxFramePayload));
      buffer_.clear();
      return poison_;
    }
    if (buffer_.size() - pos - kFrameHeaderBytes < length) break;
    const auto begin = buffer_.begin() +
                       static_cast<std::ptrdiff_t>(pos + kFrameHeaderBytes);
    ready_.emplace_back(begin, begin + static_cast<std::ptrdiff_t>(length));
    ++frames_decoded_;
    pos += kFrameHeaderBytes + length;
  }
  if (pos > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() +
                                       static_cast<std::ptrdiff_t>(pos));
  }
  return Status::ok_status();
}

std::optional<Bytes> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Bytes payload = std::move(ready_.front());
  ready_.pop_front();
  return payload;
}

}  // namespace e2e::net
