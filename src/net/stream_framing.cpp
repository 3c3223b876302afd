#include "net/stream_framing.hpp"

#include "obs/instruments.hpp"

namespace e2e::net {

Bytes encode_frame(BytesView payload) {
  Bytes frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  append_frame(frame, payload);
  return frame;
}

void append_frame(Bytes& out, BytesView payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(length >> 24));
  out.push_back(static_cast<std::uint8_t>(length >> 16));
  out.push_back(static_cast<std::uint8_t>(length >> 8));
  out.push_back(static_cast<std::uint8_t>(length));
  append(out, payload);
}

namespace {

std::size_t frame_length(const std::uint8_t* header) {
  return (std::size_t{header[0]} << 24) | (std::size_t{header[1]} << 16) |
         (std::size_t{header[2]} << 8) | std::size_t{header[3]};
}

}  // namespace

Status FrameDecoder::feed(BytesView chunk) {
  if (!poison_.ok()) return poison_;
  // Drop what was handed out; views into it die with this call.
  if (read_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
    complete_end_ -= read_;
    read_ = 0;
  }
  append(buffer_, chunk);
  while (buffer_.size() - complete_end_ >= kFrameHeaderBytes) {
    const std::size_t length = frame_length(buffer_.data() + complete_end_);
    if (length > kMaxFramePayload) {
      static obs::Counter& errors =
          obs::MetricsRegistry::global().counter(obs::kNetFramingErrorsTotal);
      errors.increment();
      poison_ = make_error(ErrorCode::kBadMessage,
                           "frame length " + std::to_string(length) +
                               " exceeds cap " +
                               std::to_string(kMaxFramePayload));
      buffer_.resize(complete_end_);
      return poison_;
    }
    if (buffer_.size() - complete_end_ - kFrameHeaderBytes < length) break;
    complete_end_ += kFrameHeaderBytes + length;
    ++frames_decoded_;
  }
  return Status::ok_status();
}

std::optional<BytesView> FrameDecoder::next_view() {
  if (read_ == complete_end_) return std::nullopt;
  const std::size_t length = frame_length(buffer_.data() + read_);
  const BytesView payload(buffer_.data() + read_ + kFrameHeaderBytes, length);
  read_ += kFrameHeaderBytes + length;
  return payload;
}

std::optional<Bytes> FrameDecoder::next() {
  auto payload = next_view();
  if (!payload) return std::nullopt;
  return Bytes(payload->begin(), payload->end());
}

}  // namespace e2e::net
