#include "net/bbd_protocol.hpp"

namespace e2e::net {

Bytes BbdRequest::encode() const {
  tlv::Writer writer;
  writer.open(bbd_tag::kRequest);
  writer.put_u32(bbd_tag::kOp, static_cast<std::uint32_t>(op));
  writer.put_u64(bbd_tag::kId, id);
  writer.put_u32(bbd_tag::kFlags, flags);
  writer.put_u64(bbd_tag::kU64A, u64a);
  writer.put_u64(bbd_tag::kU64B, u64b);
  writer.put_u64(bbd_tag::kU64C, u64c);
  writer.put_u64(bbd_tag::kU64D, u64d);
  writer.put_f64(bbd_tag::kF64A, f64a);
  writer.put_f64(bbd_tag::kF64B, f64b);
  writer.put_string(bbd_tag::kStrA, stra);
  writer.put_string(bbd_tag::kStrB, strb);
  writer.put_string(bbd_tag::kLabels, labels);
  writer.put_bytes(bbd_tag::kBytes, bytes);
  writer.close();
  return writer.take();
}

Result<BbdRequest> BbdRequest::decode(BytesView data) {
  tlv::Reader outer(data);
  auto nested = outer.read_nested(bbd_tag::kRequest);
  if (!nested.ok()) return nested.error();
  tlv::Reader& r = nested.value();
  BbdRequest req;
  auto op = r.read_u32(bbd_tag::kOp);
  if (!op.ok()) return op.error();
  req.op = static_cast<BbdOp>(op.value());
  auto id = r.read_u64(bbd_tag::kId);
  if (!id.ok()) return id.error();
  req.id = id.value();
  auto flags = r.read_u32(bbd_tag::kFlags);
  if (!flags.ok()) return flags.error();
  req.flags = flags.value();
  auto a = r.read_u64(bbd_tag::kU64A);
  if (!a.ok()) return a.error();
  req.u64a = a.value();
  auto b = r.read_u64(bbd_tag::kU64B);
  if (!b.ok()) return b.error();
  req.u64b = b.value();
  auto c = r.read_u64(bbd_tag::kU64C);
  if (!c.ok()) return c.error();
  req.u64c = c.value();
  auto d = r.read_u64(bbd_tag::kU64D);
  if (!d.ok()) return d.error();
  req.u64d = d.value();
  auto fa = r.read_f64(bbd_tag::kF64A);
  if (!fa.ok()) return fa.error();
  req.f64a = fa.value();
  auto fb = r.read_f64(bbd_tag::kF64B);
  if (!fb.ok()) return fb.error();
  req.f64b = fb.value();
  auto sa = r.read_string(bbd_tag::kStrA);
  if (!sa.ok()) return sa.error();
  req.stra = std::move(sa.value());
  auto sb = r.read_string(bbd_tag::kStrB);
  if (!sb.ok()) return sb.error();
  req.strb = std::move(sb.value());
  auto labels = r.read_string(bbd_tag::kLabels);
  if (!labels.ok()) return labels.error();
  req.labels = std::move(labels.value());
  auto bytes = r.read_bytes(bbd_tag::kBytes);
  if (!bytes.ok()) return bytes.error();
  req.bytes = std::move(bytes.value());
  if (!r.at_end()) {
    return make_error(ErrorCode::kBadMessage, "trailing data in bbd request");
  }
  return req;
}

Bytes BbdResponse::encode() const {
  tlv::Writer writer;
  writer.open(bbd_tag::kResponse);
  writer.put_u64(bbd_tag::kId, id);
  writer.put_bool(bbd_tag::kOk, ok);
  writer.put_u32(bbd_tag::kErrCode, static_cast<std::uint32_t>(error_code));
  writer.put_string(bbd_tag::kErrMsg, error_message);
  writer.put_string(bbd_tag::kErrOrigin, error_origin);
  writer.put_u64(bbd_tag::kU64A, u64a);
  writer.put_u64(bbd_tag::kU64B, u64b);
  writer.put_f64(bbd_tag::kF64A, f64a);
  writer.put_string(bbd_tag::kStrA, stra);
  writer.put_bytes(bbd_tag::kBytes, bytes);
  writer.close();
  return writer.take();
}

Result<BbdResponse> BbdResponse::decode(BytesView data) {
  tlv::Reader outer(data);
  auto nested = outer.read_nested(bbd_tag::kResponse);
  if (!nested.ok()) return nested.error();
  tlv::Reader& r = nested.value();
  BbdResponse res;
  auto id = r.read_u64(bbd_tag::kId);
  if (!id.ok()) return id.error();
  res.id = id.value();
  auto ok = r.read_bool(bbd_tag::kOk);
  if (!ok.ok()) return ok.error();
  res.ok = ok.value();
  auto code = r.read_u32(bbd_tag::kErrCode);
  if (!code.ok()) return code.error();
  res.error_code = static_cast<ErrorCode>(code.value());
  auto msg = r.read_string(bbd_tag::kErrMsg);
  if (!msg.ok()) return msg.error();
  res.error_message = std::move(msg.value());
  auto origin = r.read_string(bbd_tag::kErrOrigin);
  if (!origin.ok()) return origin.error();
  res.error_origin = std::move(origin.value());
  auto a = r.read_u64(bbd_tag::kU64A);
  if (!a.ok()) return a.error();
  res.u64a = a.value();
  auto b = r.read_u64(bbd_tag::kU64B);
  if (!b.ok()) return b.error();
  res.u64b = b.value();
  auto fa = r.read_f64(bbd_tag::kF64A);
  if (!fa.ok()) return fa.error();
  res.f64a = fa.value();
  auto sa = r.read_string(bbd_tag::kStrA);
  if (!sa.ok()) return sa.error();
  res.stra = std::move(sa.value());
  auto bytes = r.read_bytes(bbd_tag::kBytes);
  if (!bytes.ok()) return bytes.error();
  res.bytes = std::move(bytes.value());
  if (!r.at_end()) {
    return make_error(ErrorCode::kBadMessage, "trailing data in bbd response");
  }
  return res;
}

std::vector<std::pair<std::string, std::string>> parse_label_list(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> labels;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      labels.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    pos = comma + 1;
  }
  return labels;
}

}  // namespace e2e::net
