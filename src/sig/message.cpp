#include "sig/message.hpp"

#include "common/tlv.hpp"

namespace e2e::sig {

namespace {
constexpr tlv::Tag kTagUserLayer = 0x0401;
constexpr tlv::Tag kTagResSpec = 0x0402;
constexpr tlv::Tag kTagSourceBbDn = 0x0403;
constexpr tlv::Tag kTagCapCert = 0x0404;
constexpr tlv::Tag kTagSignature = 0x0405;
constexpr tlv::Tag kTagBrokerLayer = 0x0406;
constexpr tlv::Tag kTagUpstreamCert = 0x0407;
constexpr tlv::Tag kTagDownstreamDn = 0x0408;
constexpr tlv::Tag kTagAugmentation = 0x0409;
constexpr tlv::Tag kTagAugName = 0x040a;
constexpr tlv::Tag kTagAugValue = 0x040b;
constexpr tlv::Tag kTagSignerDn = 0x040c;
constexpr tlv::Tag kTagPrefix = 0x040d;
constexpr tlv::Tag kTagReplyGranted = 0x0410;
constexpr tlv::Tag kTagReplyHandle = 0x0411;
constexpr tlv::Tag kTagReplyDomain = 0x0412;
constexpr tlv::Tag kTagReplyId = 0x0413;
constexpr tlv::Tag kTagReplyTunnel = 0x0414;
constexpr tlv::Tag kTagReplyErrCode = 0x0415;
constexpr tlv::Tag kTagReplyErrMsg = 0x0416;
constexpr tlv::Tag kTagReplyErrOrigin = 0x0417;

void write_user_fields(tlv::Writer& w, const UserLayer& u) {
  w.put_bytes(kTagResSpec, u.res_spec.encode());
  w.put_string(kTagSourceBbDn, u.source_bb_dn);
  for (const auto& cert : u.capability_certs) {
    w.put_bytes(kTagCapCert, cert);
  }
}

void write_broker_fields(tlv::Writer& w, const BrokerLayer& b) {
  w.put_bytes(kTagUpstreamCert, b.upstream_certificate);
  w.put_string(kTagDownstreamDn, b.downstream_dn);
  for (const auto& cert : b.capability_certs) {
    w.put_bytes(kTagCapCert, cert);
  }
  for (const auto& aug : b.augmentations) {
    w.open(kTagAugmentation);
    w.put_string(kTagAugName, aug.name);
    w.put_string(kTagAugValue, aug.value);
    w.close();
  }
  w.put_string(kTagSignerDn, b.signer_dn);
}

void put_header(Bytes& out, tlv::Tag tag, std::size_t length) {
  tlv::put_be16(out, tag);
  tlv::put_be32(out, static_cast<std::uint32_t>(length));
}

/// Append a container holding `fields` and then the signature element.
/// Returns the offset in `out` where the signature element starts.
std::size_t put_signed_container(Bytes& out, tlv::Tag tag, BytesView fields,
                                 BytesView signature) {
  put_header(out, tag, fields.size() + tlv::kHeaderSize + signature.size());
  append(out, fields);
  const std::size_t fields_end = out.size();
  put_header(out, kTagSignature, signature.size());
  append(out, signature);
  return fields_end;
}

/// Offset of `inner`, a view into `outer`, from the start of `outer`.
std::size_t offset_in(BytesView outer, BytesView inner) {
  return static_cast<std::size_t>(inner.data() - outer.data());
}

}  // namespace

RarMessage RarMessage::create_user_request(
    bb::ResSpec res_spec, std::string source_bb_dn,
    std::vector<Bytes> capability_certs, const crypto::PrivateKey& user_key) {
  RarMessage msg;
  msg.user_.res_spec = std::move(res_spec);
  msg.user_.source_bb_dn = std::move(source_bb_dn);
  msg.user_.capability_certs = std::move(capability_certs);
  tlv::Writer w;
  write_user_fields(w, msg.user_);
  const Bytes fields = w.take();
  msg.user_.signature = crypto::sign(user_key, fields);
  msg.user_fields_end_ = put_signed_container(msg.wire_, kTagUserLayer, fields,
                                              msg.user_.signature);
  return msg;
}

RarMessage::LayerBounds RarMessage::append_layer(Bytes& wire,
                                                 BrokerLayer& layer,
                                                 const Signer& signer) {
  tlv::Writer w;
  write_broker_fields(w, layer);
  const Bytes fields = w.take();
  Bytes tbs;
  tbs.reserve(tlv::kHeaderSize + wire.size() + fields.size());
  put_header(tbs, kTagPrefix, wire.size());
  append(tbs, wire);
  append(tbs, fields);
  layer.signature = signer(tbs);
  LayerBounds bounds;
  bounds.start = wire.size();
  bounds.fields_end =
      put_signed_container(wire, kTagBrokerLayer, fields, layer.signature);
  return bounds;
}

void RarMessage::append_broker_layer(BrokerLayer layer,
                                     const crypto::PrivateKey& broker_key) {
  append_broker_layer(std::move(layer), [&broker_key](BytesView tbs) {
    return crypto::sign(broker_key, tbs);
  });
}

void RarMessage::append_broker_layer(BrokerLayer layer, const Signer& signer) {
  bounds_.push_back(append_layer(wire_, layer, signer));
  brokers_.push_back(std::move(layer));
}

Bytes RarMessage::encode_with_layer(BrokerLayer layer,
                                    const Signer& signer) const {
  Bytes wire = wire_;
  append_layer(wire, layer, signer);
  return wire;
}

BytesView RarMessage::user_tbs() const {
  if (wire_.empty()) return {};
  return BytesView(wire_).subspan(tlv::kHeaderSize,
                                  user_fields_end_ - tlv::kHeaderSize);
}

Bytes RarMessage::broker_tbs(std::size_t index) const {
  const LayerBounds& bounds = bounds_.at(index);
  const auto fields_begin = wire_.begin() + bounds.start + tlv::kHeaderSize;
  Bytes tbs;
  tbs.reserve(bounds.fields_end);  // header + prefix + fields
  put_header(tbs, kTagPrefix, bounds.start);
  tbs.insert(tbs.end(), wire_.begin(), wire_.begin() + bounds.start);
  tbs.insert(tbs.end(), fields_begin, wire_.begin() + bounds.fields_end);
  return tbs;
}

bool RarMessage::verify_user_signature(const crypto::PublicKey& key) const {
  return crypto::verify(key, user_tbs(), user_.signature);
}

bool RarMessage::verify_broker_signature(std::size_t index,
                                         const crypto::PublicKey& key) const {
  return crypto::verify(key, broker_tbs(index), brokers_.at(index).signature);
}

Bytes RarMessage::user_tbs_reference() const {
  tlv::Writer w;
  write_user_fields(w, user_);
  return w.take();
}

Bytes RarMessage::broker_tbs_reference(std::size_t index) const {
  tlv::Writer w;
  w.put_bytes(kTagPrefix, encode_prefix_reference(index));
  write_broker_fields(w, brokers_.at(index));
  return w.take();
}

Bytes RarMessage::encode_prefix_reference(std::size_t broker_count) const {
  tlv::Writer w;
  w.open(kTagUserLayer);
  write_user_fields(w, user_);
  w.put_bytes(kTagSignature, user_.signature);
  w.close();
  for (std::size_t i = 0; i < broker_count; ++i) {
    w.open(kTagBrokerLayer);
    write_broker_fields(w, brokers_[i]);
    w.put_bytes(kTagSignature, brokers_[i].signature);
    w.close();
  }
  return w.take();
}

Bytes RarMessage::encode_reference() const {
  return encode_prefix_reference(brokers_.size());
}

Result<RarMessage> RarMessage::decode(BytesView data) {
  tlv::Reader r(data);
  RarMessage msg;

  auto user_elem = r.expect(kTagUserLayer);
  if (!user_elem) return user_elem.error();
  tlv::Reader user_reader(user_elem->value);
  auto spec_bytes = user_reader.read_bytes(kTagResSpec);
  if (!spec_bytes) return spec_bytes.error();
  auto spec = bb::ResSpec::decode(*spec_bytes);
  if (!spec) return spec.error();
  msg.user_.res_spec = std::move(*spec);
  auto source_dn = user_reader.read_string(kTagSourceBbDn);
  if (!source_dn) return source_dn.error();
  msg.user_.source_bb_dn = std::move(*source_dn);
  while (auto cap = user_reader.try_next(kTagCapCert)) {
    msg.user_.capability_certs.emplace_back(cap->value.begin(),
                                            cap->value.end());
  }
  auto user_sig = user_reader.expect(kTagSignature);
  if (!user_sig) return user_sig.error();
  msg.user_.signature.assign(user_sig->value.begin(), user_sig->value.end());
  msg.user_fields_end_ = offset_in(data, user_sig->value) - tlv::kHeaderSize;
  if (!user_reader.at_end()) {
    return make_error(ErrorCode::kBadMessage, "RAR: trailing user bytes");
  }

  while (!r.at_end()) {
    auto layer_elem = r.expect(kTagBrokerLayer);
    if (!layer_elem) return layer_elem.error();
    tlv::Reader layer_reader(layer_elem->value);
    BrokerLayer layer;
    LayerBounds bounds;
    bounds.start = offset_in(data, layer_elem->value) - tlv::kHeaderSize;
    auto up = layer_reader.read_bytes(kTagUpstreamCert);
    if (!up) return up.error();
    layer.upstream_certificate = std::move(*up);
    auto down = layer_reader.read_string(kTagDownstreamDn);
    if (!down) return down.error();
    layer.downstream_dn = std::move(*down);
    while (auto cap = layer_reader.try_next(kTagCapCert)) {
      layer.capability_certs.emplace_back(cap->value.begin(),
                                          cap->value.end());
    }
    while (auto aug_elem = layer_reader.try_next(kTagAugmentation)) {
      tlv::Reader aug_reader(aug_elem->value);
      policy::Augmentation aug;
      auto name = aug_reader.read_string(kTagAugName);
      if (!name) return name.error();
      aug.name = std::move(*name);
      auto value = aug_reader.read_string(kTagAugValue);
      if (!value) return value.error();
      aug.value = std::move(*value);
      layer.augmentations.push_back(std::move(aug));
    }
    auto signer = layer_reader.read_string(kTagSignerDn);
    if (!signer) return signer.error();
    layer.signer_dn = std::move(*signer);
    auto sig = layer_reader.expect(kTagSignature);
    if (!sig) return sig.error();
    layer.signature.assign(sig->value.begin(), sig->value.end());
    bounds.fields_end = offset_in(data, sig->value) - tlv::kHeaderSize;
    if (!layer_reader.at_end()) {
      return make_error(ErrorCode::kBadMessage, "RAR: trailing layer bytes");
    }
    msg.brokers_.push_back(std::move(layer));
    msg.bounds_.push_back(bounds);
  }
  msg.wire_.assign(data.begin(), data.end());
  return msg;
}

Bytes RarReply::encode() const {
  tlv::Writer w;
  w.put_bool(kTagReplyGranted, granted);
  for (const auto& [domain, id] : handles) {
    w.open(kTagReplyHandle);
    w.put_string(kTagReplyDomain, domain);
    w.put_string(kTagReplyId, id);
    w.close();
  }
  w.put_string(kTagReplyTunnel, tunnel_id);
  if (!granted) {
    w.put_u16(kTagReplyErrCode, static_cast<std::uint16_t>(denial.code));
    w.put_string(kTagReplyErrMsg, denial.message);
    w.put_string(kTagReplyErrOrigin, denial.origin);
  }
  return w.take();
}

Result<RarReply> RarReply::decode(BytesView data) {
  tlv::Reader r(data);
  RarReply reply;
  auto granted = r.read_bool(kTagReplyGranted);
  if (!granted) return granted.error();
  reply.granted = *granted;
  while (auto handle_elem = r.try_next(kTagReplyHandle)) {
    tlv::Reader hr(handle_elem->value);
    auto domain = hr.read_string(kTagReplyDomain);
    if (!domain) return domain.error();
    auto id = hr.read_string(kTagReplyId);
    if (!id) return id.error();
    reply.handles.emplace_back(std::move(*domain), std::move(*id));
  }
  auto tunnel = r.read_string(kTagReplyTunnel);
  if (!tunnel) return tunnel.error();
  reply.tunnel_id = std::move(*tunnel);
  if (!reply.granted) {
    auto code = r.read_u16(kTagReplyErrCode);
    if (!code) return code.error();
    reply.denial.code = static_cast<ErrorCode>(*code);
    auto message = r.read_string(kTagReplyErrMsg);
    if (!message) return message.error();
    reply.denial.message = std::move(*message);
    auto origin = r.read_string(kTagReplyErrOrigin);
    if (!origin) return origin.error();
    reply.denial.origin = std::move(*origin);
  }
  if (!r.at_end()) {
    return make_error(ErrorCode::kBadMessage, "RarReply: trailing bytes");
  }
  return reply;
}

}  // namespace e2e::sig
