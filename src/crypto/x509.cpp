#include "crypto/x509.hpp"

#include "common/tlv.hpp"
#include "obs/instruments.hpp"

namespace e2e::crypto {

namespace {
constexpr tlv::Tag kTagSerial = 0x0201;
constexpr tlv::Tag kTagIssuer = 0x0202;
constexpr tlv::Tag kTagSubject = 0x0203;
constexpr tlv::Tag kTagNotBefore = 0x0204;
constexpr tlv::Tag kTagNotAfter = 0x0205;
constexpr tlv::Tag kTagSubjectKey = 0x0206;
constexpr tlv::Tag kTagExtension = 0x0207;
constexpr tlv::Tag kTagExtName = 0x0208;
constexpr tlv::Tag kTagExtCritical = 0x0209;
constexpr tlv::Tag kTagExtValue = 0x020a;
constexpr tlv::Tag kTagTbs = 0x020b;
constexpr tlv::Tag kTagSignature = 0x020c;
}  // namespace

bool Certificate::has_extension(std::string_view name) const {
  for (const auto& e : extensions_) {
    if (e.name == name) return true;
  }
  return false;
}

std::optional<std::string> Certificate::extension_value(
    std::string_view name) const {
  for (const auto& e : extensions_) {
    if (e.name == name) return e.value;
  }
  return std::nullopt;
}

std::vector<std::string> Certificate::capabilities() const {
  std::vector<std::string> out;
  const auto value = extension_value(kExtCapabilities);
  if (!value) return out;
  std::size_t pos = 0;
  while (pos <= value->size()) {
    const std::size_t comma = value->find(',', pos);
    std::string item = value->substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    // trim spaces
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

namespace {
Bytes encode_tbs(std::uint64_t serial, const DistinguishedName& issuer,
                 const DistinguishedName& subject, const TimeInterval& validity,
                 const PublicKey& key,
                 const std::vector<Extension>& extensions) {
  tlv::Writer w;
  w.open(kTagTbs);
  w.put_u64(kTagSerial, serial);
  w.put_string(kTagIssuer, issuer.to_string());
  w.put_string(kTagSubject, subject.to_string());
  w.put_i64(kTagNotBefore, validity.start);
  w.put_i64(kTagNotAfter, validity.end);
  w.put_bytes(kTagSubjectKey, key.encode());
  for (const auto& ext : extensions) {
    w.open(kTagExtension);
    w.put_string(kTagExtName, ext.name);
    w.put_bool(kTagExtCritical, ext.critical);
    w.put_string(kTagExtValue, ext.value);
    w.close();
  }
  w.close();
  return w.take();
}

/// `tbs` followed by the signature TLV: the wire form of a certificate.
Bytes with_signature(Bytes tbs, BytesView signature) {
  tlv::Writer w;
  w.put_bytes(kTagSignature, signature);
  append(tbs, w.take());
  return tbs;
}

/// Encoding of a default-constructed certificate (blank fields, empty
/// signature) and the size of its TBS prefix.
struct BlankEncoding {
  Bytes bytes;
  std::size_t tbs_size = 0;
};
const BlankEncoding& blank_encoding() {
  static const BlankEncoding blank = [] {
    Bytes tbs = Certificate().tbs_encode_reference();
    const std::size_t tbs_size = tbs.size();
    return BlankEncoding{with_signature(std::move(tbs), {}), tbs_size};
  }();
  return blank;
}
}  // namespace

BytesView Certificate::tbs_encode() const {
  auto& registry = obs::MetricsRegistry::global();
  if (!encoded_.empty()) {
    static obs::Counter& hits = registry.counter(
        obs::kCryptoTbsCacheLookupsTotal, {{"result", "hit"}});
    hits.increment();
    return BytesView(encoded_).first(tbs_size_);
  }
  static obs::Counter& misses = registry.counter(
      obs::kCryptoTbsCacheLookupsTotal, {{"result", "miss"}});
  misses.increment();
  const BlankEncoding& blank = blank_encoding();
  return BytesView(blank.bytes).first(blank.tbs_size);
}

const Bytes& Certificate::encode() const {
  return encoded_.empty() ? blank_encoding().bytes : encoded_;
}

Bytes Certificate::tbs_encode_reference() const {
  return encode_tbs(serial_, issuer_, subject_, validity_, subject_key_,
                    extensions_);
}

Result<Certificate> Certificate::decode(BytesView data) {
  tlv::Reader top(data);
  auto tbs = top.read_nested(kTagTbs);
  if (!tbs) return tbs.error();

  Certificate cert;
  auto serial = tbs->read_u64(kTagSerial);
  if (!serial) return serial.error();
  cert.serial_ = *serial;

  auto issuer_text = tbs->read_string(kTagIssuer);
  if (!issuer_text) return issuer_text.error();
  auto issuer = DistinguishedName::parse(*issuer_text);
  if (!issuer) return issuer.error();
  cert.issuer_ = *issuer;

  auto subject_text = tbs->read_string(kTagSubject);
  if (!subject_text) return subject_text.error();
  auto subject = DistinguishedName::parse(*subject_text);
  if (!subject) return subject.error();
  cert.subject_ = *subject;

  auto not_before = tbs->read_i64(kTagNotBefore);
  if (!not_before) return not_before.error();
  auto not_after = tbs->read_i64(kTagNotAfter);
  if (!not_after) return not_after.error();
  cert.validity_ = TimeInterval{*not_before, *not_after};

  auto key_bytes = tbs->read_bytes(kTagSubjectKey);
  if (!key_bytes) return key_bytes.error();
  auto key = PublicKey::decode(*key_bytes);
  if (!key) return key.error();
  cert.subject_key_ = *key;

  while (!tbs->at_end()) {
    auto ext_reader = tbs->read_nested(kTagExtension);
    if (!ext_reader) return ext_reader.error();
    Extension ext;
    auto name = ext_reader->read_string(kTagExtName);
    if (!name) return name.error();
    ext.name = *name;
    auto critical = ext_reader->read_bool(kTagExtCritical);
    if (!critical) return critical.error();
    ext.critical = *critical;
    auto value = ext_reader->read_string(kTagExtValue);
    if (!value) return value.error();
    ext.value = *value;
    cert.extensions_.push_back(std::move(ext));
  }

  auto signature = top.expect(kTagSignature);
  if (!signature) return signature.error();
  cert.signature_.assign(signature->value.begin(), signature->value.end());
  if (!top.at_end()) {
    return make_error(ErrorCode::kBadMessage, "Certificate: trailing bytes");
  }
  // Keep the bytes as received: the signature is checked over exactly the
  // TBS the issuer signed, and encode() hands them back unchanged.
  cert.encoded_.assign(data.begin(), data.end());
  cert.tbs_size_ = static_cast<std::size_t>(signature->value.data() -
                                            data.data()) -
                   tlv::kHeaderSize;
  return cert;
}

bool Certificate::verify_signature(const PublicKey& issuer_key) const {
  return verify(issuer_key, tbs_encode(), signature_);
}

Certificate Certificate::Builder::sign_with(
    const PrivateKey& issuer_key) const {
  Certificate cert;
  cert.serial_ = serial;
  cert.issuer_ = issuer;
  cert.subject_ = subject;
  cert.validity_ = validity;
  cert.subject_key_ = subject_key;
  cert.extensions_ = extensions;
  Bytes tbs = encode_tbs(serial, issuer, subject, validity, subject_key,
                        extensions);
  cert.signature_ = sign(issuer_key, tbs);
  cert.tbs_size_ = tbs.size();
  cert.encoded_ = with_signature(std::move(tbs), cert.signature_);
  return cert;
}

}  // namespace e2e::crypto
