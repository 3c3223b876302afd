// Re-spelling of a DN inside an encoded certificate: DistinguishedName::parse
// accepts lower-case attribute types and spaces around separators, so the
// re-spelled certificate decodes to the same fields as the original while
// its TBS bytes differ from the ones the issuer signed.
#pragma once

#include <cctype>
#include <string>

#include "common/tlv.hpp"
#include "crypto/dn.hpp"

namespace e2e::testing {

/// `dn` with lower-case types and extra spaces ("cn = Alice ,  o = A").
inline std::string respelled(const crypto::DistinguishedName& dn) {
  std::string out;
  for (char c : dn.to_string()) {
    if (c == ',') {
      out += " ,  ";
    } else if (c == '=') {
      out += " = ";
    } else {
      out.push_back(c);
    }
  }
  // Lower-case each attribute type (the text before each '=').
  bool in_type = true;
  for (char& c : out) {
    if (c == '=') in_type = false;
    if (c == ',') in_type = true;
    if (in_type) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

/// The encoded certificate `cert` with its issuer DN text replaced by
/// `issuer_text`; every other field and the signature are kept.
inline Bytes respell_issuer(BytesView cert, const std::string& issuer_text) {
  constexpr tlv::Tag kTbs = 0x020b;
  constexpr tlv::Tag kIssuer = 0x0202;
  constexpr tlv::Tag kSignature = 0x020c;
  tlv::Reader top(cert);
  const tlv::Element tbs = top.expect(kTbs).value();
  const tlv::Element signature = top.expect(kSignature).value();
  tlv::Reader fields(tbs.value);
  tlv::Writer rebuilt;
  while (!fields.at_end()) {
    const tlv::Element field = fields.next().value();
    if (field.tag == kIssuer) {
      rebuilt.put_string(kIssuer, issuer_text);
    } else {
      rebuilt.put_bytes(field.tag, field.value);
    }
  }
  tlv::Writer out;
  out.put_bytes(kTbs, rebuilt.take());
  out.put_bytes(kSignature, signature.value);
  return out.take();
}

}  // namespace e2e::testing
