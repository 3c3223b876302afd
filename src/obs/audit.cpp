#include "obs/audit.hpp"

#include <sstream>
#include <utility>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace e2e::obs {

std::string chain_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string chain_sha256_hex(const std::string& s) {
  const crypto::Digest digest = crypto::sha256(
      BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  return hex_encode(BytesView(digest.data(), digest.size()));
}

namespace {

const auto& json_escape = chain_json_escape;
const auto& sha256_hex = chain_sha256_hex;

/// The record as JSON *without* the trailing hash field — the exact bytes
/// the chain hash covers.
std::string canonical_body(const AuditRecord& record) {
  std::ostringstream out;
  out << "{\"index\":" << record.index << ",\"at\":" << record.at
      << ",\"domain\":\"" << json_escape(record.domain) << "\",\"kind\":\""
      << json_escape(record.kind) << "\",\"trace_id\":\""
      << json_escape(record.trace_id) << "\",\"span_id\":" << record.span_id
      << ",\"fields\":{";
  for (std::size_t i = 0; i < record.fields.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(record.fields[i].first) << "\":\""
        << json_escape(record.fields[i].second) << "\"";
  }
  out << "},\"prev\":\"" << record.prev_hash << "\"}";
  return out.str();
}

constexpr auto& kHashMarker = kChainHashMarker;
constexpr std::size_t kHashMarkerLen = sizeof(kChainHashMarker) - 1;
constexpr std::size_t kHexDigestLen = kChainHexDigestLen;

}  // namespace

std::string AuditRecord::to_jsonl() const {
  std::string body = canonical_body(*this);
  body.pop_back();  // drop the closing '}' to splice the hash in
  return body + kHashMarker + hash + "\"}";
}

std::string AuditLog::append(
    const std::string& domain, const std::string& kind,
    std::vector<std::pair<std::string, std::string>> fields) {
  const SpanRef& ref = current_span_ref();
  AuditRecord record;
  record.at = ref.at;
  record.domain = domain;
  record.kind = kind;
  record.trace_id = ref.trace_id;
  record.span_id = ref.span_id;
  record.fields = std::move(fields);
  std::string hash;
  Counter* kind_counter = nullptr;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [known, counter] : kind_counters_) {
      if (known == kind) kind_counter = counter;
    }
    if (kind_counter == nullptr) {
      kind_counter = &MetricsRegistry::global().counter(
          kObsAuditRecordsTotal, {{"kind", kind}});
      kind_counters_.emplace_back(kind, kind_counter);
    }
    record.index = next_index_++;
    record.prev_hash = head_hash_.empty() ? genesis_hash() : head_hash_;
    record.hash = sha256_hex(record.prev_hash + canonical_body(record));
    head_hash_ = hash = record.hash;
    records_.push_back(std::move(record));
    while (records_.size() > capacity_) records_.pop_front();
  }
  kind_counter->increment();
  return hash;
}

std::vector<AuditRecord> AuditLog::records() const {
  std::lock_guard lock(mutex_);
  return {records_.begin(), records_.end()};
}

std::vector<AuditRecord> AuditLog::records_for(
    const std::string& trace_id) const {
  std::lock_guard lock(mutex_);
  std::vector<AuditRecord> out;
  for (const AuditRecord& record : records_) {
    if (record.trace_id == trace_id) out.push_back(record);
  }
  return out;
}

std::size_t AuditLog::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

std::string AuditLog::head_hash() const {
  std::lock_guard lock(mutex_);
  return head_hash_.empty() ? genesis_hash() : head_hash_;
}

std::string AuditLog::export_jsonl() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const AuditRecord& record : records_) {
    out += record.to_jsonl();
    out += '\n';
  }
  return out;
}

void AuditLog::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  next_index_ = 0;
  head_hash_.clear();
}

void AuditLog::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (records_.size() > capacity_) records_.pop_front();
}

Result<std::size_t> AuditLog::verify_chain(const std::string& jsonl) {
  std::size_t verified = 0;
  std::string expected_prev;  // empty = accept any (mid-stream export)
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    const std::string line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++line_no;
    const auto where = [&] {
      return "audit line " + std::to_string(line_no);
    };
    const std::size_t marker = line.rfind(kHashMarker);
    if (marker == std::string::npos ||
        marker + kHashMarkerLen + kHexDigestLen + 2 != line.size() ||
        line.compare(line.size() - 2, 2, "\"}") != 0) {
      return make_error(ErrorCode::kBadMessage,
                        where() + ": no well-formed hash field", "audit");
    }
    const std::string claimed =
        line.substr(marker + kHashMarkerLen, kHexDigestLen);
    const std::string body = line.substr(0, marker) + "}";
    static constexpr char kPrevMarker[] = "\"prev\":\"";
    const std::size_t prev_at = body.rfind(kPrevMarker);
    if (prev_at == std::string::npos) {
      return make_error(ErrorCode::kBadMessage,
                        where() + ": no prev field", "audit");
    }
    const std::string prev =
        body.substr(prev_at + sizeof(kPrevMarker) - 1, kHexDigestLen);
    if (!expected_prev.empty() && prev != expected_prev) {
      return make_error(ErrorCode::kBadMessage,
                        where() + ": chain link broken (prev mismatch)",
                        "audit");
    }
    if (sha256_hex(prev + body) != claimed) {
      return make_error(ErrorCode::kBadMessage,
                        where() + ": record hash mismatch (tampered)",
                        "audit");
    }
    expected_prev = claimed;
    ++verified;
  }
  return verified;
}

const std::string& AuditLog::genesis_hash() {
  static const std::string kGenesis(kHexDigestLen, '0');
  return kGenesis;
}

AuditLog& AuditLog::global() {
  static AuditLog* log = new AuditLog();
  return *log;
}

}  // namespace e2e::obs
