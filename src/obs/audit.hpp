// Append-only, hash-chained audit log for the signalling plane.
//
// Every security-relevant decision — peer authentication, signature
// verification verdicts, policy evaluations, delegation re-issues,
// admission accept/reject — is appended as one structured record. Records
// carry the active trace/span id (from obs::current_span_ref()), so audit
// lines join to the trace tree, and each record's SHA-256 hash covers the
// previous record's hash: tampering with any exported line (or reordering
// lines) breaks the chain and is detected by verify_chain().
//
// Records are kept in a bounded deque; eviction drops the oldest records
// but the chain stays verifiable because hashes only ever link forward.
// The export format is JSON lines, one record per line, documented in
// docs/OBSERVABILITY.md (audit event schema) and enforced both ways by
// tests/obs_contract_test.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace e2e::obs {

class Counter;

/// The closed set of audit event kinds (contract-checked against the doc).
namespace audit_kind {
inline constexpr char kPeerAuth[] = "peer_auth";
inline constexpr char kVerify[] = "verify";
inline constexpr char kPolicy[] = "policy";
inline constexpr char kDelegation[] = "delegation";
inline constexpr char kAdmission[] = "admission";
inline constexpr char kRecovery[] = "recovery";
inline constexpr char kShutdown[] = "shutdown";
}  // namespace audit_kind

/// Hash-chain primitives shared with the broker write-ahead log (bb/wal.*):
/// both logs use the same tamper-evident discipline — each line's SHA-256
/// covers the previous line's hash plus the line's canonical body.
std::string chain_json_escape(const std::string& s);
std::string chain_sha256_hex(const std::string& s);
inline constexpr char kChainHashMarker[] = ",\"hash\":\"";
inline constexpr std::size_t kChainHexDigestLen = 64;

struct AuditRecord {
  std::uint64_t index = 0;  // position in the full (pre-eviction) stream
  SimTime at = 0;           // virtual time of the decision
  std::string domain;       // domain that made the decision
  std::string kind;         // audit_kind::*
  std::string trace_id;     // joining trace ("" only outside any span)
  std::uint64_t span_id = 0;
  /// Kind-specific key/value details, in insertion order.
  std::vector<std::pair<std::string, std::string>> fields;
  std::string prev_hash;  // hex SHA-256 of the previous record
  std::string hash;       // hex SHA-256 over prev_hash + this record

  /// One JSON line, `hash` last (the chain hashes everything before it).
  std::string to_jsonl() const;
};

class AuditLog {
 public:
  AuditLog() = default;
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Append one decision. Trace/span join and virtual timestamp come from
  /// the calling thread's obs::current_span_ref(). Returns the record's
  /// chain hash.
  std::string append(
      const std::string& domain, const std::string& kind,
      std::vector<std::pair<std::string, std::string>> fields);

  std::vector<AuditRecord> records() const;
  /// Records joined to one trace id, in append order.
  std::vector<AuditRecord> records_for(const std::string& trace_id) const;
  std::size_t size() const;
  /// Hash of the newest record (the chain head); genesis hash when empty.
  std::string head_hash() const;

  /// JSON-lines export of every retained record, oldest first.
  std::string export_jsonl() const;

  /// Forget all records and restart the chain from genesis.
  void clear();
  /// Retention bound; eviction keeps the chain verifiable mid-stream.
  void set_capacity(std::size_t capacity);

  /// Verify a JSON-lines export: every line's hash must cover its content
  /// (including its embedded prev hash) and consecutive lines must link.
  /// Returns the number of verified records, or the first inconsistency.
  static Result<std::size_t> verify_chain(const std::string& jsonl);

  /// All-zero hex digest that seeds a fresh chain.
  static const std::string& genesis_hash();

  /// The process-wide audit log all library emission points append to.
  static AuditLog& global();

 private:
  mutable std::mutex mutex_;
  std::deque<AuditRecord> records_;
  std::uint64_t next_index_ = 0;
  std::string head_hash_;  // empty = genesis
  std::size_t capacity_ = 65536;
  /// kObsAuditRecordsTotal of each kind appended so far, resolved once.
  std::vector<std::pair<std::string, Counter*>> kind_counters_;
};

}  // namespace e2e::obs
