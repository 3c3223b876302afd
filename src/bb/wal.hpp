// Write-ahead log for broker durability.
//
// The paper's brokers make advance-reservation *commitments* on behalf of
// users; an SLA-grade broker cannot forget them on a crash. Every
// state-changing admission event — commits, releases and purges, tunnel
// registration/authorization/per-flow allocation, and delegation-serial
// issuance — is appended to this log as one hash-chained JSON line (the
// same tamper-evident chain discipline as the audit log, obs/audit.hpp)
// and fsync'd **before the caller's request is acked**.
//
// Group commit: append() buffers the record and returns its sequence
// number (the LSN); commit(lsn) makes every record up to lsn durable by
// writing and fsyncing everything buffered so far. The group is the set of
// records appended since the last commit, so N appends followed by one
// commit cost N lines but one fsync, and a commit of an LSN already
// covered is free. There is no leader: the log belongs to one broker and
// is driven by the thread that owns its world (docs/ARCHITECTURE.md).
//
// The recovery contract (docs/DURABILITY.md): replaying a snapshot plus
// the log tail into a fresh broker reproduces the exact pre-crash pool
// timeline. A torn final record (partial write at the crash point) is
// detected and dropped; a corrupted or reordered record anywhere else
// breaks the hash chain and fails recovery instead of replaying garbage.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bb/reservation.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"

namespace e2e::obs {
class Counter;
class Histogram;
}  // namespace e2e::obs

namespace e2e::bb {

/// The closed set of WAL record kinds (documented field by field in
/// docs/DURABILITY.md; recovery.cpp rejects anything else).
namespace wal_kind {
inline constexpr char kAdmit[] = "admit";
inline constexpr char kRelease[] = "release";
inline constexpr char kReleaseBatch[] = "release_batch";
inline constexpr char kTunnelRegister[] = "tunnel_register";
inline constexpr char kTunnelAuthorize[] = "tunnel_authorize";
inline constexpr char kTunnelAlloc[] = "tunnel_alloc";
inline constexpr char kTunnelRelease[] = "tunnel_release";
inline constexpr char kDelegationSerial[] = "delegation_serial";
}  // namespace wal_kind

/// Flat key/value payload of one record (all values are JSON strings;
/// numeric fields are rendered with round-trip precision).
using WalFields = std::vector<std::pair<std::string, std::string>>;

/// Round-trip-exact decimal rendering for rates/costs (%.17g).
std::string wal_format_double(double v);
Result<double> wal_parse_double(const std::string& s);

/// Look up `key` in `fields`; kBadMessage if absent.
Result<std::string> wal_field(const WalFields& fields, const std::string& key);

/// Render / parse one flat string->string JSON object (one snapshot line;
/// bb/snapshot.cpp shares the WAL's escaping and parsing discipline).
std::string wal_render_flat_object(const WalFields& fields);
Result<WalFields> wal_parse_flat_object(const std::string& line);

/// Durably replace `path` with `content`: write `path.tmp`, fsync it,
/// rename over `path`, then fsync the containing directory so the rename
/// itself survives power loss. With durable=false every fsync is skipped
/// (SyncMode::kNone measurement runs only).
Status wal_replace_file_durable(const std::string& path,
                                const std::string& content, bool durable);

/// A broker reservation record as WAL fields (id, upstream and the full
/// ResSpec) and back. Used by admit/release/tunnel records and by the
/// snapshot's reservation lines — one schema, documented in
/// docs/DURABILITY.md.
WalFields reservation_to_fields(const Reservation& reservation);
Result<Reservation> reservation_from_fields(const WalFields& fields);

struct WalRecord {
  std::uint64_t seq = 0;  ///< LSN; monotonic across truncations.
  SimTime at = 0;         ///< Virtual time of the decision being logged.
  std::string domain;     ///< Broker domain that owns the log.
  std::string kind;       ///< wal_kind::*
  WalFields fields;       ///< Kind-specific payload.
  /// Batch records (release_batch) carry one entry per element; the whole
  /// batch is one record, so it is applied atomically on replay.
  std::vector<WalFields> items;
  std::string prev_hash;  ///< Hex SHA-256 of the previous record.
  std::string hash;       ///< Hex SHA-256 over prev_hash + this record.

  /// One JSON line, `hash` last (the chain hashes everything before it).
  std::string to_jsonl() const;
};

class WriteAheadLog {
 public:
  enum class SyncMode {
    /// Records are written but never fsync'd — no durability guarantee.
    /// Useful only for measuring the pure serialization overhead.
    kNone,
    /// fsync-before-ack (the durability contract).
    kFsync,
  };

  /// Open (create or append to) the log at `path`. An existing file's
  /// chain is verified end to end and its head hash / next sequence are
  /// adopted, so a reopened log continues the same chain. A torn final
  /// record in the existing file is truncated away (it was never acked).
  /// `min_next_seq` keeps sequence numbers monotonic across snapshot
  /// truncation: reopening an emptied log after a crash passes the
  /// snapshot's `wal_next_seq` so new records never reuse covered numbers.
  /// `head_hash` continues the chain across the same boundary: when the
  /// file holds no records (everything was truncated into a snapshot),
  /// the first new record links to this hash — pass the snapshot's
  /// `wal_head` (or the recovery report's) so the recovery-time
  /// continuity check still ties the tail to the snapshot. Ignored when
  /// the file has records (their head wins).
  static Result<std::unique_ptr<WriteAheadLog>> open(
      const std::string& path, SyncMode mode = SyncMode::kFsync,
      std::uint64_t min_next_seq = 1, const std::string& head_hash = {});

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append one record (buffered); returns its LSN. Not yet durable —
  /// call commit(lsn) before acking the caller.
  std::uint64_t append(const std::string& domain, const std::string& kind,
                       WalFields fields, std::vector<WalFields> items = {});

  /// Make every record up to `lsn` durable: return at once if an earlier
  /// commit already covered it, otherwise write and fsync the whole buffer
  /// (every record appended so far, `lsn` included).
  ///
  /// A write or fsync failure LATCHES the log into a permanent-failure
  /// state: the failed batch is discarded, and every subsequent commit()
  /// (and truncate_through()) returns the latched error. Continuing to
  /// append past a lost batch would put a sequence gap and a chain break
  /// on disk — recovery would then reject records acked *after* the
  /// error, so the log refuses to ack anything further instead. (A failed
  /// fsync may still have persisted the batch; replaying such a record
  /// after the broker unwound its grant only re-reserves capacity that no
  /// caller was ever acked — conservative, never a double-grant.)
  Status commit(std::uint64_t lsn);

  /// Make the next commit's write fail (test hook for the
  /// latch + caller-unwind paths; real injection would need a full fs
  /// fault harness).
  void inject_commit_failure_for_testing();

  /// append + commit in one call.
  Status log(const std::string& domain, const std::string& kind,
             WalFields fields, std::vector<WalFields> items = {});

  const std::string& path() const { return path_; }
  SyncMode sync_mode() const { return mode_; }
  /// LSN the next append will get.
  std::uint64_t next_seq() const { return next_seq_; }
  /// Chain head (hash of the newest record; genesis when empty).
  std::string head_hash() const;

  /// Snapshot support: drop every record up to and including
  /// `covered_seq` (they are captured by a snapshot). Records after it
  /// are rewritten to a fresh file; the chain is NOT restarted — the
  /// surviving records keep their hashes, so a snapshot's recorded chain
  /// head still links to the first surviving line. Returns the number of
  /// records dropped.
  Result<std::size_t> truncate_through(std::uint64_t covered_seq);

  /// Verify the chain of a log file; returns the number of verified
  /// records (a torn final record is NOT an error — it is reported via
  /// read_file). Any other inconsistency is an error.
  static Result<std::size_t> verify_file(const std::string& path);

  struct ReadResult {
    std::vector<WalRecord> records;
    /// True when the final line was torn (partial write) and dropped.
    bool torn_tail = false;
  };
  /// Read and verify a log file. A torn FINAL record is dropped and
  /// flagged; a broken chain or malformed record anywhere else is an
  /// error — recovery must refuse to replay a tampered log.
  static Result<ReadResult> read_file(const std::string& path);
  /// Same, over in-memory content (crash-point tests feed file prefixes).
  static Result<ReadResult> read_content(const std::string& content);

  /// All-zero hex digest seeding a fresh chain (same as the audit log's).
  static const std::string& genesis_hash();

 private:
  WriteAheadLog(std::string path, SyncMode mode, int fd,
                std::uint64_t next_seq, std::string head_hash);

  void ensure_instruments();
  /// Cached per-kind e2e_bb_wal_records_total counter. The wal_kind set is
  /// closed, so all of them resolve once at open; append() never takes the
  /// registry mutex (a per-append labeled lookup was a measurable slice of
  /// the nosync anomaly).
  obs::Counter* records_counter_for(const std::string& kind) const;

  std::string path_;
  SyncMode mode_;
  int fd_ = -1;

  std::string buffer_;             // appended-but-unwritten lines
  std::uint64_t next_seq_ = 1;     // LSN of the next append
  std::uint64_t durable_seq_ = 0;  // highest durable LSN (0 = none)
  std::size_t buffered_records_ = 0;
  Status fail_status_;  // non-ok = latched permanent failure
  bool fail_next_commit_for_testing_ = false;
  std::string head_hash_;  // empty = genesis

  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* fsyncs_counter_ = nullptr;
  obs::Histogram* group_size_hist_ = nullptr;
  std::array<std::pair<const char*, obs::Counter*>, 8> records_counters_{};
};

}  // namespace e2e::bb
