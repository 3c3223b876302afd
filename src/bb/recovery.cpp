#include "bb/recovery.hpp"

#include <sys/stat.h>

#include <algorithm>

#include "bb/snapshot.hpp"
#include "bb/wal.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"

namespace e2e::bb {

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return !path.empty() && ::stat(path.c_str(), &st) == 0;
}

/// Numeric suffix of a broker-minted handle ("DomainA-resv-17" -> 17,
/// "DomainA-tunnel-3" -> 3); 0 when the handle has a different shape.
std::uint64_t reservation_handle_number(const std::string& id) {
  const std::size_t dash = id.rfind('-');
  if (dash == std::string::npos || dash + 1 >= id.size()) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = dash + 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    value = value * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  return value;
}

void count(const char* metric, const char* label_key,
           const char* label_value, std::uint64_t by = 1) {
  if (by == 0) return;
  obs::MetricsRegistry::global()
      .counter(metric, {{label_key, label_value}})
      .increment(by);
}

struct Replayer {
  BandwidthBroker& broker;
  RecoveryReport& report;
  std::uint64_t max_handle = 0;
  std::uint64_t max_serial = 0;

  void note_handle(const std::string& id) {
    max_handle = std::max(max_handle, reservation_handle_number(id));
  }

  /// Fold one apply outcome into the report: success = replayed,
  /// kConflict/kNotFound = the effect is already present (idempotent
  /// skip), anything else = divergence.
  void applied(const Status& status) {
    if (status.ok()) {
      ++report.replayed;
    } else if (status.error().code == ErrorCode::kConflict ||
               status.error().code == ErrorCode::kNotFound) {
      ++report.skipped_duplicate;
    } else {
      ++report.failed;
    }
  }

  Status restore_from_fields(const WalFields& fields) {
    auto resv = reservation_from_fields(fields);
    if (!resv.ok()) return resv.error();
    note_handle(resv->id);
    return broker.restore_reservation(*resv);
  }

  void replay(const WalRecord& record) {
    if (record.kind == wal_kind::kAdmit) {
      applied(restore_from_fields(record.fields));
    } else if (record.kind == wal_kind::kRelease) {
      auto id = wal_field(record.fields, "id");
      if (!id.ok()) {
        ++report.failed;
        return;
      }
      applied(broker.release(*id));
    } else if (record.kind == wal_kind::kReleaseBatch) {
      Status worst = Status::ok_status();
      for (const WalFields& item : record.items) {
        auto id = wal_field(item, "id");
        if (!id.ok()) {
          worst = id.error();
          continue;
        }
        auto status = broker.release(*id);
        if (!status.ok() && status.error().code != ErrorCode::kNotFound) {
          worst = std::move(status);
        }
      }
      applied(worst);
    } else if (record.kind == wal_kind::kTunnelRegister) {
      auto resv = reservation_from_fields(record.fields);
      if (!resv.ok()) {
        ++report.failed;
        return;
      }
      note_handle(resv->id);
      applied(broker.restore_tunnel(resv->id, resv->spec));
    } else if (record.kind == wal_kind::kTunnelAuthorize) {
      auto tunnel_id = wal_field(record.fields, "tunnel");
      auto user = wal_field(record.fields, "user");
      Tunnel* tunnel =
          tunnel_id.ok() ? broker.find_tunnel(*tunnel_id) : nullptr;
      if (tunnel == nullptr || !user.ok()) {
        ++report.failed;
        return;
      }
      // WAL detached during recovery: the insert cannot fail.
      (void)tunnel->authorize(*user);
      ++report.replayed;
    } else if (record.kind == wal_kind::kTunnelAlloc ||
               record.kind == wal_kind::kTunnelRelease) {
      auto tunnel_id = wal_field(record.fields, "tunnel");
      Tunnel* tunnel =
          tunnel_id.ok() ? broker.find_tunnel(*tunnel_id) : nullptr;
      if (tunnel == nullptr) {
        ++report.failed;
        return;
      }
      if (record.kind == wal_kind::kTunnelRelease) {
        auto sub_id = wal_field(record.fields, "sub_id");
        if (!sub_id.ok()) {
          ++report.failed;
          return;
        }
        applied(tunnel->release(*sub_id));
        return;
      }
      applied(apply_tunnel_alloc(*tunnel, record.fields));
    } else if (record.kind == wal_kind::kDelegationSerial) {
      auto raw = wal_field(record.fields, "serial");
      if (!raw.ok()) {
        ++report.failed;
        return;
      }
      std::uint64_t serial = 0;
      for (const char c : *raw) {
        if (c < '0' || c > '9') {
          ++report.failed;
          return;
        }
        serial = serial * 10 + static_cast<std::uint64_t>(c - '0');
      }
      max_serial = std::max(max_serial, serial + 1);
      ++report.replayed;
    } else {
      ++report.failed;  // unknown kind: refuse silently guessing
    }
  }

  Status apply_tunnel_alloc(Tunnel& tunnel, const WalFields& item) {
    auto sub_id = wal_field(item, "sub_id");
    auto start = wal_field(item, "start");
    auto end = wal_field(item, "end");
    auto raw_rate = wal_field(item, "rate");
    if (!sub_id.ok() || !start.ok() || !end.ok() || !raw_rate.ok()) {
      return make_error(ErrorCode::kBadMessage,
                        "tunnel_alloc record missing fields", "bb.recovery");
    }
    auto rate = wal_parse_double(*raw_rate);
    if (!rate.ok()) return rate.error();
    TimeInterval interval{};
    for (auto [raw, target] :
         {std::pair<const std::string*, SimTime*>{&*start, &interval.start},
          {&*end, &interval.end}}) {
      SimTime value = 0;
      bool neg = false;
      std::size_t i = 0;
      if (!raw->empty() && (*raw)[0] == '-') {
        neg = true;
        i = 1;
      }
      if (i >= raw->size()) {
        return make_error(ErrorCode::kBadMessage, "malformed time field",
                          "bb.recovery");
      }
      for (; i < raw->size(); ++i) {
        const char c = (*raw)[i];
        if (c < '0' || c > '9') {
          return make_error(ErrorCode::kBadMessage, "malformed time field",
                            "bb.recovery");
        }
        value = value * 10 + (c - '0');
      }
      *target = neg ? -value : value;
    }
    note_handle(*sub_id);
    return tunnel.restore_allocation(*sub_id, interval, *rate);
  }
};

}  // namespace

Result<RecoveryReport> recover_broker(BandwidthBroker& broker,
                                      const std::string& snapshot_path,
                                      const std::string& wal_path) {
  RecoveryReport report;
  Replayer replayer{broker, report};
  const auto fail = [&](const Error& error) -> Result<RecoveryReport> {
    count(obs::kBbRecoveryRunsTotal, "result", "error");
    return error;
  };

  // --- Phase 1: the snapshot (if one exists) --------------------------------
  std::uint64_t covered_next_seq = 1;
  std::string expected_head = WriteAheadLog::genesis_hash();
  std::uint64_t next_id_floor = broker.next_id_value();
  std::uint64_t serial_floor = broker.next_certificate_serial_value();
  if (file_exists(snapshot_path)) {
    auto snapshot = read_snapshot(snapshot_path);
    if (!snapshot.ok()) return fail(snapshot.error());
    if (snapshot->meta.domain != broker.domain()) {
      return fail(make_error(ErrorCode::kInvalidArgument,
                             "snapshot is for domain " +
                                 snapshot->meta.domain + ", broker is " +
                                 broker.domain(),
                             "bb.recovery"));
    }
    report.snapshot_loaded = true;
    covered_next_seq = snapshot->meta.wal_next_seq;
    expected_head = snapshot->meta.wal_head;
    next_id_floor = snapshot->meta.next_id;
    serial_floor = snapshot->meta.next_cert_serial;
    broker.restore_counters(snapshot->meta.counters);
    for (const Reservation& resv : snapshot->reservations) {
      replayer.note_handle(resv.id);
      auto status = broker.restore_reservation(resv);
      if (!status.ok()) return fail(status.error());
      ++report.snapshot_reservations;
    }
    for (const SnapshotTunnel& entry : snapshot->tunnels) {
      replayer.note_handle(entry.id);
      auto status = broker.restore_tunnel(entry.id, entry.spec);
      if (!status.ok()) return fail(status.error());
      Tunnel* tunnel = broker.find_tunnel(entry.id);
      for (const std::string& user : entry.authorized) {
        (void)tunnel->authorize(user);  // WAL detached: cannot fail
      }
      for (const CapacityPool::CommitmentView& alloc : entry.allocations) {
        replayer.note_handle(alloc.key);
        auto restored =
            tunnel->restore_allocation(alloc.key, alloc.interval, alloc.rate);
        if (!restored.ok()) return fail(restored.error());
        ++report.snapshot_tunnel_allocations;
      }
      ++report.snapshot_tunnels;
    }
    count(obs::kBbRecoveryReplayedTotal, "source", "snapshot",
          report.snapshot_reservations + report.snapshot_tunnels +
              report.snapshot_tunnel_allocations);
  }

  // --- Phase 2: the WAL tail ------------------------------------------------
  if (!file_exists(wal_path)) {
    if (report.snapshot_loaded && covered_next_seq > 1 &&
        !wal_path.empty()) {
      // The snapshot covers logged records, so a (possibly empty)
      // truncated WAL file must exist — truncation rewrites the file, it
      // never unlinks it. A missing file means the log was deleted:
      // anything acked after the snapshot is silently gone. Refuse.
      return fail(make_error(
          ErrorCode::kBadMessage,
          "wal file " + wal_path + " is missing but the snapshot covers " +
              std::to_string(covered_next_seq - 1) +
              " log records (log deleted?)",
          "bb.recovery"));
    }
  } else {
    auto read = WriteAheadLog::read_file(wal_path);
    if (!read.ok()) return fail(read.error());
    report.torn_tail_dropped = read->torn_tail;
    report.wal_records = read->records.size();
    // Continuity with the snapshot before anything replays. read_file
    // verified the chain WITHIN the file; these checks tie the file to
    // the snapshot's recorded position (meta.wal_head / wal_next_seq), so
    // a swapped, re-truncated or tail-trimmed log cannot recover
    // silently without its acked records.
    if (!read->records.empty()) {
      const WalRecord& first = read->records.front();
      const std::uint64_t last_seq = read->records.back().seq;
      if (first.seq > covered_next_seq) {
        return fail(make_error(
            ErrorCode::kBadMessage,
            "wal starts at seq " + std::to_string(first.seq) +
                " but the snapshot covers through " +
                std::to_string(covered_next_seq - 1) +
                " (records between them are missing)",
            "bb.recovery"));
      }
      if (first.seq == covered_next_seq) {
        // Tail truncated at the snapshot boundary (or a fresh chain with
        // no snapshot): the first record must link to the recorded head.
        if (first.prev_hash != expected_head) {
          return fail(make_error(
              ErrorCode::kBadMessage,
              "wal tail does not link to the " +
                  std::string(report.snapshot_loaded ? "snapshot's chain head"
                                                     : "genesis hash") +
                  " (first record prev mismatch at seq " +
                  std::to_string(first.seq) + ")",
              "bb.recovery"));
        }
      } else if (last_seq + 1 >= covered_next_seq) {
        // Untruncated overlap: the record the snapshot names as its chain
        // head is still in the file — it must carry that exact hash.
        const WalRecord& head =
            read->records[covered_next_seq - 1 - first.seq];
        if (head.hash != expected_head) {
          return fail(make_error(
              ErrorCode::kBadMessage,
              "wal record at seq " + std::to_string(head.seq) +
                  " does not match the snapshot's recorded chain head "
                  "(snapshot and log are from different histories)",
              "bb.recovery"));
        }
      }
      // else: every record predates the snapshot's coverage and the
      // record the snapshot links to never reached the file (it was
      // appended but unsynced at the crash — its effects are inside the
      // snapshot). Nothing is replayable, nothing to verify.
    }
    for (const WalRecord& record : read->records) {
      if (record.seq < covered_next_seq) {
        // The snapshot already captured this record's effect (the log was
        // not truncated at the snapshot boundary — e.g. a crash between
        // snapshot rename and truncation).
        ++report.skipped_covered;
        continue;
      }
      replayer.replay(record);
    }
    if (!read->records.empty()) {
      covered_next_seq =
          std::max(covered_next_seq, read->records.back().seq + 1);
      expected_head = read->records.back().hash;
    }
  }
  report.wal_next_seq = covered_next_seq;
  report.wal_head = expected_head;

  // Fast-forward the id/serial sources past everything ever issued, so the
  // recovered broker can never hand out a handle twice.
  broker.restore_ids(std::max(next_id_floor, replayer.max_handle + 1),
                     std::max(serial_floor, replayer.max_serial));

  count(obs::kBbRecoveryReplayedTotal, "source", "wal", report.replayed);
  count(obs::kBbRecoverySkippedTotal, "reason", "seq_covered",
        report.skipped_covered);
  count(obs::kBbRecoverySkippedTotal, "reason", "already_present",
        report.skipped_duplicate);
  count(obs::kBbRecoveryRunsTotal, "result",
        report.failed == 0 ? "ok" : "error");

  obs::AuditLog::global().append(
      broker.domain(), obs::audit_kind::kRecovery,
      {{"result", report.failed == 0 ? "ok" : "divergent"},
       {"snapshot", report.snapshot_loaded ? "1" : "0"},
       {"replayed", std::to_string(report.replayed)},
       {"skipped", std::to_string(report.skipped_covered +
                                  report.skipped_duplicate)},
       {"failed", std::to_string(report.failed)},
       {"torn_tail", report.torn_tail_dropped ? "1" : "0"}});
  return report;
}

}  // namespace e2e::bb
