// Differential crash-recovery suite (ISSUE 6 tentpole).
//
// Every test drives a LIVE broker (the in-memory oracle) with a WAL
// attached, "crashes" it by dropping the WAL object (the on-disk file keeps
// exactly what was acked), replays snapshot + log tail into a FRESH broker
// and compares the recovered state against the oracle: the pool timeline at
// every interval boundary, the reservation and tunnel sets, and the
// id/serial sources. Edge cases: torn final record (dropped, never acked),
// corrupted or missing mid-log record (refused outright), snapshot with an
// empty tail, an un-truncated snapshot/tail overlap, grants acked after
// the snapshot was taken, and a record of a kind recovery no longer knows.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "bb/recovery.hpp"
#include "bb/snapshot.hpp"
#include "bb/wal.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"

namespace e2e::bb {
namespace {

const TimeInterval kLongValidity{0, hours(24 * 365)};
const char kAlice[] = "CN=Alice,O=DomainA,C=US";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void dump(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

struct RecoveryFixture {
  Rng rng{4242};
  crypto::CertificateAuthority ca{
      crypto::DistinguishedName::make("CA-B", "DomainB"), rng, kLongValidity,
      256};
  BandwidthBroker live{broker_config(), grant_policy(), ca, rng,
                       kLongValidity};
  /// The blank slate recovery replays into (same domain/capacity/SLAs;
  /// fresh key material).
  BandwidthBroker fresh{broker_config(), grant_policy(), ca, rng,
                        kLongValidity};
  std::string wal_path;
  std::string snap_path;
  std::unique_ptr<WriteAheadLog> wal;

  explicit RecoveryFixture(const std::string& tag) {
    live.add_upstream_sla(sla_from_a());
    fresh.add_upstream_sla(sla_from_a());
    wal_path = ::testing::TempDir() + "bb_recovery_" + tag + ".wal";
    snap_path = ::testing::TempDir() + "bb_recovery_" + tag + ".snapshot";
    std::remove(wal_path.c_str());
    std::remove(snap_path.c_str());
    auto opened = WriteAheadLog::open(wal_path);
    if (!opened.ok()) {
      throw std::runtime_error("wal open: " + opened.error().to_text());
    }
    wal = std::move(*opened);
    live.attach_wal(wal.get());
  }

  static BrokerConfig broker_config() {
    return BrokerConfig{"DomainB", 100e6, 256};
  }
  static policy::PolicyServer grant_policy() {
    return policy::PolicyServer(
        "DomainB", policy::Policy::compile("Return GRANT").value());
  }
  static sla::ServiceLevelAgreement sla_from_a() {
    sla::ServiceLevelAgreement a;
    a.from_domain = "DomainA";
    a.to_domain = "DomainB";
    a.profile.rate_bits_per_s = 50e6;
    a.profile.burst_bits = 50000;
    a.validity = kLongValidity;
    a.price_per_mbit_s = 0.01;
    return a;
  }

  ResSpec spec(double rate, TimeInterval iv = {0, seconds(600)}) const {
    ResSpec s;
    s.user = kAlice;
    s.source_domain = "DomainA";
    s.destination_domain = "DomainC";
    s.rate_bits_per_s = rate;
    s.burst_bits = 30000;
    s.interval = iv;
    return s;
  }

  /// The process dies: the WAL object goes away; the file stays.
  void crash() {
    live.attach_wal(nullptr);
    wal.reset();
  }

  Result<RecoveryReport> recover() {
    return recover_broker(fresh, snap_path, wal_path);
  }
};

/// A mixed scripted workload covering every WAL record kind. Returns the
/// granted reservation handles in issue order.
std::vector<ReservationId> run_workload(RecoveryFixture& f) {
  std::vector<ReservationId> ids;
  auto grant = [&](Result<ReservationId> r) {
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_text());
    if (r.ok()) ids.push_back(*r);
  };
  // Local + transit singles, one of them short-lived (purged below).
  grant(f.live.commit(f.spec(10e6, {0, seconds(600)}), ""));
  grant(f.live.commit(f.spec(20e6, {seconds(100), seconds(700)}), "DomainA"));
  grant(f.live.commit(f.spec(3e6, {0, seconds(50)}), ""));
  grant(f.live.commit(f.spec(5e6, {seconds(10), seconds(400)}), ""));
  grant(f.live.commit(f.spec(6e6, {seconds(20), seconds(500)}), ""));
  grant(f.live.commit(f.spec(7e6, {seconds(30), seconds(800)}), ""));
  // Delegation serials.
  (void)f.live.next_certificate_serial();
  (void)f.live.next_certificate_serial();
  // A tunnel with three sub-flow allocations and one release.
  ResSpec aggregate = f.spec(30e6, {0, seconds(3600)});
  aggregate.is_tunnel = true;
  auto tid = f.live.register_tunnel(aggregate);
  EXPECT_TRUE(tid.ok()) << (tid.ok() ? "" : tid.error().to_text());
  Tunnel* tunnel = f.live.find_tunnel(*tid);
  EXPECT_TRUE(tunnel->authorize(kAlice).ok());
  EXPECT_TRUE(
      tunnel->allocate("flow-a", kAlice, {0, seconds(1200)}, 5e6).ok());
  EXPECT_TRUE(
      tunnel->allocate("flow-b", kAlice, {seconds(60), seconds(900)}, 4e6)
          .ok());
  EXPECT_TRUE(
      tunnel->allocate("flow-c", kAlice, {seconds(120), seconds(1500)}, 3e6)
          .ok());
  EXPECT_TRUE(tunnel->release("flow-b").ok());
  // A release and an expiry purge (one batch record).
  EXPECT_TRUE(f.live.release(ids[0]).ok());
  EXPECT_EQ(f.live.purge_expired(seconds(60)), 1u);  // the {0,50s} one
  return ids;
}

/// Times worth probing: every interval boundary of every commitment, plus
/// one tick either side and the midpoint.
std::vector<SimTime> probe_times(const BandwidthBroker& broker) {
  std::set<SimTime> ts{0};
  auto add = [&](const TimeInterval& iv) {
    for (SimTime t : {iv.start - 1, iv.start, iv.start + 1,
                      (iv.start + iv.end) / 2, iv.end - 1, iv.end,
                      iv.end + 1}) {
      ts.insert(t);
    }
  };
  for (const Reservation& r : broker.all_reservations()) add(r.spec.interval);
  for (const Tunnel* t : broker.all_tunnels()) {
    add(t->spec().interval);
    for (const auto& a : t->allocations()) add(a.interval);
  }
  return {ts.begin(), ts.end()};
}

/// THE recovery invariant: replay ≡ oracle.
void expect_equivalent(const BandwidthBroker& oracle,
                       const BandwidthBroker& recovered) {
  // Reservation records, field by field.
  const auto ra = oracle.all_reservations();
  const auto rb = recovered.all_reservations();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].upstream_domain, rb[i].upstream_domain);
    EXPECT_EQ(ra[i].state, rb[i].state);
    EXPECT_TRUE(ra[i].spec == rb[i].spec) << "spec mismatch for " << ra[i].id;
  }
  // The pool timeline, probed at every boundary the oracle knows about.
  for (SimTime t : probe_times(oracle)) {
    EXPECT_DOUBLE_EQ(oracle.committed_at(t), recovered.committed_at(t))
        << "committed_at(" << t << ") diverges";
  }
  // Tunnels: spec, authorization set, and each per-flow allocation.
  const auto ta = oracle.all_tunnels();
  const auto tb = recovered.all_tunnels();
  ASSERT_EQ(ta.size(), tb.size());
  std::map<TunnelId, const Tunnel*> by_id;
  for (const Tunnel* t : tb) by_id[t->id()] = t;
  for (const Tunnel* t : ta) {
    ASSERT_TRUE(by_id.contains(t->id())) << "missing tunnel " << t->id();
    const Tunnel* other = by_id[t->id()];
    EXPECT_TRUE(t->spec() == other->spec());
    EXPECT_EQ(t->authorized(), other->authorized());
    const auto aa = t->allocations();
    const auto ab = other->allocations();
    ASSERT_EQ(aa.size(), ab.size()) << "tunnel " << t->id();
    for (std::size_t i = 0; i < aa.size(); ++i) {
      EXPECT_EQ(aa[i].key, ab[i].key);
      EXPECT_EQ(aa[i].interval.start, ab[i].interval.start);
      EXPECT_EQ(aa[i].interval.end, ab[i].interval.end);
      EXPECT_DOUBLE_EQ(aa[i].rate, ab[i].rate);
    }
    EXPECT_DOUBLE_EQ(t->allocated_peak(t->spec().interval),
                     other->allocated_peak(t->spec().interval));
  }
  // Handle/serial sources: a recovered broker continues exactly where the
  // crashed one left off (every issued handle was durable here).
  EXPECT_EQ(oracle.next_id_value(), recovered.next_id_value());
  EXPECT_EQ(oracle.next_certificate_serial_value(),
            recovered.next_certificate_serial_value());
}

TEST(WalRecovery, DifferentialReplayWithoutSnapshot) {
  RecoveryFixture f("tail_only");
  run_workload(f);
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_FALSE(report->snapshot_loaded);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->skipped_covered, 0u);
  EXPECT_EQ(report->skipped_duplicate, 0u);
  EXPECT_FALSE(report->torn_tail_dropped);
  EXPECT_GT(report->replayed, 0u);
  expect_equivalent(f.live, f.fresh);
}

TEST(WalRecovery, SnapshotPlusTailMatchesOracle) {
  RecoveryFixture f("snap_tail");
  const auto ids = run_workload(f);
  const auto dropped = snapshot_and_truncate(f.live, *f.wal, f.snap_path);
  ASSERT_TRUE(dropped.ok()) << dropped.error().to_text();
  EXPECT_GT(*dropped, 0u);
  // More acked work after the checkpoint: new grants, a release of a
  // pre-snapshot reservation, a new tunnel flow.
  ASSERT_TRUE(f.live.commit(f.spec(8e6, {seconds(200), seconds(900)}), "")
                  .ok());
  ASSERT_TRUE(f.live.release(ids[1]).ok());
  Tunnel* tunnel = f.live.find_tunnel(f.live.all_tunnels().front()->id());
  ASSERT_TRUE(
      tunnel->allocate("flow-d", kAlice, {seconds(300), seconds(2000)}, 2e6)
          .ok());
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_TRUE(report->snapshot_loaded);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->skipped_covered, 0u);  // the covered prefix was dropped
  EXPECT_GT(report->replayed, 0u);
  expect_equivalent(f.live, f.fresh);
}

TEST(WalRecovery, SnapshotWithEmptyTail) {
  RecoveryFixture f("snap_empty");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_TRUE(report->snapshot_loaded);
  EXPECT_EQ(report->wal_records, 0u);
  EXPECT_EQ(report->failed, 0u);
  expect_equivalent(f.live, f.fresh);
  // With no tail, even the statistics counters round-trip exactly.
  const auto ca = f.live.counters();
  const auto cb = f.fresh.counters();
  EXPECT_EQ(ca.requests, cb.requests);
  EXPECT_EQ(ca.granted, cb.granted);
  EXPECT_EQ(ca.denied_admission, cb.denied_admission);
  EXPECT_EQ(ca.released, cb.released);
}

TEST(WalRecovery, UntruncatedOverlapIsSkippedBySequence) {
  RecoveryFixture f("overlap");
  run_workload(f);
  // Snapshot WITHOUT truncating (crash between snapshot rename and
  // truncation): the tail then overlaps the snapshot's covered prefix.
  ASSERT_TRUE(write_snapshot(f.live, f.wal.get(), f.snap_path).ok());
  ASSERT_TRUE(f.live.commit(f.spec(4e6, {seconds(40), seconds(640)}), "")
                  .ok());
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_TRUE(report->snapshot_loaded);
  EXPECT_GT(report->skipped_covered, 0u);
  EXPECT_EQ(report->skipped_duplicate, 0u);
  EXPECT_EQ(report->failed, 0u);
  expect_equivalent(f.live, f.fresh);
}

TEST(WalRecovery, GrantsAckedAfterSnapshotReplay) {
  RecoveryFixture f("late_grants");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  const std::vector<Result<ReservationId>> grants = {
      f.live.commit(f.spec(2e6, {seconds(50), seconds(450)}), "DomainA"),
      f.live.commit(f.spec(1e6, {seconds(60), seconds(460)}), "DomainA")};
  for (const auto& r : grants) ASSERT_TRUE(r.ok());
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failed, 0u);
  for (const auto& r : grants) {
    EXPECT_NE(f.fresh.find(*r), nullptr)
        << "acked post-snapshot grant " << *r << " lost";
  }
  expect_equivalent(f.live, f.fresh);
}

TEST(WalRecovery, RemovedBatchKindIsCountedAsFailed) {
  // Logs written before batch admission was removed may hold an
  // `admit_batch` record. It is well chained, so the log reads back, but
  // recovery has no branch for the kind: it is counted as failed and its
  // grants are not installed.
  RecoveryFixture f("removed_kind");
  ResSpec spec = f.spec(5e6, {seconds(10), seconds(400)});
  const Reservation resv{"DomainB-resv-7", spec, ReservationState::kGranted,
                         ""};
  ASSERT_TRUE(f.wal
                  ->log("DomainB", "admit_batch",
                        {{"upstream", ""}, {"count", "1"}},
                        {reservation_to_fields(resv)})
                  .ok());
  f.crash();
  ASSERT_EQ(WriteAheadLog::verify_file(f.wal_path).value_or(0), 1u);
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->wal_records, 1u);
  EXPECT_EQ(report->failed, 1u);
  EXPECT_EQ(report->replayed, 0u);
  EXPECT_EQ(f.fresh.reservation_count(), 0u);
  EXPECT_EQ(f.fresh.find(resv.id), nullptr);
  EXPECT_DOUBLE_EQ(f.fresh.committed_at(seconds(100)), 0.0);
}

TEST(WalRecovery, TornFinalRecordIsDroppedNotReplayed) {
  RecoveryFixture f("torn");
  run_workload(f);
  // State probe BEFORE the final op: the torn record was never acked, so
  // recovery must land exactly here.
  const std::vector<SimTime> ts = probe_times(f.live);
  std::vector<double> before;
  for (SimTime t : ts) before.push_back(f.live.committed_at(t));
  const auto last = f.live.commit(f.spec(9e6, {0, seconds(500)}), "");
  ASSERT_TRUE(last.ok());
  f.crash();
  // Tear the final record: keep everything up to the last newline, plus a
  // fragment of the final line.
  std::string content = slurp(f.wal_path);
  ASSERT_FALSE(content.empty());
  const std::size_t last_nl = content.rfind('\n');
  const std::size_t prev_nl = content.rfind('\n', last_nl - 1);
  ASSERT_NE(prev_nl, std::string::npos);
  dump(f.wal_path, content.substr(0, prev_nl + 1 + 17));
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_TRUE(report->torn_tail_dropped);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(f.fresh.find(*last), nullptr);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.fresh.committed_at(ts[i]), before[i]);
  }
}

TEST(WalRecovery, CorruptedMidLogRecordIsRefused) {
  RecoveryFixture f("tamper");
  run_workload(f);
  f.crash();
  // Flip the recorded domain inside the SECOND record: the line still
  // parses, but its hash no longer matches — tampered, not torn.
  std::string content = slurp(f.wal_path);
  const std::size_t second = content.find('\n') + 1;
  const std::size_t field = content.find("\"domain\":\"DomainB\"", second);
  ASSERT_NE(field, std::string::npos);
  content[field + std::string("\"domain\":\"Domain").size()] = 'X';
  dump(f.wal_path, content);
  EXPECT_FALSE(WriteAheadLog::verify_file(f.wal_path).ok());
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
  // Nothing was replayed into the fresh broker.
  EXPECT_EQ(f.fresh.reservation_count(), 0u);
}

TEST(WalRecovery, MissingMidLogRecordIsRefused) {
  RecoveryFixture f("gap");
  run_workload(f);
  f.crash();
  // Delete the second line outright: the chain link (and the sequence
  // numbering) breaks at the splice point.
  std::string content = slurp(f.wal_path);
  const std::size_t first_nl = content.find('\n');
  const std::size_t second_nl = content.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  content.erase(first_nl + 1, second_nl - first_nl);
  dump(f.wal_path, content);
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
}

TEST(WalRecovery, EveryByteCutLeavesAReadablePrefix) {
  // A crash can cut the log at ANY byte (the final record may be torn, but
  // everything before it was written sequentially). Every prefix must
  // read back as an exact prefix of the full record list — never an error,
  // never a reordering.
  RecoveryFixture f("bytecut");
  ASSERT_TRUE(f.live.commit(f.spec(10e6, {0, seconds(600)}), "").ok());
  ASSERT_TRUE(
      f.live.commit(f.spec(20e6, {seconds(10), seconds(700)}), "DomainA")
          .ok());
  (void)f.live.next_certificate_serial();
  ASSERT_TRUE(f.live.commit(f.spec(5e6, {seconds(20), seconds(800)}), "")
                  .ok());
  f.crash();
  const std::string content = slurp(f.wal_path);
  const auto full = WriteAheadLog::read_content(content);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size(), 4u);
  for (std::size_t cut = 0; cut <= content.size(); ++cut) {
    const auto r = WriteAheadLog::read_content(content.substr(0, cut));
    ASSERT_TRUE(r.ok()) << "cut at byte " << cut << ": "
                        << r.error().to_text();
    ASSERT_LE(r->records.size(), full->records.size());
    for (std::size_t i = 0; i < r->records.size(); ++i) {
      ASSERT_EQ(r->records[i].hash, full->records[i].hash)
          << "cut at byte " << cut << " is not a prefix";
    }
    // A mid-line cut is a torn tail; a cut exactly on a record boundary
    // is clean.
    const bool on_boundary =
        cut == 0 || (cut <= content.size() && content[cut - 1] == '\n');
    EXPECT_EQ(r->torn_tail, !on_boundary) << "cut at byte " << cut;
  }
}

TEST(WalRecovery, CheckpointRestartCrashRecoverCycle) {
  // Full operational cycle: work, checkpoint (snapshot + truncate), restart
  // the log with the snapshot's floor, more work, crash, recover. Sequence
  // numbers must stay monotonic across the truncation or the tail would be
  // mistaken for covered records.
  RecoveryFixture f("cycle");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  const auto snapshot = read_snapshot(f.snap_path);
  ASSERT_TRUE(snapshot.ok());
  // "Restart": reopen the (now truncated) log exactly as a restarted
  // deployment would, passing the snapshot's covered position as the floor.
  f.live.attach_wal(nullptr);
  f.wal.reset();
  auto reopened = WriteAheadLog::open(f.wal_path, WriteAheadLog::SyncMode::kFsync,
                                      snapshot->meta.wal_next_seq,
                                      snapshot->meta.wal_head);
  ASSERT_TRUE(reopened.ok());
  f.wal = std::move(*reopened);
  EXPECT_GE(f.wal->next_seq(), snapshot->meta.wal_next_seq);
  f.live.attach_wal(f.wal.get());
  ASSERT_TRUE(f.live.commit(f.spec(6e6, {seconds(70), seconds(670)}), "")
                  .ok());
  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->skipped_covered, 0u);
  expect_equivalent(f.live, f.fresh);
}

TEST(WalRecovery, MalformedCompleteFinalLineIsRefused) {
  // A newline-terminated final line that fails verification is an edited
  // acked record, NOT a torn write (a crash tears the final line at a
  // byte boundary, leaving no trailing newline). It must refuse recovery,
  // not be silently dropped as "torn".
  RecoveryFixture f("bad_final");
  run_workload(f);
  f.crash();
  std::string content = slurp(f.wal_path);
  ASSERT_EQ(content.back(), '\n');
  const std::size_t prev_nl = content.rfind('\n', content.size() - 2);
  ASSERT_NE(prev_nl, std::string::npos);
  content[prev_nl + 20] ^= 0x01;  // flip one byte inside the LAST record
  dump(f.wal_path, content);
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
  EXPECT_EQ(f.fresh.reservation_count(), 0u);
}

TEST(WalRecovery, MissingWalFileAfterCheckpointIsRefused) {
  // The snapshot names covered log records, so a truncated (possibly
  // empty) WAL file must exist — a missing file means the log was deleted
  // along with anything acked after the checkpoint.
  RecoveryFixture f("no_wal");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  f.crash();
  ASSERT_EQ(std::remove(f.wal_path.c_str()), 0);
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
}

TEST(WalRecovery, TruncatedWalWithoutItsSnapshotIsRefused) {
  // Deleting the snapshot while keeping the truncated tail must not
  // recover silently: without the snapshot the tail's first record fails
  // both the seq-continuity and the genesis-link check.
  RecoveryFixture f("no_snap");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  ASSERT_TRUE(f.live.commit(f.spec(2e6, {seconds(5), seconds(300)}), "").ok());
  f.crash();
  ASSERT_EQ(std::remove(f.snap_path.c_str()), 0);
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
  EXPECT_EQ(f.fresh.reservation_count(), 0u);
}

TEST(WalRecovery, SnapshotHeadMismatchIsRefused) {
  // A snapshot/log pair from different histories: forge the snapshot's
  // recorded wal_head (recomputing its integrity trailer, as an attacker
  // with file access could) — the tail no longer links to it.
  RecoveryFixture f("head_mismatch");
  run_workload(f);
  ASSERT_TRUE(snapshot_and_truncate(f.live, *f.wal, f.snap_path).ok());
  ASSERT_TRUE(f.live.commit(f.spec(2e6, {seconds(5), seconds(300)}), "").ok());
  f.crash();
  std::string content = slurp(f.snap_path);
  const std::size_t head_at = content.find("\"wal_head\":\"");
  ASSERT_NE(head_at, std::string::npos);
  const std::size_t head_val = head_at + std::string("\"wal_head\":\"").size();
  content.replace(head_val, WriteAheadLog::genesis_hash().size(),
                  WriteAheadLog::genesis_hash());
  // Recompute the trailer so only the continuity check can catch it.
  const std::size_t end_line = content.rfind("{\"type\":\"end\"");
  ASSERT_NE(end_line, std::string::npos);
  const std::string covered = content.substr(0, end_line);
  std::string trailer = content.substr(end_line);
  const std::size_t hash_at = trailer.find("\"hash\":\"");
  ASSERT_NE(hash_at, std::string::npos);
  trailer.replace(hash_at + std::string("\"hash\":\"").size(),
                  obs::kChainHexDigestLen, obs::chain_sha256_hex(covered));
  dump(f.snap_path, covered + trailer);
  ASSERT_TRUE(read_snapshot(f.snap_path).ok());  // forgery is self-consistent
  const auto report = f.recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kBadMessage);
}

TEST(WalRecovery, CommitFailureLatchesTheLogAndUnwindsCallers) {
  // A failed write/fsync must not let later commits chain past the lost
  // batch (the on-disk log would carry a seq gap poisoning every later
  // acked record). The log latches; callers unwind and nothing latched
  // was ever acked, so the surviving file still replays cleanly.
  RecoveryFixture f("latch");
  run_workload(f);
  const std::size_t reservations = f.live.reservation_count();
  const std::size_t tunnels = f.live.tunnel_count();
  const std::vector<SimTime> ts = probe_times(f.live);
  std::vector<double> committed;
  for (SimTime t : ts) committed.push_back(f.live.committed_at(t));

  f.wal->inject_commit_failure_for_testing();
  EXPECT_FALSE(f.live.commit(f.spec(1e6, {0, seconds(100)}), "").ok());
  // Latched: every further durable operation fails...
  EXPECT_FALSE(f.live.commit(f.spec(1e6, {0, seconds(100)}), "").ok());
  // ...and register_tunnel unwinds its in-memory insert on the error.
  ResSpec agg = f.spec(5e6, {0, seconds(600)});
  agg.is_tunnel = true;
  EXPECT_FALSE(f.live.register_tunnel(agg).ok());
  EXPECT_EQ(f.live.tunnel_count(), tunnels);
  // The broker unwound every failed grant: in-memory state is unchanged.
  EXPECT_EQ(f.live.reservation_count(), reservations);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.live.committed_at(ts[i]), committed[i]);
  }

  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(f.fresh.reservation_count(), reservations);
  EXPECT_EQ(f.fresh.tunnel_count(), tunnels);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.fresh.committed_at(ts[i]), committed[i]);
  }
}

TEST(WalRecovery, OneCommitCoversEveryEarlierAppend) {
  // The group is whatever was appended since the last commit: N appends
  // followed by commit(last) write and fsync all N at once, and a later
  // commit of an LSN already covered costs nothing.
  const std::string path = ::testing::TempDir() + "bb_wal_group.wal";
  std::remove(path.c_str());
  auto opened = WriteAheadLog::open(path);
  ASSERT_TRUE(opened.ok()) << opened.error().to_text();
  WriteAheadLog& wal = **opened;
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& fsyncs = registry.counter(obs::kBbWalFsyncsTotal);
  obs::Histogram& group = registry.histogram(obs::kBbWalGroupCommitRecords);
  const std::uint64_t fsyncs_before = fsyncs.value();
  const std::uint64_t groups_before = group.count();
  const double records_before = group.sum();

  constexpr std::uint64_t kAppends = 5;
  std::vector<std::uint64_t> lsns;
  for (std::uint64_t i = 0; i < kAppends; ++i) {
    lsns.push_back(wal.append("DomainB", wal_kind::kDelegationSerial,
                              {{"serial", std::to_string(100 + i)}}));
  }
  // Appended but not committed: nothing is on disk yet.
  auto read = WriteAheadLog::read_file(path);
  ASSERT_TRUE(read.ok()) << read.error().to_text();
  EXPECT_TRUE(read->records.empty());

  ASSERT_TRUE(wal.commit(lsns.back()).ok());
  EXPECT_EQ(fsyncs.value() - fsyncs_before, 1u);
  EXPECT_EQ(group.count() - groups_before, 1u);
  EXPECT_DOUBLE_EQ(group.sum() - records_before,
                   static_cast<double>(kAppends));
  read = WriteAheadLog::read_file(path);
  ASSERT_TRUE(read.ok()) << read.error().to_text();
  ASSERT_EQ(read->records.size(), kAppends);
  for (std::size_t i = 0; i < kAppends; ++i) {
    EXPECT_EQ(read->records[i].seq, lsns[i]);
  }

  // Already durable: no second write, no second fsync.
  ASSERT_TRUE(wal.commit(lsns.front()).ok());
  EXPECT_EQ(fsyncs.value() - fsyncs_before, 1u);
  EXPECT_EQ(group.count() - groups_before, 1u);
}

TEST(WalRecovery, TruncateWithBufferedAppendsLosesNothing) {
  // A checkpoint truncates the log up to what its snapshot covers. Records
  // appended after the snapshot but not yet committed sit in the buffer
  // when the truncation runs; it writes them out before it rewrites the
  // file, so they survive both the rewrite and recovery.
  RecoveryFixture f("trunc_buffered");
  std::vector<ReservationId> granted;
  for (int i = 0; i < 6; ++i) {
    const SimTime start = seconds(i * 100);
    auto r = f.live.commit(f.spec(1e6, {start, start + seconds(300)}), "");
    ASSERT_TRUE(r.ok()) << r.error().to_text();
    granted.push_back(*r);
  }
  ASSERT_TRUE(write_snapshot(f.live, f.wal.get(), f.snap_path).ok());
  const std::uint64_t covered = f.wal->next_seq() - 1;

  // Two delegation serials appended but not committed.
  const std::uint64_t serial = f.live.next_certificate_serial_value();
  const std::uint64_t first = f.wal->append(
      "DomainB", wal_kind::kDelegationSerial,
      {{"serial", std::to_string(serial)}});
  const std::uint64_t last = f.wal->append(
      "DomainB", wal_kind::kDelegationSerial,
      {{"serial", std::to_string(serial + 1)}});
  const auto dropped = f.wal->truncate_through(covered);
  ASSERT_TRUE(dropped.ok()) << dropped.error().to_text();
  EXPECT_EQ(*dropped, granted.size());

  // Both buffered records are on disk after the rewrite...
  const auto read = WriteAheadLog::read_file(f.wal_path);
  ASSERT_TRUE(read.ok()) << read.error().to_text();
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records.front().seq, first);
  EXPECT_EQ(read->records.back().seq, last);
  // ...their commit has nothing left to do, and the log keeps accepting
  // grants.
  ASSERT_TRUE(f.wal->commit(last).ok());
  auto late = f.live.commit(f.spec(1e6, {0, seconds(30)}), "");
  ASSERT_TRUE(late.ok()) << late.error().to_text();
  granted.push_back(*late);

  f.crash();
  const auto report = f.recover();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failed, 0u);
  EXPECT_TRUE(report->snapshot_loaded);
  for (const ReservationId& id : granted) {
    EXPECT_NE(f.fresh.find(id), nullptr) << "acked grant " << id << " lost";
  }
  EXPECT_EQ(f.fresh.next_certificate_serial_value(), serial + 2);
}

}  // namespace
}  // namespace e2e::bb
