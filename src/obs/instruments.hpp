// The instrument catalog: every metric name the library emits, in one
// place. Instrumented code refers to these constants (never string
// literals), register_all() declares the metadata on the global registry,
// and tests/obs_contract_test.cpp diffs this catalog against the telemetry
// contract in docs/OBSERVABILITY.md — an undocumented metric is a test
// failure, in both directions.
#pragma once

#include <vector>

#include "obs/metrics.hpp"

namespace e2e::obs {

// --- sig: signalling engines ------------------------------------------------
/// End-to-end RARs entering an engine. Labels:
/// engine=hopbyhop|source|tunnel.
inline constexpr char kSigRarRequestsTotal[] = "e2e_sig_rar_requests_total";
/// Final answers returned to the user. Labels: engine, outcome=granted|denied.
inline constexpr char kSigRarOutcomesTotal[] = "e2e_sig_rar_outcomes_total";
/// Modeled end-to-end signalling latency per request (us). Labels: engine.
inline constexpr char kSigE2eLatencyUs[] = "e2e_sig_e2e_latency_us";
/// Broker hops that processed a RAR. Labels: domain.
inline constexpr char kSigHopsProcessedTotal[] = "e2e_sig_hops_processed_total";
/// Per-hop processing time (verify+policy+admission+forward, us).
/// Labels: domain.
inline constexpr char kSigHopProcessingUs[] = "e2e_sig_hop_processing_us";
/// Hops that denied or failed a RAR. Labels: domain,
/// stage=verify|policy|cost|admission|forward.
inline constexpr char kSigHopDenialsTotal[] = "e2e_sig_hop_denials_total";

// --- sig: trust --------------------------------------------------------------
/// verify_rar / verify_user_request outcomes. Labels: result=ok|fail.
inline constexpr char kSigTrustVerificationsTotal[] =
    "e2e_sig_trust_verifications_total";
/// Deepest introduction step accepted per verified inter-BB RAR.
inline constexpr char kSigTrustIntroductionDepth[] =
    "e2e_sig_trust_introduction_depth";

// --- sig: channel ------------------------------------------------------------
/// Mutual-authentication handshakes. Labels: result=ok|fail.
inline constexpr char kSigChannelHandshakesTotal[] =
    "e2e_sig_channel_handshakes_total";
/// Record-layer operations. Labels: op=seal|open.
inline constexpr char kSigChannelRecordsTotal[] =
    "e2e_sig_channel_records_total";
/// Record-layer authentication failures (bad MAC, replay).
inline constexpr char kSigChannelAuthFailuresTotal[] =
    "e2e_sig_channel_auth_failures_total";

// --- sig: fabric ---------------------------------------------------------------
/// Control-plane messages crossing the fabric.
inline constexpr char kSigFabricMessagesTotal[] =
    "e2e_sig_fabric_messages_total";
/// Control-plane bytes crossing the fabric.
inline constexpr char kSigFabricBytesTotal[] = "e2e_sig_fabric_bytes_total";
/// Faults the fabric injected into transmissions. Labels:
/// kind=drop|duplicate|corrupt|delay|partition|down.
inline constexpr char kSigFaultsInjectedTotal[] =
    "e2e_sig_faults_injected_total";

// --- sig: retry/failure handling ---------------------------------------------
/// Retransmissions after a timed-out exchange. Labels:
/// engine=hopbyhop|source|tunnel.
inline constexpr char kSigRetransmitsTotal[] = "e2e_sig_retransmits_total";
/// Exchanges that timed out waiting for the peer's answer. Labels: engine.
inline constexpr char kSigTimeoutsTotal[] = "e2e_sig_timeouts_total";
/// Redelivered requests suppressed instead of reprocessed. Labels:
/// via=cache (request-id cache) | channel (record-layer replay protection).
inline constexpr char kSigDuplicatesSuppressedTotal[] =
    "e2e_sig_duplicates_suppressed_total";
/// Commitments released because a downstream domain stayed dark past the
/// retry budget. Labels: domain.
inline constexpr char kSigReleasedOnFailureTotal[] =
    "e2e_sig_released_on_failure_total";
/// Attempts needed by exchanges that required at least one retransmission.
/// Labels: engine.
inline constexpr char kSigRetryAttempts[] = "e2e_sig_retry_attempts";

// --- crypto: fast path + caches ---------------------------------------------
/// Modular exponentiations, by kernel. Labels: kernel=montgomery|reference.
inline constexpr char kCryptoModexpTotal[] = "e2e_crypto_modexp_total";
/// RSA signatures produced. Labels: path=crt|plain.
inline constexpr char kCryptoSignsTotal[] = "e2e_crypto_signs_total";
/// Signature-verification cache lookups. Labels: result=hit|miss.
inline constexpr char kCryptoVerifyCacheLookupsTotal[] =
    "e2e_crypto_verify_cache_lookups_total";
/// Verified-certificate-chain cache lookups (TrustStore). Labels:
/// result=hit|miss.
inline constexpr char kCryptoChainCacheLookupsTotal[] =
    "e2e_crypto_chain_cache_lookups_total";
/// Certificate TBS-encoding cache lookups. Labels: result=hit|miss.
inline constexpr char kCryptoTbsCacheLookupsTotal[] =
    "e2e_crypto_tbs_cache_lookups_total";
/// Montgomery-context cache lookups. Labels: result=hit|miss.
inline constexpr char kCryptoMontCtxLookupsTotal[] =
    "e2e_crypto_mont_ctx_lookups_total";
/// Verifications rejected before any arithmetic (zero/even/tiny modulus,
/// oversized signature).
inline constexpr char kCryptoBadKeyRejectsTotal[] =
    "e2e_crypto_bad_key_rejects_total";

// --- obs: the observability plane itself -------------------------------------
/// Trace contexts carried across the fabric on the unsigned envelope.
inline constexpr char kObsTraceCtxPropagatedTotal[] =
    "e2e_obs_trace_ctx_propagated_total";
/// Envelope bytes spent on trace context (out-of-band; not counted in
/// e2e_sig_fabric_bytes_total, which tracks only protocol payload).
inline constexpr char kObsTraceCtxBytesTotal[] =
    "e2e_obs_trace_ctx_bytes_total";
/// Series lookups routed to the overflow series by the registry's
/// cardinality cap. Labels: metric=<family that overflowed>.
inline constexpr char kObsDroppedLabelsTotal[] =
    "e2e_obs_dropped_labels_total";
/// Audit records appended to the hash chain. Labels:
/// kind=peer_auth|verify|policy|delegation|admission.
inline constexpr char kObsAuditRecordsTotal[] =
    "e2e_obs_audit_records_total";
/// Admin-plane HTTP requests served (wall-clock daemon only). Labels:
/// path=/metrics|/metrics.json|/healthz|/readyz|/statz|/tracez|other.
inline constexpr char kObsAdminRequestsTotal[] =
    "e2e_obs_admin_requests_total";
/// Scrape-safe registry snapshot cache behavior: a scrape either reused
/// the cached rendering or forced a refresh. Labels: result=hit|refresh.
inline constexpr char kObsSnapshotCacheTotal[] =
    "e2e_obs_snapshot_cache_total";

// --- slo: objective evaluation ------------------------------------------------
/// Latest estimated latency quantile per objective (us of virtual time).
/// Labels: objective, quantile=p50|p95|p99.
inline constexpr char kSloLatencyQuantileUs[] = "e2e_slo_latency_quantile_us";
/// Objective evaluations that found at least one budget exceeded. Labels:
/// objective.
inline constexpr char kSloBreachesTotal[] = "e2e_slo_breaches_total";
/// Objective evaluations performed. Labels: result=ok|breach|no_data.
inline constexpr char kSloEvaluationsTotal[] = "e2e_slo_evaluations_total";
/// Latest error-budget burn multiple over a real-time window (wall clock;
/// daemon admin plane only). Labels: objective, window (e.g. 60s).
inline constexpr char kSloBurnRate[] = "e2e_slo_burn_rate";
/// Burn-rate alert edges (not-alerting -> alerting transitions). Labels:
/// objective.
inline constexpr char kSloBurnAlertsTotal[] = "e2e_slo_burn_alerts_total";

// --- bb: bandwidth broker ------------------------------------------------------
/// Admission decisions at commit time. Labels: domain,
/// result=admitted|rejected.
inline constexpr char kBbAdmissionChecksTotal[] =
    "e2e_bb_admission_checks_total";
/// Reservations committed. Labels: domain.
inline constexpr char kBbReservationsCommittedTotal[] =
    "e2e_bb_reservations_committed_total";
/// Reservations released or purged. Labels: domain.
inline constexpr char kBbReservationsReleasedTotal[] =
    "e2e_bb_reservations_released_total";
/// Currently held reservations. Labels: domain.
inline constexpr char kBbReservationsActive[] = "e2e_bb_reservations_active";
/// Aggregate tunnels registered. Labels: domain.
inline constexpr char kBbTunnelsRegisteredTotal[] =
    "e2e_bb_tunnels_registered_total";
/// Wall-clock time a broker spent deciding one admission (the only
/// wall-clock histogram — every other latency metric is virtual time, so
/// this family's values vary run to run). Labels: domain.
inline constexpr char kBbAdmissionUs[] = "e2e_bb_admission_us";

// --- bb: durability (wal.cpp, snapshot.cpp, recovery.cpp) --------------------
/// WAL records appended (a purge's release_batch is one record). Labels:
/// kind=admit|release|release_batch|tunnel_register|tunnel_authorize|
/// tunnel_alloc|tunnel_release|delegation_serial.
inline constexpr char kBbWalRecordsTotal[] = "e2e_bb_wal_records_total";
/// Bytes written to WAL files (records only; truncation rewrites excluded).
inline constexpr char kBbWalBytesTotal[] = "e2e_bb_wal_bytes_total";
/// fsync calls issued by WAL commits.
inline constexpr char kBbWalFsyncsTotal[] = "e2e_bb_wal_fsyncs_total";
/// Records made durable per fsync (the group each commit covered).
inline constexpr char kBbWalGroupCommitRecords[] =
    "e2e_bb_wal_group_commit_records";
/// Snapshots written (each truncates the covered WAL prefix).
inline constexpr char kBbWalSnapshotsTotal[] = "e2e_bb_wal_snapshots_total";
/// WAL records dropped at snapshot truncation (covered by the snapshot).
inline constexpr char kBbWalTruncatedRecordsTotal[] =
    "e2e_bb_wal_truncated_records_total";
/// Recovery passes over a snapshot+WAL pair. Labels: result=ok|error.
inline constexpr char kBbRecoveryRunsTotal[] = "e2e_bb_recovery_runs_total";
/// State elements restored into a fresh broker. Labels:
/// source=snapshot|wal.
inline constexpr char kBbRecoveryReplayedTotal[] =
    "e2e_bb_recovery_replayed_total";
/// WAL records skipped during replay. Labels: reason=seq_covered (older
/// than the snapshot) | already_present (idempotent re-apply).
inline constexpr char kBbRecoverySkippedTotal[] =
    "e2e_bb_recovery_skipped_total";

// --- bb: capacity pools (admission.cpp; domain, peer-SLA and tunnel pools) ---
inline constexpr char kBbPoolCommitsTotal[] = "e2e_bb_pool_commits_total";
inline constexpr char kBbPoolReleasesTotal[] = "e2e_bb_pool_releases_total";
/// Commits refused because the rate does not fit the interval. Labels:
/// domain (of the owning broker; unlabelled for free-standing pools).
inline constexpr char kBbPoolRejectionsTotal[] = "e2e_bb_pool_rejections_total";
/// Live boundary points across a domain's timeline-indexed pools (local,
/// peer-SLA and tunnel pools; at most 2x the live commitments). Labels:
/// domain (unlabelled for free-standing pools).
inline constexpr char kBbPoolBoundaries[] = "e2e_bb_pool_boundaries";

// --- policy --------------------------------------------------------------------
/// Policy-server decisions. Labels: domain, decision=grant|deny.
inline constexpr char kPolicyDecisionsTotal[] = "e2e_policy_decisions_total";
/// Evaluations that failed outright (conservative denials). Labels: domain.
inline constexpr char kPolicyEvalFailuresTotal[] =
    "e2e_policy_eval_failures_total";

// --- net: DiffServ simulator -----------------------------------------------------
inline constexpr char kNetPacketsEmittedTotal[] =
    "e2e_net_packets_emitted_total";
inline constexpr char kNetPacketsDeliveredTotal[] =
    "e2e_net_packets_delivered_total";
/// Drops. Labels: reason=policer|queue.
inline constexpr char kNetPacketsDroppedTotal[] =
    "e2e_net_packets_dropped_total";
/// EF packets demoted to best-effort by a policer.
inline constexpr char kNetPacketsDowngradedTotal[] =
    "e2e_net_packets_downgraded_total";
/// End-to-end packet delay (us of virtual time).
inline constexpr char kNetPacketDelayUs[] = "e2e_net_packet_delay_us";

// --- net: stream transport (daemon / socket paths, src/net/stream_*) ----------
/// Connections accepted by a stream server. Labels: transport=tcp|unix.
inline constexpr char kNetConnsAcceptedTotal[] =
    "e2e_net_conns_accepted_total";
/// Connections currently open on a stream server.
inline constexpr char kNetConnsActive[] = "e2e_net_conns_active";
/// Raw stream bytes moved (frame headers included). Labels: dir=rx|tx.
inline constexpr char kNetStreamBytesTotal[] = "e2e_net_stream_bytes_total";
/// Complete length-prefixed frames moved. Labels: dir=rx|tx.
inline constexpr char kNetFramesTotal[] = "e2e_net_frames_total";
/// Times a connection's bounded write queue filled and the writer had to
/// wait for EPOLLOUT drainage.
inline constexpr char kNetBackpressureStallsTotal[] =
    "e2e_net_backpressure_stalls_total";
/// Frames rejected by the decoder (oversized length header, torn stream).
inline constexpr char kNetFramingErrorsTotal[] =
    "e2e_net_framing_errors_total";
/// Connections closed by the server's idle-timeout sweep.
inline constexpr char kNetIdleClosesTotal[] = "e2e_net_idle_closes_total";
/// Bytes queued and not yet written across a stream server's per-
/// connection write queues (RPC listener only; the admin listener stays
/// out of this gauge).
inline constexpr char kNetWriteQueueBytes[] = "e2e_net_write_queue_bytes";

/// One catalog row (drives registration, export metadata and the contract
/// test).
struct MetricInfo {
  const char* name;
  MetricType type;
  const char* unit;  // "1" for dimensionless counts
  std::vector<const char*> label_keys;
  const char* help;
};

/// Every metric the library emits, sorted by name.
const std::vector<MetricInfo>& catalog();

/// Declare the full catalog on `registry` (global() does this on first
/// use).
void register_all(MetricsRegistry& registry);

}  // namespace e2e::obs
