#include "obs/instruments.hpp"

namespace e2e::obs {

namespace {

std::vector<MetricInfo> build_catalog() {
  // Introduction-depth buckets: one per step, far below the latency ladder.
  // (TrustPolicy::max_introduction_depth defaults to 8.)
  const char* kUs = "us";
  const char* kOne = "1";
  return {
      {kBbAdmissionChecksTotal, MetricType::kCounter, kOne,
       {"domain", "result"},
       "Admission decisions at reservation commit time"},
      {kBbAdmissionUs, MetricType::kHistogram, kUs, {"domain"},
       "Wall-clock time a broker spent deciding one admission (or one "
       "batch)"},
      {kBbPoolBoundaries, MetricType::kGauge, kOne, {"domain"},
       "Live boundary points across a domain's timeline-indexed capacity "
       "pools"},
      {kBbPoolCommitsTotal, MetricType::kCounter, kOne, {},
       "CapacityPool commitments (domain, peer-SLA and tunnel pools)"},
      {kBbPoolRejectionsTotal, MetricType::kCounter, kOne, {"domain"},
       "CapacityPool commits refused (rate does not fit the interval)"},
      {kBbPoolReleasesTotal, MetricType::kCounter, kOne, {},
       "CapacityPool releases"},
      {kBbRecoveryReplayedTotal, MetricType::kCounter, kOne, {"source"},
       "State elements restored into a fresh broker (snapshot or wal)"},
      {kBbRecoveryRunsTotal, MetricType::kCounter, kOne, {"result"},
       "Recovery passes over a snapshot+WAL pair"},
      {kBbRecoverySkippedTotal, MetricType::kCounter, kOne, {"reason"},
       "WAL records skipped during replay (snapshot-covered or idempotent "
       "re-apply)"},
      {kBbReservationsActive, MetricType::kGauge, kOne, {"domain"},
       "Reservations currently held by a broker"},
      {kBbReservationsCommittedTotal, MetricType::kCounter, kOne, {"domain"},
       "Reservations committed by a broker"},
      {kBbReservationsReleasedTotal, MetricType::kCounter, kOne, {"domain"},
       "Reservations released or purged by a broker"},
      {kBbTunnelsRegisteredTotal, MetricType::kCounter, kOne, {"domain"},
       "Aggregate tunnels registered at an end domain"},
      {kBbWalBytesTotal, MetricType::kCounter, "bytes", {},
       "Bytes written to broker write-ahead-log files"},
      {kBbWalFsyncsTotal, MetricType::kCounter, kOne, {},
       "fsync calls issued by the WAL group-commit leader"},
      {kBbWalGroupCommitRecords, MetricType::kHistogram, kOne, {},
       "Records made durable per fsync (group-commit coalescing factor)"},
      {kBbWalRecordsTotal, MetricType::kCounter, kOne, {"kind"},
       "WAL records appended (one per batch on batch paths)"},
      {kBbWalSnapshotsTotal, MetricType::kCounter, kOne, {},
       "Broker state snapshots written"},
      {kBbWalTruncatedRecordsTotal, MetricType::kCounter, kOne, {},
       "WAL records dropped at snapshot truncation"},
      {kCryptoBadKeyRejectsTotal, MetricType::kCounter, kOne, {},
       "Verifications rejected before any arithmetic (malformed key or "
       "oversized signature)"},
      {kCryptoChainCacheLookupsTotal, MetricType::kCounter, kOne, {"result"},
       "Verified-certificate-chain cache lookups (TrustStore)"},
      {kCryptoModexpTotal, MetricType::kCounter, kOne, {"kernel"},
       "Modular exponentiations, by kernel (montgomery or reference)"},
      {kCryptoMontCtxLookupsTotal, MetricType::kCounter, kOne, {"result"},
       "Montgomery-context cache lookups, by modulus value"},
      {kCryptoSignsTotal, MetricType::kCounter, kOne, {"path"},
       "RSA signatures produced (crt or plain path)"},
      {kCryptoTbsCacheLookupsTotal, MetricType::kCounter, kOne, {"result"},
       "Certificate TBS-encoding cache lookups"},
      {kCryptoVerifyCacheLookupsTotal, MetricType::kCounter, kOne, {"result"},
       "Signature-verification cache lookups"},
      {kNetBackpressureStallsTotal, MetricType::kCounter, kOne, {},
       "Times a bounded connection write queue filled and waited for "
       "EPOLLOUT drainage"},
      {kNetConnsAcceptedTotal, MetricType::kCounter, kOne, {"transport"},
       "Connections accepted by a stream server"},
      {kNetConnsActive, MetricType::kGauge, kOne, {},
       "Connections currently open on a stream server"},
      {kNetFramesTotal, MetricType::kCounter, kOne, {"dir"},
       "Complete length-prefixed frames moved over stream transports"},
      {kNetFramingErrorsTotal, MetricType::kCounter, kOne, {},
       "Frames rejected by the stream decoder (oversized header, torn "
       "stream)"},
      {kNetIdleClosesTotal, MetricType::kCounter, kOne, {},
       "Connections closed by the stream server's idle-timeout sweep"},
      {kNetPacketDelayUs, MetricType::kHistogram, kUs, {},
       "End-to-end packet delay in the DiffServ simulator"},
      {kNetPacketsDeliveredTotal, MetricType::kCounter, kOne, {},
       "Packets delivered end to end"},
      {kNetPacketsDowngradedTotal, MetricType::kCounter, kOne, {},
       "EF packets demoted to best-effort by a policer"},
      {kNetPacketsDroppedTotal, MetricType::kCounter, kOne, {"reason"},
       "Packets dropped by a policer or a full queue"},
      {kNetPacketsEmittedTotal, MetricType::kCounter, kOne, {},
       "Packets emitted by traffic sources"},
      {kNetStreamBytesTotal, MetricType::kCounter, "bytes", {"dir"},
       "Raw stream bytes moved over socket transports (frame headers "
       "included)"},
      {kNetWriteQueueBytes, MetricType::kGauge, "bytes", {},
       "Bytes queued and not yet written across a stream server's "
       "per-connection write queues"},
      {kObsAdminRequestsTotal, MetricType::kCounter, kOne, {"path"},
       "Admin-plane HTTP requests served, by route"},
      {kObsAuditRecordsTotal, MetricType::kCounter, kOne, {"kind"},
       "Audit records appended to the hash-chained audit log"},
      {kObsDroppedLabelsTotal, MetricType::kCounter, kOne, {"metric"},
       "Series lookups routed to the overflow series by the cardinality "
       "cap"},
      {kObsSnapshotCacheTotal, MetricType::kCounter, kOne, {"result"},
       "Scrape-safe registry snapshot cache hits and refreshes"},
      {kObsTraceCtxBytesTotal, MetricType::kCounter, "bytes", {},
       "Unsigned-envelope bytes spent carrying trace context"},
      {kObsTraceCtxPropagatedTotal, MetricType::kCounter, kOne, {},
       "Trace contexts propagated across the fabric on the unsigned "
       "envelope"},
      {kPolicyDecisionsTotal, MetricType::kCounter, kOne,
       {"decision", "domain"},
       "Policy-server decisions"},
      {kPolicyEvalFailuresTotal, MetricType::kCounter, kOne, {"domain"},
       "Policy evaluations that failed outright (conservative denials)"},
      {kSigChannelAuthFailuresTotal, MetricType::kCounter, kOne, {},
       "Record-layer authentication failures (bad MAC or replay)"},
      {kSigChannelHandshakesTotal, MetricType::kCounter, kOne, {"result"},
       "Mutual-authentication channel handshakes"},
      {kSigChannelRecordsTotal, MetricType::kCounter, kOne, {"op"},
       "Record-layer seal/open operations"},
      {kSigDuplicatesSuppressedTotal, MetricType::kCounter, kOne, {"via"},
       "Redelivered requests suppressed instead of reprocessed"},
      {kSigE2eLatencyUs, MetricType::kHistogram, kUs, {"engine"},
       "Modeled end-to-end signalling latency per request"},
      {kSigFabricBytesTotal, MetricType::kCounter, "bytes", {},
       "Control-plane bytes crossing the signalling fabric"},
      {kSigFabricMessagesTotal, MetricType::kCounter, kOne, {},
       "Control-plane messages crossing the signalling fabric"},
      {kSigFaultsInjectedTotal, MetricType::kCounter, kOne, {"kind"},
       "Faults the fabric injected into transmissions"},
      {kSigHopDenialsTotal, MetricType::kCounter, kOne, {"domain", "stage"},
       "Hops that denied or failed a RAR, by pipeline stage"},
      {kSigHopProcessingUs, MetricType::kHistogram, kUs, {"domain"},
       "Per-hop RAR processing time (verify+policy+admission+forward)"},
      {kSigHopsProcessedTotal, MetricType::kCounter, kOne, {"domain"},
       "Broker hops that processed a RAR"},
      {kSigRarOutcomesTotal, MetricType::kCounter, kOne,
       {"engine", "outcome"},
       "Final answers returned to the requesting user"},
      {kSigRarRequestsTotal, MetricType::kCounter, kOne, {"engine"},
       "End-to-end RARs entering a signalling engine"},
      {kSigReleasedOnFailureTotal, MetricType::kCounter, kOne, {"domain"},
       "Commitments released because a downstream domain stayed dark"},
      {kSigRetransmitsTotal, MetricType::kCounter, kOne, {"engine"},
       "Retransmissions after a timed-out exchange"},
      {kSigRetryAttempts, MetricType::kHistogram, kOne, {"engine"},
       "Attempts needed by exchanges that required a retransmission"},
      {kSigTimeoutsTotal, MetricType::kCounter, kOne, {"engine"},
       "Exchanges that timed out waiting for the peer's answer"},
      {kSigTrustIntroductionDepth, MetricType::kHistogram, kOne, {},
       "Deepest introduction step accepted per verified inter-BB RAR",
       },
      {kSigTrustVerificationsTotal, MetricType::kCounter, kOne, {"result"},
       "RAR trust verifications (transitive trust or direct user auth)"},
      {kSloBreachesTotal, MetricType::kCounter, kOne, {"objective"},
       "Objective evaluations that found at least one budget exceeded"},
      {kSloBurnAlertsTotal, MetricType::kCounter, kOne, {"objective"},
       "Burn-rate alert edges (not-alerting to alerting transitions)"},
      {kSloBurnRate, MetricType::kGauge, kOne, {"objective", "window"},
       "Latest error-budget burn multiple over a real-time window"},
      {kSloEvaluationsTotal, MetricType::kCounter, kOne, {"result"},
       "SLO objective evaluations performed"},
      {kSloLatencyQuantileUs, MetricType::kGauge, kUs,
       {"objective", "quantile"},
       "Latest estimated latency quantile per objective"},
  };
}

}  // namespace

const std::vector<MetricInfo>& catalog() {
  static const std::vector<MetricInfo> kCatalog = build_catalog();
  return kCatalog;
}

void register_all(MetricsRegistry& registry) {
  for (const MetricInfo& info : catalog()) {
    MetricMetadata metadata;
    metadata.name = info.name;
    metadata.type = info.type;
    metadata.unit = info.unit;
    metadata.label_keys.assign(info.label_keys.begin(),
                               info.label_keys.end());
    metadata.help = info.help;
    if (info.type == MetricType::kHistogram &&
        std::string(info.name) == kSigTrustIntroductionDepth) {
      metadata.buckets = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    }
    // Retry attempts are small integers too (RetryPolicy::max_attempts).
    if (info.type == MetricType::kHistogram &&
        std::string(info.name) == kSigRetryAttempts) {
      metadata.buckets = {1, 2, 3, 4, 5, 6, 7, 8};
    }
    // Admission decisions are wall-clock and fast (sub-us to low ms), far
    // below the default virtual-time latency ladder.
    if (info.type == MetricType::kHistogram &&
        std::string(info.name) == kBbAdmissionUs) {
      metadata.buckets = {0.5, 1,   2,   5,    10,   20,  50,
                          100, 200, 500, 1000, 2000, 5000};
    }
    // Group-commit coalescing: record counts per fsync, powers of two up
    // to the largest plausible burst.
    if (info.type == MetricType::kHistogram &&
        std::string(info.name) == kBbWalGroupCommitRecords) {
      metadata.buckets = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    }
    registry.declare(std::move(metadata));
  }
}

}  // namespace e2e::obs
