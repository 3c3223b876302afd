// Ready-made deployment kit: a chain of administrative domains wired up the way
// the paper's scenario is (Fig. 2/5/6) — one CA and one bandwidth broker
// per domain, SLAs between neighbours carrying the peer trust material,
// authenticated inter-BB channels, an ESnet community authorization server,
// and helpers to mint users with identity + capability material.
//
// Key sizes default to 256 bits to keep suites fast; the crypto unit tests
// cover 512-bit keys.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "bb/recovery.hpp"
#include "bb/snapshot.hpp"
#include "bb/wal.hpp"
#include "obs/collector.hpp"
#include "obs/trace.hpp"
#include "policy/cas.hpp"
#include "policy/group_server.hpp"
#include "sig/hopbyhop.hpp"
#include "sig/retry.hpp"
#include "sig/source_signalling.hpp"

namespace e2e::kit {

inline constexpr TimeInterval kWorldValidity{0, hours(24 * 365)};

struct WorldUser {
  crypto::DistinguishedName dn;
  crypto::KeyPair identity_keys;
  crypto::Certificate identity_cert;
  crypto::KeyPair proxy_keys;
  std::optional<crypto::Certificate> capability_cert;

  sig::UserCredentials credentials() const {
    sig::UserCredentials c;
    c.identity_certificate = identity_cert;
    c.identity_key = identity_keys.priv;
    if (capability_cert.has_value()) {
      c.capability_certificate = capability_cert;
      c.proxy_key = proxy_keys.priv;
    }
    return c;
  }
};

struct ChainWorldConfig {
  std::size_t domains = 3;
  /// Policy source per domain; reused cyclically if shorter than `domains`.
  std::vector<std::string> policies = {"Return GRANT"};
  double domain_capacity = 622e6;   // OC-12 backbone
  double sla_rate = 100e6;          // premium profile between neighbours
  unsigned key_bits = 256;
  std::uint64_t seed = 20010801;    // HPDC-10 publication date
  SimDuration inter_domain_latency = milliseconds(20);
  /// Fault model applied to every fabric link (all-zero = clean fabric,
  /// byte-identical to a world without a fault model).
  sig::FaultProfile fault_profile;
  /// Seed of the fabric's private fault RNG; never consumes `seed`'s RNG.
  std::uint64_t fault_seed = 20010801;
  /// Retry/backoff policy installed on both signalling engines.
  sig::RetryPolicy retry_policy;
  /// Directory for per-domain durability state (`<dir>/<domain>.wal` and
  /// `<dir>/<domain>.snapshot`). Empty (the default) disables durability
  /// entirely — the world is byte-identical to one without this field.
  std::string durability_dir;
  /// Replay each domain's snapshot + WAL tail into its fresh broker before
  /// reopening the log (the restarted-daemon path: a killed bbd comes back
  /// with every acked grant intact). Requires durability_dir; a world
  /// whose directory holds no prior state recovers to the blank slate.
  bool recover_on_open = false;
};

class ChainWorld {
 public:
  explicit ChainWorld(const ChainWorldConfig& config = ChainWorldConfig())
      : config_(config),
        rng_(config.seed),
        cas_esnet_("ESnet", rng_, kWorldValidity, config.key_bits),
        engine_(fabric_, rng_),
        source_engine_(fabric_) {
    for (std::size_t i = 0; i < config.domains; ++i) {
      names_.push_back(domain_name(i));
    }
    // Per-domain CA and broker.
    for (std::size_t i = 0; i < config.domains; ++i) {
      cas_.push_back(std::make_unique<crypto::CertificateAuthority>(
          crypto::DistinguishedName::make("CA-" + names_[i], names_[i]),
          rng_, kWorldValidity, config.key_bits));
      policy::PolicyServer server(
          names_[i], policy::Policy::compile(
                         config.policies[i % config.policies.size()])
                         .value());
      brokers_.push_back(std::make_unique<bb::BandwidthBroker>(
          bb::BrokerConfig{names_[i], config.domain_capacity,
                           config.key_bits},
          std::move(server), *cas_[i], rng_, kWorldValidity));
    }
    // SLAs along the chain (traffic flows 0 -> N-1) with peer trust
    // material, plus next-hop routing toward every downstream domain.
    for (std::size_t i = 0; i + 1 < config.domains; ++i) {
      sla::ServiceLevelAgreement agreement;
      agreement.from_domain = names_[i];
      agreement.to_domain = names_[i + 1];
      agreement.profile.rate_bits_per_s = config.sla_rate;
      agreement.profile.burst_bits = 100000;
      agreement.validity = kWorldValidity;
      agreement.price_per_mbit_s = 0.01 * static_cast<double>(i + 1);
      agreement.peer_bb_certificate = brokers_[i]->certificate();
      agreement.peer_ca_certificate = cas_[i]->root_certificate();
      brokers_[i + 1]->add_upstream_sla(agreement);
      // The upstream side needs the downstream CA to authenticate the
      // channel peer too.
      brokers_[i]->trust_store().add_anchor(cas_[i + 1]->root_certificate());
      for (std::size_t dest = i + 1; dest < config.domains; ++dest) {
        brokers_[i]->set_next_hop(names_[dest], names_[i + 1]);
      }
      fabric_.set_latency(names_[i], names_[i + 1],
                          config.inter_domain_latency);
    }
    // Engines.
    for (std::size_t i = 0; i < config.domains; ++i) {
      sig::DomainOptions options;
      options.group_server = &group_server_;
      options.relevant_groups = {"Atlas", "physicists"};
      engine_.add_domain(*brokers_[i], options);
      engine_.trust_community(names_[i], "ESnet", cas_esnet_.public_key());
      sig::SourceDomainEngine::DomainOptions source_options;
      source_options.group_server = &group_server_;
      source_options.relevant_groups = {"Atlas", "physicists"};
      source_engine_.add_domain(*brokers_[i], source_options);
    }
    for (std::size_t i = 0; i + 1 < config.domains; ++i) {
      auto status = engine_.connect_peers(names_[i], names_[i + 1], 0);
      if (!status.ok()) {
        throw std::runtime_error("world: connect_peers failed: " +
                                 status.error().to_text());
      }
    }
    // Each domain records its spans into its own recorder; cross-domain
    // linkage travels in the transport envelope and collect() stitches the
    // exports back into end-to-end trees (keyed by Outcome::trace_id). No
    // engine-wide recorder is attached: tests that want one as an oracle
    // attach it with the engines' set_trace_recorder().
    domain_tracers_.reserve(config.domains);
    for (std::size_t i = 0; i < config.domains; ++i) {
      domain_tracers_.push_back(std::make_unique<obs::TraceRecorder>());
      engine_.set_domain_trace_recorder(names_[i], domain_tracers_[i].get());
      source_engine_.set_domain_trace_recorder(names_[i],
                                               domain_tracers_[i].get());
    }
    // Fault model + retry policy (no-ops for the default clean config).
    fabric_.seed_faults(config.fault_seed);
    if (config.fault_profile.any()) {
      fabric_.set_default_fault_profile(config.fault_profile);
    }
    engine_.set_retry_policy(config.retry_policy);
    source_engine_.set_retry_policy(config.retry_policy);
    // Durability: one WAL per domain, fsync'd before any grant is acked.
    if (!config.durability_dir.empty()) {
      wals_.resize(config.domains);
      for (std::size_t i = 0; i < config.domains; ++i) {
        std::uint64_t min_next_seq = 1;
        std::string head_hash;
        if (config.recover_on_open) {
          // Replay prior state into the fresh broker BEFORE reopening the
          // log, then continue the chain where the tail left off.
          auto report = bb::recover_broker(*brokers_[i], snapshot_path(i),
                                           wal_path(i));
          if (!report.ok()) {
            throw std::runtime_error("world: recovery failed for " +
                                     names_[i] + ": " +
                                     report.error().to_text());
          }
          min_next_seq = report.value().wal_next_seq;
          head_hash = report.value().wal_head;
        }
        auto wal = bb::WriteAheadLog::open(
            wal_path(i), bb::WriteAheadLog::SyncMode::kFsync, min_next_seq,
            head_hash);
        if (!wal.ok()) {
          throw std::runtime_error("world: wal open failed: " +
                                   wal.error().to_text());
        }
        wals_[i] = std::move(*wal);
        brokers_[i]->attach_wal(wals_[i].get());
      }
    }
  }

  static std::string domain_name(std::size_t i) {
    if (i < 26) return std::string("Domain") + static_cast<char>('A' + i);
    return "Domain" + std::to_string(i);
  }

  /// Mint a user homed in domain `home`, optionally with an ESnet
  /// capability certificate from grid-login, registered as a local user of
  /// its home BB (hop-by-hop) — registration with every domain (source-
  /// based signalling) is the caller's choice via register_everywhere.
  WorldUser make_user(const std::string& name, std::size_t home,
                      bool with_capability = true,
                      bool register_everywhere = false) {
    WorldUser user;
    user.dn = crypto::DistinguishedName::make(name, names_.at(home));
    user.identity_keys = crypto::generate_keypair(rng_, config_.key_bits);
    user.identity_cert = cas_.at(home)->issue(user.dn, user.identity_keys.pub,
                                              kWorldValidity);
    user.proxy_keys = crypto::generate_keypair(rng_, config_.key_bits);
    if (with_capability) {
      user.capability_cert = cas_esnet_.grid_login(
          user.dn, user.proxy_keys.pub, kWorldValidity);
    }
    engine_.register_local_user(names_.at(home), user.identity_cert);
    if (register_everywhere) {
      for (const auto& domain : names_) {
        source_engine_.register_user(domain, user.identity_cert);
      }
    } else {
      source_engine_.register_user(names_.at(home), user.identity_cert);
    }
    return user;
  }

  bb::ResSpec spec(const WorldUser& user, double rate,
                   TimeInterval interval = {0, seconds(600)},
                   std::size_t src = 0, std::size_t dst_offset_from_end = 0) {
    bb::ResSpec s;
    s.user = user.dn.to_string();
    s.source_domain = names_.at(src);
    s.destination_domain = names_.at(names_.size() - 1 - dst_offset_from_end);
    s.rate_bits_per_s = rate;
    s.burst_bits = 30000;
    s.interval = interval;
    return s;
  }

  // --- Fault-injection hooks (soak/robustness suites) -----------------------
  /// Partition / heal the inter-BB link between domains `i` and `j`.
  void partition_link(std::size_t i, std::size_t j) {
    fabric_.partition(names_.at(i), names_.at(j));
  }
  void heal_link(std::size_t i, std::size_t j) {
    fabric_.heal(names_.at(i), names_.at(j));
  }
  /// Crash / restore a domain's broker on the fabric (while down, nothing
  /// is delivered to or sent by it).
  void crash_broker(std::size_t i) { fabric_.set_down(names_.at(i), true); }
  void restore_broker(std::size_t i) {
    fabric_.set_down(names_.at(i), false);
  }

  // --- Durability (only meaningful when config.durability_dir is set) -------
  std::string wal_path(std::size_t i) const {
    return config_.durability_dir + "/" + names_.at(i) + ".wal";
  }
  std::string snapshot_path(std::size_t i) const {
    return config_.durability_dir + "/" + names_.at(i) + ".snapshot";
  }
  /// The domain's WAL (nullptr when durability is disabled or detached).
  bb::WriteAheadLog* wal(std::size_t i) { return wals_.at(i).get(); }
  /// Snapshot domain `i`'s broker and truncate its WAL at the snapshot
  /// boundary; returns the number of log records dropped.
  Result<std::size_t> snapshot_domain(std::size_t i) {
    if (wals_.size() <= i || wals_[i] == nullptr) {
      return make_error(ErrorCode::kInvalidArgument,
                        "durability is not enabled for this world",
                        "kit.world");
    }
    return bb::snapshot_and_truncate(*brokers_.at(i), *wals_[i],
                                     snapshot_path(i));
  }
  /// Simulate losing the process: detach and close the domain's WAL (the
  /// on-disk file keeps everything that was acked). Recovery tests then
  /// rebuild a fresh broker from snapshot + tail and compare.
  void drop_wal(std::size_t i) {
    if (wals_.size() > i) {
      brokers_.at(i)->attach_wal(nullptr);
      wals_[i].reset();
    }
  }
  /// A freshly constructed broker with the same domain, capacity, policy
  /// and upstream-SLA wiring as domain `i`'s — the blank slate crash
  /// recovery replays into. Key material is freshly generated (durability
  /// covers admission state, not private keys).
  std::unique_ptr<bb::BandwidthBroker> make_blank_broker(std::size_t i) {
    policy::PolicyServer server(
        names_.at(i), policy::Policy::compile(
                          config_.policies[i % config_.policies.size()])
                          .value());
    auto broker = std::make_unique<bb::BandwidthBroker>(
        bb::BrokerConfig{names_.at(i), config_.domain_capacity,
                         config_.key_bits},
        std::move(server), *cas_.at(i), rng_, kWorldValidity);
    if (i > 0) {
      // The same agreement the constructor installs between i-1 and i.
      sla::ServiceLevelAgreement agreement;
      agreement.from_domain = names_[i - 1];
      agreement.to_domain = names_[i];
      agreement.profile.rate_bits_per_s = config_.sla_rate;
      agreement.profile.burst_bits = 100000;
      agreement.validity = kWorldValidity;
      agreement.price_per_mbit_s = 0.01 * static_cast<double>(i);
      agreement.peer_bb_certificate = brokers_[i - 1]->certificate();
      agreement.peer_ca_certificate = cas_[i - 1]->root_certificate();
      broker->add_upstream_sla(agreement);
    }
    return broker;
  }
  /// Residual committed state across every broker — the soak invariant
  /// checks this returns to zero after each failed or released trial.
  std::size_t total_reservations() const {
    std::size_t n = 0;
    for (const auto& broker : brokers_) n += broker->reservation_count();
    return n;
  }
  /// Total bandwidth committed across every broker at time `t`.
  double total_committed_at(SimTime t) const {
    double r = 0;
    for (const auto& broker : brokers_) r += broker->committed_at(t);
    return r;
  }

  const std::vector<std::string>& names() const { return names_; }
  bb::BandwidthBroker& broker(std::size_t i) { return *brokers_.at(i); }
  crypto::CertificateAuthority& ca(std::size_t i) { return *cas_.at(i); }
  policy::CommunityAuthorizationServer& cas_esnet() { return cas_esnet_; }
  policy::GroupServer& group_server() { return group_server_; }
  sig::Fabric& fabric() { return fabric_; }
  sig::HopByHopEngine& engine() { return engine_; }
  sig::SourceDomainEngine& source_engine() { return source_engine_; }
  /// Ingest every domain's export into `collector` (the destination side
  /// of distributed tracing; call after the reservations of interest).
  void collect(obs::SpanCollector& collector) const {
    for (std::size_t i = 0; i < domain_tracers_.size(); ++i) {
      collector.ingest(names_[i], *domain_tracers_[i]);
    }
  }
  /// collect() restricted to the `newest` traces the collector would list
  /// last (obs::newest_trace_ids): what /tracez renders, without copying
  /// every retained span.
  void collect(obs::SpanCollector& collector, std::size_t newest) const {
    std::vector<const obs::TraceRecorder*> recorders;
    for (const auto& tracer : domain_tracers_) {
      recorders.push_back(tracer.get());
    }
    const auto kept = obs::newest_trace_ids(recorders, newest);
    for (std::size_t i = 0; i < domain_tracers_.size(); ++i) {
      collector.ingest(names_[i], *domain_tracers_[i], kept);
    }
  }
  Rng& rng() { return rng_; }

 private:
  ChainWorldConfig config_;
  Rng rng_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<crypto::CertificateAuthority>> cas_;
  // Declared before the brokers so every WAL outlives the broker holding a
  // raw pointer to it.
  std::vector<std::unique_ptr<bb::WriteAheadLog>> wals_;
  std::vector<std::unique_ptr<bb::BandwidthBroker>> brokers_;
  policy::CommunityAuthorizationServer cas_esnet_;
  policy::GroupServer group_server_{"world-group-server"};
  sig::Fabric fabric_;
  sig::HopByHopEngine engine_;
  sig::SourceDomainEngine source_engine_;
  std::vector<std::unique_ptr<obs::TraceRecorder>> domain_tracers_;
};

}  // namespace e2e::kit
