// Wire protocol of the bbd broker daemon.
//
// The daemon hosts one deterministic ChainWorld (the paper's chain of
// administrative domains with all their key material, SLAs and signalling
// engines); client processes drive scenarios against it through this RPC
// surface. The split keeps the protocol state — RNG streams, certificate
// bytes, RAR signatures — in exactly one process, which is what makes a
// multi-process run byte-identical to the in-memory one: the daemon
// executes the same operation sequence against the same seeded world, and
// ships the resulting RarReply bytes back verbatim.
//
// Transport stack, bottom up:
//   1. length-framed byte stream        (net/stream_framing.hpp)
//   2. SecureChannel staged handshake   (sig/channel.hpp: ClientHello /
//      ServerHello / Finished as the first three frames)
//   3. sealed records                   (sig::Session::seal, wire form
//      channel_tag::kRecord) carrying one Request or Response each.
//
// A client may write further requests before earlier responses arrive.
// The daemon executes a connection's requests one at a time in arrival
// order and echoes each request's id in its response; how many a client
// keeps in flight is the client's own choice
// (BbdClient::Options::pipeline_depth) and is never negotiated.
//
// Requests and responses are flat TLV containers. Every field is encoded
// on every message whatever the op — a few dozen fixed bytes of overhead
// buys a single encode/decode path with no per-op schema to drift.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/tlv.hpp"

namespace e2e::net {

namespace bbd_tag {
inline constexpr tlv::Tag kRequest = 0xE2A0;   // container
inline constexpr tlv::Tag kResponse = 0xE2A1;  // container
inline constexpr tlv::Tag kOp = 0xE2A2;        // u32
inline constexpr tlv::Tag kId = 0xE2A3;        // u64
inline constexpr tlv::Tag kFlags = 0xE2A4;     // u32 (request bools, bit-packed)
inline constexpr tlv::Tag kU64A = 0xE2A5;      // u64 general slots
inline constexpr tlv::Tag kU64B = 0xE2A6;
inline constexpr tlv::Tag kU64C = 0xE2A7;
inline constexpr tlv::Tag kU64D = 0xE2A8;
inline constexpr tlv::Tag kF64A = 0xE2A9;      // f64 general slots
inline constexpr tlv::Tag kF64B = 0xE2AA;
inline constexpr tlv::Tag kStrA = 0xE2AB;      // string general slots
inline constexpr tlv::Tag kStrB = 0xE2AC;
inline constexpr tlv::Tag kLabels = 0xE2AD;    // string ("k=v,k=v")
inline constexpr tlv::Tag kBytes = 0xE2AE;     // bytes (reply payloads)
inline constexpr tlv::Tag kOk = 0xE2AF;        // bool
inline constexpr tlv::Tag kErrCode = 0xE2B0;   // u32 (ErrorCode)
inline constexpr tlv::Tag kErrMsg = 0xE2B1;    // string
inline constexpr tlv::Tag kErrOrigin = 0xE2B2; // string
}  // namespace bbd_tag

/// kHello request flag bits (BbdRequest::flags).
namespace hello_flag {
/// Release grants made over this connection when it drops — the
/// orphan-release contract.
inline constexpr std::uint32_t kReleaseOnDisconnect = 1u << 0;
}  // namespace hello_flag

enum class BbdOp : std::uint32_t {
  kPing = 1,
  /// Set per-connection options (flags bit 0: release grants made over
  /// this connection when it drops — the orphan-release contract).
  kHello = 2,
  /// (Re)build the daemon's world: u64a=domains, u64b=seed (0 keeps the
  /// config default), u64c=inter-domain latency (SimDuration), f64a=domain
  /// capacity, f64b=SLA rate. Destroys the previous world. Response
  /// u64a = the number of domains in the world just built.
  kConfigure = 3,
  /// u64a=i, u64b=j, u64c=one-way latency between domains i and j.
  kSetLatency = 4,
  /// u64a=per-hop processing delay.
  kSetProcessingDelay = 5,
  /// stra=name, u64a=home domain index, flags bit0=with_capability,
  /// bit1=register_everywhere.
  kMakeUser = 6,
  /// Hop-by-hop end-to-end reservation. stra=user name (from kMakeUser),
  /// f64a=rate, u64a=interval start, u64b=interval end, u64c=src index,
  /// u64d=destination offset from end, flags bit0=is_tunnel, f64b=at.
  /// Response: bytes=RarReply::encode(), u64a=latency, u64b=messages.
  kReserve = 7,
  /// Source-domain reservation; fields as kReserve, flags bit1=parallel.
  kSourceReserve = 8,
  /// stra=tunnel id, strb=user DN, f64a=rate, u64a/u64b=interval,
  /// f64b=at. Response as kReserve.
  kTunnelReserve = 9,
  /// Release a granted end-to-end reply. stra=engine ("hopbyhop" or
  /// "source"), bytes=the granted RarReply::encode().
  kRelease = 10,
  /// stra=tunnel id, strb=sub-reservation id.
  kTunnelRelease = 11,
  /// Response: u64a=total reservations across brokers, f64a=total
  /// committed bandwidth at virtual time f64b (passed in request f64b).
  kStats = 12,
  /// Query the daemon's metrics registry. stra=metric name,
  /// labels="k=v,k=v", strb=field: "count" | "sum" | "value".
  /// Response: f64a=the requested number.
  kMetricQuery = 13,
  /// Snapshot + WAL-truncate domain u64a (durability runs only).
  kSnapshot = 14,
  /// Ask the daemon to shut down gracefully after replying.
  kShutdown = 15,
};

struct BbdRequest {
  BbdOp op = BbdOp::kPing;
  std::uint64_t id = 0;
  std::uint32_t flags = 0;
  std::uint64_t u64a = 0, u64b = 0, u64c = 0, u64d = 0;
  double f64a = 0, f64b = 0;
  std::string stra, strb;
  std::string labels;
  Bytes bytes;

  Bytes encode() const;
  static Result<BbdRequest> decode(BytesView data);
};

struct BbdResponse {
  std::uint64_t id = 0;
  bool ok = false;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  std::string error_origin;
  std::uint64_t u64a = 0, u64b = 0;
  double f64a = 0;
  std::string stra;
  Bytes bytes;

  Bytes encode() const;
  static Result<BbdResponse> decode(BytesView data);

  static BbdResponse success(std::uint64_t id) {
    BbdResponse r;
    r.id = id;
    r.ok = true;
    return r;
  }
  static BbdResponse failure(std::uint64_t id, const Error& error) {
    BbdResponse r;
    r.id = id;
    r.ok = false;
    r.error_code = error.code;
    r.error_message = error.message;
    r.error_origin = error.origin;
    return r;
  }
  Error to_error() const {
    return Error{error_code, error_message, error_origin};
  }
};

/// Parse the "k=v,k=v" label spelling of kMetricQuery.
std::vector<std::pair<std::string, std::string>> parse_label_list(
    const std::string& text);

}  // namespace e2e::net
