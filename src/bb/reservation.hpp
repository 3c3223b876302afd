// Reservation specifications and records.
//
// `ResSpec` is the paper's `res_spec`: the user-visible description of the
// requested network service. It is part of every signed RAR layer, so it
// has a canonical TLV encoding.
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"

namespace e2e::bb {

using ReservationId = std::string;

struct ResSpec {
  /// DN text of the requesting principal.
  std::string user;
  /// Administrative domains of the endpoints.
  std::string source_domain;
  std::string destination_domain;
  /// Requested premium bandwidth.
  double rate_bits_per_s = 0;
  double burst_bits = 0;
  /// Advance-reservation window (virtual time).
  TimeInterval interval{0, 0};
  /// Cost the user is willing to accept (paper §6.1); 0 = unlimited.
  double max_cost = 0;
  /// Handle of a CPU reservation this network reservation is coupled with
  /// (Fig. 6: "CPU_Reservation_ID=111"); empty if none.
  std::string linked_cpu_reservation;
  /// True if this request establishes an aggregate tunnel between the end
  /// domains rather than a single flow reservation.
  bool is_tunnel = false;

  bool operator==(const ResSpec&) const = default;

  /// Structurally fit for admission control: a valid advance-reservation
  /// window and a positive rate. Brokers reject anything else before
  /// touching a capacity pool.
  bool admissible() const {
    return interval.valid() && rate_bits_per_s > 0;
  }

  Bytes encode() const;
  static Result<ResSpec> decode(BytesView data);

  std::string to_text() const;
};

enum class ReservationState : std::uint8_t {
  kPending = 0,
  kGranted = 1,
  kReleased = 2,
};

constexpr const char* to_string(ReservationState s) {
  switch (s) {
    case ReservationState::kPending: return "pending";
    case ReservationState::kGranted: return "granted";
    case ReservationState::kReleased: return "released";
  }
  return "?";
}

/// A reservation as recorded by one bandwidth broker.
struct Reservation {
  ReservationId id;
  ResSpec spec;
  ReservationState state = ReservationState::kPending;
  /// Domain the request arrived from ("" for the local user's domain).
  std::string upstream_domain;
};

}  // namespace e2e::bb
