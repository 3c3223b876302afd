// Quickstart: set up three administrative domains, give Alice an identity
// and an ESnet capability, and make a 10 Mb/s end-to-end reservation from
// DomainA to DomainC with hop-by-hop inter-BB signalling.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "kit/chain_world.hpp"
#include "obs/collector.hpp"

using namespace e2e;
using namespace e2e::kit;

int main() {
  // A ready-made deployment: one CA + one bandwidth broker per domain,
  // SLAs between neighbours (100 Mb/s premium profile), authenticated
  // inter-BB channels, and an ESnet community authorization server.
  ChainWorld world;
  std::printf("Domains: ");
  for (const auto& name : world.names()) std::printf("%s ", name.c_str());
  std::printf("\n");

  // Alice lives in DomainA. make_user issues her identity certificate from
  // DomainA's CA, runs grid-login against the ESnet CAS (capability
  // certificate + private proxy key), and registers her with her home BB.
  WorldUser alice = world.make_user("Alice", 0);
  std::printf("User: %s\n", alice.dn.to_string().c_str());

  // The reservation specification (res_spec): 10 Mb/s, DomainA -> DomainC,
  // for the next ten minutes.
  bb::ResSpec spec = world.spec(alice, 10e6, {0, minutes(10)});
  std::printf("Request: %s\n", spec.to_text().c_str());

  // Build the signed user request (RAR_U): res_spec + the source broker's
  // DN + the CAS capability certificate + Alice's delegation of it to her
  // source broker, all signed with her identity key.
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  if (!msg.ok()) {
    std::printf("build_user_request failed: %s\n",
                msg.error().to_text().c_str());
    return 1;
  }
  std::printf("RAR_U wire size: %zu bytes\n", msg->wire_size());

  // Watch the request travel: each broker reports what it verified.
  world.engine().set_observer(
      [](const std::string& domain, const sig::VerifiedRar& vr) {
        std::printf("  %s verified the request: user=%s, %zu capability "
                    "cert(s), %zu upstream augmentation(s)\n",
                    domain.c_str(), vr.user_dn.common_name().c_str(),
                    vr.capability_certs.size(), vr.augmentations.size());
      });

  const auto outcome = world.engine().reserve(*msg, seconds(1));
  if (!outcome.ok()) {
    std::printf("reserve failed: %s\n", outcome.error().to_text().c_str());
    return 1;
  }
  if (!outcome->reply.granted) {
    std::printf("DENIED: %s\n", outcome->reply.denial.to_text().c_str());
    return 1;
  }

  std::printf("GRANTED. Per-domain handles:\n");
  for (const auto& [domain, handle] : outcome->reply.handles) {
    std::printf("  %-10s %s\n", domain.c_str(), handle.c_str());
  }
  std::printf("Signalling: %zu messages, %.1f ms modeled latency, final RAR "
              "%zu bytes\n",
              outcome->messages, to_milliseconds(outcome->latency),
              outcome->final_wire_bytes);

  // The trace the reservation left behind: each domain recorded its own
  // hop span, with verify/policy/admission/sign_and_forward step spans
  // timed against the virtual clock; the collector stitches the domains'
  // exports into one tree under the root reservation span (see
  // docs/OBSERVABILITY.md).
  obs::SpanCollector collector;
  world.collect(collector);
  std::printf("\nTrace tree for %s:\n%s",
              outcome->trace_id.c_str(),
              collector.render_tree(outcome->trace_id).c_str());

  // Release when done; every domain's capacity is restored.
  if (!world.engine().release_end_to_end(outcome->reply).ok()) return 1;
  std::printf("Released. DomainB committed now: %.0f bits/s\n",
              world.broker(1).committed_at(seconds(30)));
  return 0;
}
