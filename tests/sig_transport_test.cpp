#include "sig/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace e2e::sig {
namespace {

Bytes payload_of(std::size_t n) { return Bytes(n, 0xab); }

TEST(Fabric, DefaultLatencyApplies) {
  Fabric f;
  f.set_default_latency(milliseconds(25));
  EXPECT_EQ(f.one_way("X", "Y"), milliseconds(25));
  EXPECT_EQ(f.rtt("X", "Y"), milliseconds(50));
}

TEST(Fabric, SelfLatencyIsZero) {
  Fabric f;
  EXPECT_EQ(f.one_way("X", "X"), 0);
}

TEST(Fabric, ConfiguredLatencyIsSymmetric) {
  Fabric f;
  f.set_latency("A", "B", milliseconds(7));
  EXPECT_EQ(f.one_way("A", "B"), milliseconds(7));
  EXPECT_EQ(f.one_way("B", "A"), milliseconds(7));
}

TEST(Fabric, MessageAccounting) {
  Fabric f;
  f.record_message("A", "B", 100);
  f.record_message("B", "A", 50);
  f.record_message("A", "C", 10);
  EXPECT_EQ(f.total().messages, 3u);
  EXPECT_EQ(f.total().bytes, 160u);
  EXPECT_EQ(f.between("A", "B").messages, 2u);  // symmetric pair key
  EXPECT_EQ(f.between("A", "B").bytes, 150u);
  EXPECT_EQ(f.between("A", "C").messages, 1u);
  EXPECT_EQ(f.between("B", "C").messages, 0u);
}

TEST(Fabric, ResetCounters) {
  Fabric f;
  f.record_message("A", "B", 100);
  f.reset_counters();
  EXPECT_EQ(f.total().messages, 0u);
  EXPECT_EQ(f.between("A", "B").messages, 0u);
}

TEST(Fabric, ProcessingDelayConfigurable) {
  Fabric f;
  f.set_processing_delay(microseconds(250));
  EXPECT_EQ(f.processing_delay(), microseconds(250));
}

TEST(FabricFaults, CleanTransmitMatchesRecordMessage) {
  Fabric f;
  f.set_latency("A", "B", milliseconds(7));
  const Bytes payload = payload_of(100);
  const Delivery d = f.transmit("A", "B", payload);
  EXPECT_TRUE(d.delivered());
  EXPECT_FALSE(d.corrupted);
  EXPECT_FALSE(d.duplicated);
  EXPECT_EQ(d.latency, milliseconds(7));
  EXPECT_EQ(d.payload, payload);
  EXPECT_EQ(f.total().messages, 1u);
  EXPECT_EQ(f.total().bytes, 100u);
}

TEST(FabricFaults, DropProbabilityOneDropsEverything) {
  Fabric f;
  f.seed_faults(1);
  FaultProfile p;
  p.drop = 1.0;
  f.set_default_fault_profile(p);
  for (int i = 0; i < 10; ++i) {
    const Delivery d = f.transmit("A", "B", payload_of(10));
    EXPECT_EQ(d.outcome, Delivery::Outcome::kDropped);
    EXPECT_FALSE(d.delivered());
  }
  // Dropped messages still count: the sender spent the bytes.
  EXPECT_EQ(f.total().messages, 10u);
}

TEST(FabricFaults, SameSeedSameFaultSequence) {
  FaultProfile p;
  p.drop = 0.5;
  p.duplicate = 0.3;
  p.corrupt = 0.3;
  p.jitter = 0.3;
  auto run = [&p] {
    Fabric f;
    f.seed_faults(42);
    f.set_default_fault_profile(p);
    std::vector<int> fates;
    for (int i = 0; i < 64; ++i) {
      const Delivery d = f.transmit("A", "B", payload_of(32));
      fates.push_back(static_cast<int>(d.outcome) * 100 +
                      (d.corrupted ? 10 : 0) + (d.duplicated ? 1 : 0) +
                      static_cast<int>(d.latency % 97));
    }
    return fates;
  };
  EXPECT_EQ(run(), run());
}

TEST(FabricFaults, CorruptionFlipsBytesButKeepsSize) {
  Fabric f;
  f.seed_faults(3);
  FaultProfile p;
  p.corrupt = 1.0;
  f.set_default_fault_profile(p);
  const Bytes payload = payload_of(64);
  const Delivery d = f.transmit("A", "B", payload);
  ASSERT_TRUE(d.delivered());
  EXPECT_TRUE(d.corrupted);
  EXPECT_EQ(d.payload.size(), payload.size());
  EXPECT_NE(d.payload, payload);
}

TEST(FabricFaults, JitterBoundedByMaxJitter) {
  Fabric f;
  f.seed_faults(4);
  f.set_latency("A", "B", milliseconds(10));
  FaultProfile p;
  p.jitter = 1.0;
  p.max_jitter = milliseconds(5);
  f.set_default_fault_profile(p);
  for (int i = 0; i < 32; ++i) {
    const Delivery d = f.transmit("A", "B", payload_of(8));
    ASSERT_TRUE(d.delivered());
    EXPECT_GE(d.latency, milliseconds(10));
    EXPECT_LT(d.latency, milliseconds(15));
  }
}

TEST(FabricFaults, PartitionBlocksBothDirectionsUntilHealed) {
  Fabric f;
  f.partition("A", "B");
  EXPECT_TRUE(f.partitioned("A", "B"));
  EXPECT_EQ(f.transmit("A", "B", payload_of(1)).outcome,
            Delivery::Outcome::kPartitioned);
  EXPECT_EQ(f.transmit("B", "A", payload_of(1)).outcome,
            Delivery::Outcome::kPartitioned);
  // Other links are unaffected.
  EXPECT_TRUE(f.transmit("A", "C", payload_of(1)).delivered());
  f.heal("A", "B");
  EXPECT_TRUE(f.transmit("A", "B", payload_of(1)).delivered());
}

TEST(FabricFaults, DownBrokerNeitherSendsNorReceives) {
  Fabric f;
  f.set_down("B", true);
  EXPECT_TRUE(f.is_down("B"));
  EXPECT_EQ(f.transmit("A", "B", payload_of(1)).outcome,
            Delivery::Outcome::kPeerDown);
  EXPECT_EQ(f.transmit("B", "A", payload_of(1)).outcome,
            Delivery::Outcome::kPeerDown);
  f.set_down("B", false);
  EXPECT_TRUE(f.transmit("A", "B", payload_of(1)).delivered());
}

TEST(FabricFaults, DirectionalProfileOnlyAffectsThatDirection) {
  Fabric f;
  f.seed_faults(5);
  FaultProfile p;
  p.drop = 1.0;
  f.set_fault_profile("B", "A", p);
  EXPECT_TRUE(f.transmit("A", "B", payload_of(1)).delivered());
  EXPECT_FALSE(f.transmit("B", "A", payload_of(1)).delivered());
}

TEST(FabricFaults, ClearFaultsRestoresCleanFabric) {
  Fabric f;
  FaultProfile p;
  p.drop = 1.0;
  f.set_default_fault_profile(p);
  f.partition("A", "B");
  f.set_down("C", true);
  f.clear_faults();
  EXPECT_TRUE(f.transmit("A", "B", payload_of(1)).delivered());
  EXPECT_TRUE(f.transmit("A", "C", payload_of(1)).delivered());
  EXPECT_FALSE(f.partitioned("A", "B"));
  EXPECT_FALSE(f.is_down("C"));
}

}  // namespace
}  // namespace e2e::sig
