/**
 * @file
 * Scenario tests for the directory MESI protocol: grant states, silent
 * upgrades, 2-hop vs 3-hop classification, invalidations, write-backs,
 * replacement hints, inclusion, and latency charging.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/coherence/protocol.hh"
#include "src/os/vm.hh"

namespace isim {
namespace {

MemSysConfig
smallConfig(unsigned nodes)
{
    MemSysConfig cfg;
    cfg.numNodes = nodes;
    cfg.l1Size = 1 * kib;
    cfg.l1Assoc = 2;
    cfg.l2 = CacheGeometry{4 * kib, 2, 64};
    cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                               L2Impl::OnchipSram);
    return cfg;
}

/** Byte address `offset` within `node`'s memory window. */
Addr
at(NodeId node, Addr offset)
{
    return (static_cast<Addr>(node) << 31) | offset;
}

TEST(Protocol, FirstReadGrantsExclusiveLocal)
{
    MemorySystem ms(smallConfig(4));
    const AccessOutcome out = ms.access(0, RefType::Load, at(0, 0x100));
    EXPECT_EQ(out.cls, MissClass::Local);
    EXPECT_EQ(out.stall, ms.config().lat.local);
    EXPECT_EQ(ms.l2(0).probe(at(0, 0x100) >> 6)->state,
              LineState::Exclusive);
    const NodeProtocolStats &s = ms.nodeStats(0);
    EXPECT_EQ(s.dataLocal, 1u);
    EXPECT_EQ(s.totalL2Misses(), 1u);
    ms.checkInvariants();
}

TEST(Protocol, SilentExclusiveToModifiedUpgrade)
{
    MemorySystem ms(smallConfig(4));
    ms.access(0, RefType::Load, at(0, 0x100));
    const AccessOutcome out = ms.access(0, RefType::Store, at(0, 0x100));
    EXPECT_EQ(out.cls, MissClass::L1Hit);
    EXPECT_EQ(out.stall, 0u);
    EXPECT_FALSE(out.upgrade);
    EXPECT_EQ(ms.nodeStats(0).upgrades, 0u);
    EXPECT_EQ(ms.l2(0).probe(at(0, 0x100) >> 6)->state,
              LineState::Modified);
    ms.checkInvariants();
}

TEST(Protocol, RemoteCleanReadIsTwoHop)
{
    MemorySystem ms(smallConfig(4));
    const AccessOutcome out = ms.access(0, RefType::Load, at(1, 0x40));
    EXPECT_EQ(out.cls, MissClass::RemoteClean);
    EXPECT_EQ(out.stall, ms.config().lat.remote);
    EXPECT_EQ(ms.nodeStats(0).dataRemoteClean, 1u);
}

TEST(Protocol, DirtyRemoteReadIsThreeHopAndDowngrades)
{
    MemorySystem ms(smallConfig(4));
    ms.access(0, RefType::Store, at(2, 0x80)); // node 0 owns dirty
    const AccessOutcome out = ms.access(1, RefType::Load, at(2, 0x80));
    EXPECT_EQ(out.cls, MissClass::RemoteDirty);
    EXPECT_EQ(out.stall, ms.config().lat.remoteDirty);
    // Both copies now Shared; directory lists both.
    EXPECT_EQ(ms.l2(0).probe(at(2, 0x80) >> 6)->state,
              LineState::Shared);
    EXPECT_EQ(ms.l2(1).probe(at(2, 0x80) >> 6)->state,
              LineState::Shared);
    const DirEntry *e = ms.directory().find(at(2, 0x80) >> 6);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Shared);
    EXPECT_TRUE(e->hasSharer(0));
    EXPECT_TRUE(e->hasSharer(1));
    ms.checkInvariants();
}

TEST(Protocol, CleanExclusiveRemoteReadIsNotThreeHop)
{
    MemorySystem ms(smallConfig(4));
    ms.access(0, RefType::Load, at(1, 0x80)); // node 0 owns clean (E)
    const AccessOutcome out = ms.access(1, RefType::Load, at(1, 0x80));
    // Home is the requester; owner's copy was clean.
    EXPECT_EQ(out.cls, MissClass::Local);
    EXPECT_EQ(ms.l2(0).probe(at(1, 0x80) >> 6)->state,
              LineState::Shared);
    EXPECT_EQ(ms.nodeStats(1).dataRemoteDirty, 0u);
    ms.checkInvariants();
}

TEST(Protocol, StoreMissInvalidatesAllSharers)
{
    MemorySystem ms(smallConfig(4));
    const Addr a = at(0, 0x200);
    ms.access(0, RefType::Load, a);
    ms.access(1, RefType::Load, a);
    ms.access(2, RefType::Load, a);
    const AccessOutcome out = ms.access(3, RefType::Store, a);
    EXPECT_EQ(out.cls, MissClass::RemoteClean); // home 0, clean data
    EXPECT_EQ(ms.nodeStats(3).invalidationsSent, 3u);
    EXPECT_EQ(ms.nodeStats(3).storesCausingInval, 1u);
    EXPECT_EQ(ms.l2(0).probe(a >> 6), nullptr);
    EXPECT_EQ(ms.l2(1).probe(a >> 6), nullptr);
    EXPECT_EQ(ms.l2(2).probe(a >> 6), nullptr);
    EXPECT_EQ(ms.l2(3).probe(a >> 6)->state, LineState::Modified);
    ms.checkInvariants();
}

TEST(Protocol, StoreToDirtyRemoteIsThreeHop)
{
    MemorySystem ms(smallConfig(4));
    const Addr a = at(3, 0x200);
    ms.access(0, RefType::Store, a); // node 0 dirty owner
    const AccessOutcome out = ms.access(1, RefType::Store, a);
    EXPECT_EQ(out.cls, MissClass::RemoteDirty);
    EXPECT_EQ(ms.l2(0).probe(a >> 6), nullptr);
    EXPECT_EQ(ms.l2(1).probe(a >> 6)->state, LineState::Modified);
    ms.checkInvariants();
}

TEST(Protocol, UpgradeChargesControlLatencyAndIsNotAFill)
{
    MemSysConfig cfg = smallConfig(4);
    cfg.lat = figure3Latencies(IntegrationLevel::L2McInt,
                               L2Impl::OnchipSram);
    MemorySystem ms(cfg);
    const Addr a = at(1, 0x240);
    ms.access(0, RefType::Load, a);
    ms.access(1, RefType::Load, a);
    const auto misses_before = ms.nodeStats(0).totalL2Misses();
    const AccessOutcome out = ms.access(0, RefType::Store, a);
    EXPECT_TRUE(out.upgrade);
    EXPECT_EQ(out.cls, MissClass::RemoteClean);
    // Control-only transaction: upgradeRemote (175), not the 225
    // data-fetch latency of the separated-CC configuration.
    EXPECT_EQ(out.stall, cfg.lat.upgradeRemote);
    EXPECT_LT(cfg.lat.upgradeRemote, cfg.lat.remote);
    EXPECT_EQ(ms.nodeStats(0).totalL2Misses(), misses_before);
    EXPECT_EQ(ms.nodeStats(0).upgrades, 1u);
    EXPECT_EQ(ms.nodeStats(0).invalidationsSent, 1u);
    ms.checkInvariants();
}

TEST(Protocol, DirtyEvictionWritesBackSoNextReadIsTwoHop)
{
    MemorySystem ms(smallConfig(4));
    const CacheGeometry l2 = smallConfig(4).l2;
    const Addr a = at(0, 0x40);
    ms.access(1, RefType::Store, a); // dirty at node 1

    // Evict it from node 1 by filling its set with conflicting lines.
    const Addr line = a >> 6;
    for (unsigned k = 1; k <= l2.assoc + 1; ++k) {
        ms.access(1, RefType::Load,
                  at(0, (line + k * l2.sets()) << 6));
    }
    EXPECT_EQ(ms.l2(1).probe(line), nullptr);
    EXPECT_GE(ms.nodeStats(1).writebacksToHome, 1u);

    // Memory at home is valid: node 2's read is a clean 2-hop miss.
    const AccessOutcome out = ms.access(2, RefType::Load, a);
    EXPECT_EQ(out.cls, MissClass::RemoteClean);
    ms.checkInvariants();
}

TEST(Protocol, CleanEvictionSendsReplacementHint)
{
    MemorySystem ms(smallConfig(4));
    const CacheGeometry l2 = smallConfig(4).l2;
    const Addr a = at(0, 0x40);
    ms.access(1, RefType::Load, a);
    ms.access(2, RefType::Load, a); // line Shared by 1 and 2

    const Addr line = a >> 6;
    for (unsigned k = 1; k <= l2.assoc + 1; ++k) {
        ms.access(1, RefType::Load,
                  at(0, (line + k * l2.sets()) << 6));
    }
    EXPECT_EQ(ms.l2(1).probe(line), nullptr);
    const DirEntry *e = ms.directory().find(line);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->hasSharer(1));
    EXPECT_TRUE(e->hasSharer(2));
    EXPECT_GE(ms.nodeStats(1).replacementHints, 1u);
    ms.checkInvariants();
}

TEST(Protocol, L2EvictionBackInvalidatesL1)
{
    MemorySystem ms(smallConfig(4));
    const CacheGeometry l2 = smallConfig(4).l2;
    const Addr a = at(0, 0x40);
    ms.access(0, RefType::Load, a);
    ASSERT_NE(ms.l1d(0).probe(a >> 6), nullptr);

    const Addr line = a >> 6;
    for (unsigned k = 1; k <= l2.assoc + 1; ++k) {
        // Conflict only in the L2 (L1 has a different set count).
        ms.access(0, RefType::Load,
                  at(0, (line + k * l2.sets()) << 6));
    }
    EXPECT_EQ(ms.l2(0).probe(line), nullptr);
    EXPECT_EQ(ms.l1d(0).probe(line), nullptr); // inclusion held
    ms.checkInvariants();
}

TEST(Protocol, HitLatencies)
{
    MemorySystem ms(smallConfig(2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a);
    // L1 hit.
    AccessOutcome out = ms.access(0, RefType::Load, a);
    EXPECT_EQ(out.cls, MissClass::L1Hit);
    EXPECT_EQ(out.stall, 0u);
    // Evict from L1 only: the L1 is 1KB/2-way (8 sets).
    const Addr line = a >> 6;
    for (unsigned k = 1; k <= 2; ++k)
        ms.access(0, RefType::Load, at(0, (line + k * 8) << 6));
    out = ms.access(0, RefType::Load, a);
    EXPECT_EQ(out.cls, MissClass::L2Hit);
    EXPECT_EQ(out.stall, ms.config().lat.l2Hit);
}

TEST(Protocol, InstructionFetchesClassified)
{
    MemorySystem ms(smallConfig(4));
    ms.access(0, RefType::IFetch, at(0, 0x400));
    ms.access(0, RefType::IFetch, at(1, 0x400));
    const NodeProtocolStats &s = ms.nodeStats(0);
    EXPECT_EQ(s.instrLocal, 1u);
    EXPECT_EQ(s.instrRemote, 1u);
    EXPECT_EQ(s.dataLocal, 0u);
}

TEST(Protocol, UniprocessorAllLocal)
{
    MemSysConfig cfg = smallConfig(1);
    MemorySystem ms(cfg);
    for (Addr off = 0; off < 64 * kib; off += 4096) {
        const AccessOutcome out = ms.access(0, RefType::Load, off);
        EXPECT_EQ(out.cls, MissClass::Local);
    }
    const NodeProtocolStats s = ms.aggregateStats();
    EXPECT_EQ(s.dataRemoteClean, 0u);
    EXPECT_EQ(s.dataRemoteDirty, 0u);
    ms.checkInvariants();
}

TEST(Protocol, RegionMissesFollowTheFrameTable)
{
    MemorySystem ms(smallConfig(2));
    VmConfig vc;
    vc.homeMap = HomeMap{31, 2};
    VirtualMemory vm(vc);
    vm.setPolicy(0x10000000, 1 * mib, PlacePolicy::Interleave, "r");
    const unsigned r = vm.regions().front().code;
    ms.setFrameRegions(vm.frameRegions(), vm.pageShift(),
                       vm.regionCodes());
    ASSERT_EQ(ms.regionCodes(), 3u);
    // Total misses counted against each region code.
    auto perRegion = [&] {
        std::vector<std::uint64_t> out;
        for (unsigned code = 0; code < ms.regionCodes(); ++code)
            out.push_back(ms.regionMisses(code).totalL2Misses());
        return out;
    };

    // A load miss to the region's page counts in its class there.
    const Addr in_region = vm.translate(0x10000000 + 0x40, 0);
    ms.access(0, RefType::Load, in_region);
    const NodeProtocolStats &rs = ms.regionMisses(r);
    EXPECT_EQ((in_region >> 31) == 0 ? rs.dataLocal : rs.dataRemoteClean,
              1u);
    EXPECT_EQ(perRegion(), (std::vector<std::uint64_t>{0, 0, 1}));
    ms.access(0, RefType::Load, in_region); // L1 hit: nothing counted
    EXPECT_EQ(perRegion(), (std::vector<std::uint64_t>{0, 0, 1}));

    ms.resetStats();
    EXPECT_EQ(perRegion(), (std::vector<std::uint64_t>{0, 0, 0}));
    // An instruction miss outside every region counts as "other".
    const Addr outside = vm.translate(0x20000000, 0);
    ms.access(0, RefType::IFetch, outside);
    const NodeProtocolStats &os = ms.regionMisses(VirtualMemory::otherRegion);
    EXPECT_EQ((outside >> 31) == 0 ? os.instrLocal : os.instrRemote, 1u);
    EXPECT_EQ(perRegion(), (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(Protocol, StatsResetKeepsCacheContents)
{
    MemorySystem ms(smallConfig(2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a);
    ms.resetStats();
    EXPECT_EQ(ms.aggregateStats().totalL2Misses(), 0u);
    const AccessOutcome out = ms.access(0, RefType::Load, a);
    EXPECT_EQ(out.cls, MissClass::L1Hit); // still cached
}

TEST(ProtocolDeathTest, IFetchOfDirtyLinePanics)
{
    MemorySystem ms(smallConfig(2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Store, a);
    // Self-modifying code across nodes is outside this model.
    EXPECT_DEATH(ms.access(1, RefType::IFetch, a), "instruction fetch");
}

} // namespace
} // namespace isim
