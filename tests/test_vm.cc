/**
 * @file
 * Unit tests for virtual memory: placement policies (interleave /
 * local / replicate), lazy allocation, determinism, frame uniqueness,
 * and the frame table's region codes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/random.hh"
#include "src/os/vm.hh"

namespace isim {
namespace {

VmConfig
config(unsigned nodes)
{
    VmConfig c;
    c.homeMap = HomeMap{31, nodes};
    c.seed = 1234;
    return c;
}

TEST(Vm, TranslationIsStable)
{
    VirtualMemory vm(config(4));
    const Addr v = 0x123456789;
    const Addr p1 = vm.translate(v, 0);
    const Addr p2 = vm.translate(v, 0);
    const Addr p3 = vm.translate(v, 3); // non-replicated: same frame
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(p1, p3);
}

TEST(Vm, OffsetsWithinPagePreserved)
{
    VirtualMemory vm(config(4));
    const Addr base = 0x40000000;
    const Addr p0 = vm.translate(base, 0);
    const Addr p5 = vm.translate(base + 5, 0);
    EXPECT_EQ(p5 - p0, 5u);
    // Same page -> same frame; next page -> (very likely) different.
    const Addr p_next = vm.translate(base + 8 * kib, 0);
    EXPECT_NE(p_next & ~Addr{8 * kib - 1}, p0 & ~Addr{8 * kib - 1});
}

TEST(Vm, InterleaveStripesAcrossNodes)
{
    VirtualMemory vm(config(8));
    vm.setPolicy(0x10000000, 64 * mib, PlacePolicy::Interleave);
    std::set<NodeId> homes;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr p = vm.translate(0x10000000 + i * 8 * kib, 0);
        homes.insert(config(8).homeMap.homeOfByte(p));
    }
    EXPECT_EQ(homes.size(), 8u); // every node used
    // Striping is deterministic by vpn: consecutive pages rotate.
    const Addr p0 = vm.translate(0x10000000, 0);
    const Addr p1 = vm.translate(0x10000000 + 8 * kib, 0);
    const NodeId h0 = config(8).homeMap.homeOfByte(p0);
    const NodeId h1 = config(8).homeMap.homeOfByte(p1);
    EXPECT_EQ((h0 + 1) % 8, h1);
}

TEST(Vm, LocalPolicyAllocatesOnToucher)
{
    VirtualMemory vm(config(8));
    vm.setPolicy(0x20000000, 64 * mib, PlacePolicy::Local);
    for (NodeId n = 0; n < 8; ++n) {
        const Addr p =
            vm.translate(0x20000000 + n * 1 * mib, n);
        EXPECT_EQ(config(8).homeMap.homeOfByte(p), n);
    }
}

TEST(Vm, ReplicatePolicyGivesPerNodeCopies)
{
    VirtualMemory vm(config(4));
    vm.setPolicy(0x30000000, 16 * mib, PlacePolicy::Replicate);
    const Addr v = 0x30000000 + 4 * kib;
    std::set<Addr> frames;
    for (NodeId n = 0; n < 4; ++n) {
        const Addr p = vm.translate(v, n);
        EXPECT_EQ(config(4).homeMap.homeOfByte(p), n) << "node " << n;
        frames.insert(p);
        // Stable per node.
        EXPECT_EQ(vm.translate(v, n), p);
    }
    EXPECT_EQ(frames.size(), 4u);
}

TEST(Vm, FramesNeverCollide)
{
    VirtualMemory vm(config(2));
    std::set<Addr> frames;
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr p = vm.translate(Addr{i} * 8 * kib, i % 2);
        EXPECT_TRUE(frames.insert(p & ~Addr{8 * kib - 1}).second)
            << "duplicate frame at page " << i;
    }
    const std::uint8_t *table = vm.frameRegions();
    EXPECT_EQ(2 * (std::size_t{1} << 18) -
                  std::count(table, table + 2 * (std::size_t{1} << 18),
                             VirtualMemory::freeFrame),
              2000u);
}

TEST(Vm, DeterministicAcrossInstances)
{
    VirtualMemory a(config(4)), b(config(4));
    for (unsigned i = 0; i < 500; ++i) {
        const Addr v = Addr{i} * 8 * kib + (i % 64);
        EXPECT_EQ(a.translate(v, i % 4), b.translate(v, i % 4));
    }
}

TEST(Vm, FrameTableHoldsEachPagesRegion)
{
    VirtualMemory vm(config(4));
    vm.setPolicy(0x1000000, 1 * mib, PlacePolicy::Interleave, "r1");
    vm.setPolicy(0x30000000, 16 * mib, PlacePolicy::Replicate, "text");
    ASSERT_EQ(vm.regionCodes(), 4u);
    const std::uint8_t *table = vm.frameRegions();
    auto code = [&](Addr paddr) { return table[paddr >> 13]; };
    auto codeOf = [&](const std::string &name) {
        for (const VirtualMemory::Region &r : vm.regions()) {
            if (r.name == name)
                return r.code;
        }
        return std::uint8_t{0};
    };

    const Addr in_r1 = vm.translate(0x1000000 + 8 * kib + 5, 1);
    EXPECT_EQ(code(in_r1), codeOf("r1"));
    const Addr outside = vm.translate(0x5000000, 2);
    EXPECT_EQ(code(outside), VirtualMemory::otherRegion);
    for (NodeId n = 0; n < 4; ++n) // one copy per node, one region
        EXPECT_EQ(code(vm.translate(0x30000000, n)), codeOf("text"));
    EXPECT_EQ(code(outside ^ (Addr{1} << 30)), VirtualMemory::freeFrame);
}

TEST(Vm, PlacementMatchesAHashSetAllocator)
{
    // The frame table replaced a per-node hash set of used frames; for
    // a fixed seed both must hand out the same frames, retries
    // included (thousands of draws over 2^18 frames per node collide).
    VirtualMemory vm(config(2));
    Rng rng(1234);
    std::vector<std::unordered_set<std::uint64_t>> used(2);
    const std::uint64_t frames_per_node = (Addr{1} << 31) / (8 * kib);
    for (std::uint64_t vpn = 0; vpn < 6000; ++vpn) {
        const NodeId node = static_cast<NodeId>(vpn % 2); // interleave
        std::uint64_t frame;
        do {
            frame = rng.below(frames_per_node);
        } while (!used[node].insert(frame).second);
        const Addr want = (Addr{node} << 31) + frame * 8 * kib;
        ASSERT_EQ(vm.translate(vpn * 8 * kib, 0), want) << "vpn " << vpn;
    }
}

TEST(Vm, PageColoringTilesConsecutivePages)
{
    VmConfig c = config(2);
    c.pageColors = 256;
    VirtualMemory vm(c);
    vm.setPolicy(0x10000000, 64 * mib, PlacePolicy::Interleave, "r");
    // Consecutive virtual pages land on consecutive colours (mod the
    // colour count), i.e. they tile the cache instead of colliding.
    // (Colour phases re-randomize at every pageColors-sized chunk, so
    // check runs within one chunk only.)
    std::uint64_t prev_color = ~0ull;
    for (unsigned i = 0; i < 512; ++i) {
        const Addr p = vm.translate(0x10000000 + Addr{i} * 8 * kib, 0);
        const std::uint64_t frame =
            (p & ((Addr{1} << 31) - 1)) / (8 * kib);
        const std::uint64_t color = frame % 256;
        if (prev_color != ~0ull && i % 256 != 0) {
            EXPECT_EQ(color, (prev_color + 1) % 256) << "page " << i;
        }
        prev_color = color;
    }
}

TEST(Vm, PageColoringKeepsFramesUnique)
{
    VmConfig c = config(1);
    c.pageColors = 64;
    VirtualMemory vm(c);
    std::set<Addr> frames;
    for (unsigned i = 0; i < 1000; ++i) {
        const Addr p = vm.translate(Addr{i} * 8 * kib, 0);
        EXPECT_TRUE(frames.insert(p & ~Addr{8 * kib - 1}).second);
    }
}

TEST(VmDeathTest, OverlappingRegionsRejected)
{
    VirtualMemory vm(config(2));
    vm.setPolicy(0x2000, 0x4000, PlacePolicy::Local);
    EXPECT_DEATH(vm.setPolicy(0x4000, 0x4000, PlacePolicy::Local),
                 "overlapping");
}

TEST(VmDeathTest, RegionsMustBeWholePages)
{
    VirtualMemory vm(config(2));
    EXPECT_DEATH(vm.setPolicy(0x1000, 8 * kib, PlacePolicy::Local),
                 "whole pages");
    EXPECT_DEATH(vm.setPolicy(0x2000, 12 * kib, PlacePolicy::Local),
                 "whole pages");
}

} // namespace
} // namespace isim
