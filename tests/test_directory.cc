/**
 * @file
 * Unit tests for the home map and directory structure, including a
 * seeded differential test of the open-addressing table against
 * std::map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/coherence/directory.hh"

namespace isim {
namespace {

TEST(HomeMap, ByteAndLineMapping)
{
    HomeMap map{31, 8};
    EXPECT_EQ(map.homeOfByte(0), 0u);
    EXPECT_EQ(map.homeOfByte((1ull << 31) - 1), 0u);
    EXPECT_EQ(map.homeOfByte(1ull << 31), 1u);
    EXPECT_EQ(map.homeOfByte(7ull << 31), 7u);
    // Line addresses: line = byte >> 6.
    EXPECT_EQ(map.homeOfLine((3ull << 31) >> 6, 6), 3u);
    EXPECT_EQ(map.nodeBase(2), 2ull << 31);
    EXPECT_EQ(map.nodeWindow(), 1ull << 31);
}

TEST(HomeMapDeathTest, OutOfRangeAddress)
{
    HomeMap map{31, 4};
    EXPECT_DEATH(map.homeOfByte(4ull << 31), "outside installed");
}

TEST(Directory, FindAndEntryLifecycle)
{
    Directory dir(HomeMap{31, 8}, 6);
    EXPECT_EQ(dir.find(42), nullptr);
    DirEntry &e = dir.entry(42);
    EXPECT_TRUE(e.isUncached());
    EXPECT_EQ(dir.population(), 1u);
    e.state = LineState::Shared;
    e.sharers = 0b101;
    EXPECT_EQ(dir.find(42)->sharerCount(), 2u);
    EXPECT_TRUE(dir.find(42)->hasSharer(0));
    EXPECT_FALSE(dir.find(42)->hasSharer(1));
    EXPECT_TRUE(dir.find(42)->hasSharer(2));
    dir.erase(42);
    EXPECT_EQ(dir.find(42), nullptr);
    EXPECT_EQ(dir.population(), 0u);
}

TEST(Directory, HomeOfUsesLineAddresses)
{
    Directory dir(HomeMap{31, 8}, 6);
    // Line address of a byte in node 5's window.
    const Addr line = (5ull << 31) >> 6;
    EXPECT_EQ(dir.homeOf(line), 5u);
}

TEST(Directory, CheckEntryAcceptsValidShapes)
{
    DirEntry uncached;
    Directory::checkEntry(uncached);

    DirEntry shared;
    shared.state = LineState::Shared;
    shared.sharers = 0b11;
    Directory::checkEntry(shared);

    DirEntry owned;
    owned.state = LineState::Modified;
    owned.owner = 3;
    owned.sharers = 1u << 3;
    Directory::checkEntry(owned);
}

TEST(DirectoryDeathTest, CheckEntryRejectsBadShapes)
{
    DirEntry bad_shared;
    bad_shared.state = LineState::Shared;
    bad_shared.sharers = 0;
    EXPECT_DEATH(Directory::checkEntry(bad_shared), "empty sharer");

    DirEntry bad_owner;
    bad_owner.state = LineState::Modified;
    bad_owner.owner = 2;
    bad_owner.sharers = 0b111;
    EXPECT_DEATH(Directory::checkEntry(bad_owner), "sharer mask");
}

constexpr std::uint32_t kDirTag = ckpt::sectionTag("DIRT");
const HomeMap kMap{31, 8};
constexpr unsigned kLineBits = 6;
/** One past the last line address of kMap's installed memory. */
constexpr Addr kLineLimit = (Addr{8} << 31) >> kLineBits;

/** A random entry of a valid shape (restore checks the shape). */
DirEntry
randomEntry(Rng &rng)
{
    DirEntry e;
    if (rng.below(2) == 0) {
        e.state = LineState::Shared;
        e.sharers = static_cast<std::uint32_t>(rng.range(1, 0xff));
    } else {
        const NodeId owner = static_cast<NodeId>(rng.below(8));
        e.state = LineState::Modified;
        e.owner = owner;
        e.sharers = 1u << owner;
    }
    return e;
}

bool
sameEntry(const DirEntry &a, const DirEntry &b)
{
    return a.state == b.state && a.sharers == b.sharers &&
           NodeId{a.owner} == NodeId{b.owner};
}

/** Image of entries written the way saveState must: ascending lines. */
std::vector<std::uint8_t>
imageOf(const std::map<Addr, DirEntry> &ref)
{
    ckpt::Serializer s;
    s.beginSection(kDirTag);
    s.u64(ref.size());
    for (const auto &[line, e] : ref) {
        s.u64(line);
        s.u8(static_cast<std::uint8_t>(e.state));
        s.u32(e.sharers);
        s.u32(e.owner);
    }
    s.endSection();
    return s.bytes();
}

std::vector<std::uint8_t>
imageOf(const Directory &dir)
{
    ckpt::Serializer s;
    s.beginSection(kDirTag);
    dir.saveState(s);
    s.endSection();
    return s.bytes();
}

void
restoreFrom(Directory &dir, const std::vector<std::uint8_t> &image)
{
    ckpt::Deserializer d(image);
    d.beginSection(kDirTag);
    dir.restoreState(d);
    d.endSection();
}

/** The directory holds exactly `ref`: lookups, population, visit set
 *  and checkpoint bytes all agree. */
void
expectSameContents(const Directory &dir, const std::map<Addr, DirEntry> &ref)
{
    ASSERT_EQ(dir.population(), ref.size());
    std::vector<std::pair<Addr, DirEntry>> seen;
    dir.forEachEntry([&](Addr line, const DirEntry &e) {
        seen.emplace_back(line, e);
    });
    std::sort(seen.begin(), seen.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    ASSERT_EQ(seen.size(), ref.size());
    auto visited = seen.begin();
    for (const auto &[line, e] : ref) {
        const DirEntry *found = dir.find(line);
        ASSERT_NE(found, nullptr) << "line " << line;
        ASSERT_TRUE(sameEntry(*found, e)) << "line " << line;
        ASSERT_EQ(visited->first, line) << "visit set differs";
        ASSERT_TRUE(sameEntry(visited->second, e)) << "line " << line;
        ++visited;
    }
    EXPECT_EQ(imageOf(dir), imageOf(ref));
}

/**
 * One seeded operation against both the directory and the reference:
 * create-or-update, erase, or lookup of a line from `keys`.
 */
void
churnStep(Rng &rng, const std::vector<Addr> &keys, Directory &dir,
          std::map<Addr, DirEntry> &ref)
{
    const Addr line = keys[rng.below(keys.size())];
    switch (rng.below(4)) {
      case 0: {
        const DirEntry e = randomEntry(rng);
        dir.entry(line) = e;
        ref[line] = e;
        break;
      }
      case 1:
        dir.erase(line);
        ref.erase(line);
        break;
      default: {
        const DirEntry *found = dir.find(line);
        const auto it = ref.find(line);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "line " << line;
        if (found != nullptr) {
            ASSERT_TRUE(sameEntry(*found, it->second)) << "line " << line;
        }
        break;
      }
    }
}

TEST(DirectoryTable, MatchesOrderedMapUnderChurnGrowthAndRestore)
{
    Rng rng(0xd1ec7);
    Directory dir(kMap, kLineBits);
    std::map<Addr, DirEntry> ref;

    // Churn over a small key set: short probe chains, many erases.
    std::vector<Addr> keys(4096);
    for (Addr &k : keys)
        k = rng.below(kLineLimit);
    for (int step = 0; step < 100000; ++step) {
        churnStep(rng, keys, dir, ref);
        if (step % 25000 == 0)
            expectSameContents(dir, ref);
    }
    expectSameContents(dir, ref);

    // Growth: well past the initial table's 3/4 load (393K lines),
    // with every eighth insert followed by an erase.
    std::vector<Addr> grown;
    for (int n = 0; n < 460000; ++n) {
        const Addr line = rng.below(kLineLimit);
        const DirEntry e = randomEntry(rng);
        dir.entry(line) = e;
        ref[line] = e;
        grown.push_back(line);
        if (n % 8 == 7) {
            const Addr gone = grown[rng.below(grown.size())];
            dir.erase(gone);
            ref.erase(gone);
        }
    }
    ASSERT_GT(ref.size(), 393216u);
    expectSameContents(dir, ref);

    // Churn on the grown table, over the grown lines. A restore then
    // presizes a fresh table that holds the same contents (so the
    // churned table did too) and behaves the same under more churn.
    for (int step = 0; step < 100000; ++step)
        churnStep(rng, grown, dir, ref);
    Directory restored(kMap, kLineBits);
    restoreFrom(restored, imageOf(dir));
    expectSameContents(restored, ref);
    for (int step = 0; step < 50000; ++step)
        churnStep(rng, grown, restored, ref);

    // Erasing every line ever used leaves an empty directory.
    for (const std::vector<Addr> *used : {&keys, &grown}) {
        for (const Addr line : *used) {
            restored.erase(line);
            ref.erase(line);
        }
    }
    EXPECT_TRUE(ref.empty());
    expectSameContents(restored, ref);
}

TEST(DirectoryTable, ProbeChainWrapsPastTableEnd)
{
    // Lines whose chains start in the initial table's last slot. The
    // table hashes a line's aligned run of 8 by multiplying with
    // 2^64 / phi and keeping the top 16 bits, and keeps the line's
    // offset in the run: the last run, offset 7. 24 of them must wrap
    // to the table's first slots.
    std::vector<Addr> lines;
    for (Addr run = 0; lines.size() < 24; ++run) {
        if (((run * 0x9e3779b97f4a7c15ULL) >> 48) == 0xffff)
            lines.push_back(run << 3 | 7);
    }
    Directory dir(kMap, kLineBits);
    std::map<Addr, DirEntry> ref;
    Rng rng(24);
    for (const Addr line : lines) {
        const DirEntry e = randomEntry(rng);
        dir.entry(line) = e;
        ref[line] = e;
    }
    expectSameContents(dir, ref);
    // The first line holds the last slot and the other 23 wrapped to
    // slots 0-22, so table order is the insertion order rotated by one.
    std::vector<Addr> order;
    dir.forEachEntry([&](Addr line, const DirEntry &) {
        order.push_back(line);
    });
    std::vector<Addr> rotated(lines.begin() + 1, lines.end());
    rotated.push_back(lines.front());
    EXPECT_EQ(order, rotated);

    // Erase from the chain's start: every later line shifts back
    // across the table's end and must stay reachable.
    for (const Addr line : lines) {
        dir.erase(line);
        ref.erase(line);
        expectSameContents(dir, ref);
    }
}

TEST(DirectoryTable, RestoreRejectsUnorderedOrOutOfRangeLines)
{
    const ScopedPanicThrow guard;
    auto image = [](std::vector<Addr> lines) {
        DirEntry e;
        e.state = LineState::Shared;
        e.sharers = 1;
        ckpt::Serializer s;
        s.beginSection(kDirTag);
        s.u64(lines.size());
        for (const Addr line : lines) {
            s.u64(line);
            s.u8(static_cast<std::uint8_t>(e.state));
            s.u32(e.sharers);
            s.u32(e.owner);
        }
        s.endSection();
        return s.bytes();
    };
    Directory dir(kMap, kLineBits);
    EXPECT_NO_THROW(restoreFrom(dir, image({0, 7, kLineLimit - 1})));
    EXPECT_EQ(dir.population(), 3u);
    EXPECT_THROW(restoreFrom(dir, image({7, 7})), PanicError);
    EXPECT_THROW(restoreFrom(dir, image({9, 7})), PanicError);
    EXPECT_THROW(restoreFrom(dir, image({7, kLineLimit})), PanicError);
    EXPECT_THROW(restoreFrom(dir, image({~Addr{0}})), PanicError);
}

} // namespace
} // namespace isim
