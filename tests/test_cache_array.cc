/**
 * @file
 * Unit and property tests for the set-associative tag array,
 * including a randomized cross-check against a reference LRU model
 * and checkpoint round trips of the per-slot LRU stamps.
 */

#include <gtest/gtest.h>

#include <list>
#include <tuple>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/mem/cache_array.hh"

namespace isim {
namespace {

TEST(CacheArray, MissOnEmpty)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    EXPECT_EQ(array.findLine(0), nullptr);
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, AllocateThenFind)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(100, LineState::Shared, v);
    EXPECT_FALSE(v.valid);
    CacheLine *line = array.findLine(100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    EXPECT_EQ(array.lineAddrOf(*line), 100u);
    EXPECT_EQ(array.validLines(), 1u);
}

TEST(CacheArray, LruVictimSelection)
{
    // 2-way, map three conflicting lines to the same set.
    const CacheGeometry g{8 * kib, 2, 64};
    CacheArray array(g);
    const std::uint64_t sets = g.sets();
    const Addr a = 5, b = 5 + sets, c = 5 + 2 * sets;

    Victim v;
    array.allocate(a, LineState::Shared, v);
    array.allocate(b, LineState::Modified, v);
    EXPECT_FALSE(v.valid);

    // Touch `a` so `b` becomes LRU.
    array.touch(*array.findLine(a));
    array.allocate(c, LineState::Shared, v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, b);
    EXPECT_EQ(v.state, LineState::Modified);
    EXPECT_NE(array.findLine(a), nullptr);
    EXPECT_EQ(array.findLine(b), nullptr);
    EXPECT_NE(array.findLine(c), nullptr);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(1, LineState::Shared, v);
    array.invalidate(*array.findLine(1));
    EXPECT_EQ(array.findLine(1), nullptr);
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(1, LineState::Shared, v);
    array.allocate(2, LineState::Modified, v);
    std::map<Addr, LineState> seen;
    array.forEachValid([&](Addr line, const CacheLine &cl) {
        seen[line] = cl.state;
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1], LineState::Shared);
    EXPECT_EQ(seen[2], LineState::Modified);
}

TEST(CacheArrayDeathTest, DoubleAllocatePanics)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(7, LineState::Shared, v);
    EXPECT_DEATH(array.allocate(7, LineState::Shared, v),
                 "already-resident");
}

/**
 * Reference model: per-set LRU lists, checked against the array under
 * a long random access/allocate/invalidate workload.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheGeometry &g) : geom_(g) {}

    /** Returns true on hit (and refreshes recency). */
    bool
    access(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        return false;
    }

    /** Allocates; returns victim line or -1. */
    std::int64_t
    allocate(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        std::int64_t victim = -1;
        if (set.size() == geom_.assoc) {
            victim = static_cast<std::int64_t>(set.back());
            set.pop_back();
        }
        set.push_front(line);
        return victim;
    }

    void
    invalidate(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        set.remove(line);
    }

  private:
    CacheGeometry geom_;
    std::unordered_map<std::uint64_t, std::list<Addr>> sets_;
};

class CacheArrayProperty
    : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheArrayProperty, MatchesReferenceLru)
{
    const CacheGeometry g = GetParam();
    CacheArray array(g);
    ReferenceLru ref(g);
    Rng rng(0xA11CE + g.assoc + g.sizeBytes);

    // Address pool ~4x the cache to force plenty of evictions.
    const std::uint64_t pool = g.lines() * 4;

    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.below(pool);
        const int op = static_cast<int>(rng.below(10));
        if (op == 0) {
            // Invalidate in both.
            if (CacheLine *cl = array.findLine(line))
                array.invalidate(*cl);
            ref.invalidate(line);
            continue;
        }
        CacheLine *cl = array.findLine(line);
        const bool ref_hit = ref.access(line);
        ASSERT_EQ(cl != nullptr, ref_hit) << "step " << step;
        if (cl != nullptr) {
            array.touch(*cl);
        } else {
            Victim v;
            array.allocate(line, LineState::Shared, v);
            const std::int64_t ref_victim = ref.allocate(line);
            ASSERT_EQ(v.valid, ref_victim >= 0) << "step " << step;
            if (v.valid) {
                ASSERT_EQ(static_cast<std::int64_t>(v.lineAddr),
                          ref_victim)
                    << "step " << step;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(CacheGeometry{4 * kib, 1, 64},
                      CacheGeometry{8 * kib, 2, 64},
                      CacheGeometry{16 * kib, 4, 64},
                      CacheGeometry{32 * kib, 8, 64},
                      CacheGeometry{16 * kib, 16, 64},
                      // non-power-of-two set count (1.25M-style)
                      CacheGeometry{20 * kib, 4, 64}),
    [](const ::testing::TestParamInfo<CacheGeometry> &tpi) {
        return tpi.param.shortName();
    });

/** Fully-associative LRU has the stack (inclusion) property. */
TEST(CacheArray, FullyAssocStackProperty)
{
    const unsigned small_ways = 16, big_ways = 32;
    CacheArray small(
        CacheGeometry{small_ways * 64ull, small_ways, 64});
    CacheArray big(CacheGeometry{big_ways * 64ull, big_ways, 64});
    Rng rng(77);
    std::uint64_t small_hits = 0, big_hits = 0;
    for (int i = 0; i < 30000; ++i) {
        const Addr line = rng.zipf(256, 0.6);
        for (auto *array : {&small, &big}) {
            if (CacheLine *cl = array->findLine(line)) {
                array->touch(*cl);
                (array == &small ? small_hits : big_hits) += 1;
                // Stack property: a small-cache hit implies a
                // big-cache hit.
                if (array == &small) {
                    ASSERT_NE(big.findLine(line), nullptr);
                }
            } else {
                Victim v;
                array->allocate(line, LineState::Shared, v);
            }
        }
    }
    EXPECT_LE(small_hits, big_hits);
}

constexpr std::uint32_t kArrayTag = ckpt::sectionTag("TAGS");

std::vector<std::uint8_t>
imageOf(const CacheArray &array)
{
    ckpt::Serializer s;
    s.beginSection(kArrayTag);
    array.saveState(s);
    s.endSection();
    return s.bytes();
}

/** Seeded hits, fills and invalidations; returns the victims seen. */
std::vector<Addr>
exercise(CacheArray &array, Rng &rng, int steps)
{
    std::vector<Addr> victims;
    const std::uint64_t pool = array.geometry().lines() * 3;
    for (int step = 0; step < steps; ++step) {
        const Addr line = rng.below(pool);
        CacheLine *cl = array.findLine(line);
        if (rng.below(8) == 0) {
            if (cl != nullptr)
                array.invalidate(*cl);
        } else if (cl != nullptr) {
            array.touch(*cl);
        } else {
            Victim v;
            array.allocate(line, LineState::Modified, v).prefetched =
                rng.below(2) == 0;
            victims.push_back(v.valid ? v.lineAddr : ~Addr{0});
        }
    }
    return victims;
}

TEST(CacheArray, StampsSitBesideSixteenByteLines)
{
    // Each valid line's record is (slot, tag, state, prefetched,
    // stamp): the stamps moved out of CacheLine, not out of the image.
    const CacheGeometry g{8 * kib, 2, 64};
    CacheArray array(g);
    const Addr a = 3, b = 3 + g.sets();
    Victim v;
    array.allocate(a, LineState::Shared, v);  // stamp 1
    array.allocate(b, LineState::Modified, v); // stamp 2
    array.touch(*array.findLine(a));           // stamp 3
    EXPECT_EQ(array.lastUseOf(*array.findLine(a)), 3u);
    EXPECT_EQ(array.lastUseOf(*array.findLine(b)), 2u);

    ckpt::Serializer want;
    want.beginSection(kArrayTag);
    want.u64(g.sizeBytes);
    want.u32(g.assoc);
    want.u32(g.lineBytes);
    want.u64(3); // use stamp
    want.u64(2); // valid lines, in slot order
    for (const auto &[slot, tag, state, stamp] :
         {std::tuple{3 * 2, a / g.sets(), LineState::Shared, 3},
          std::tuple{3 * 2 + 1, b / g.sets(), LineState::Modified, 2}}) {
        want.u64(static_cast<std::uint64_t>(slot));
        want.u64(tag);
        want.u8(static_cast<std::uint8_t>(state));
        want.b(false);
        want.u64(static_cast<std::uint64_t>(stamp));
    }
    want.endSection();
    EXPECT_EQ(imageOf(array), want.bytes());
}

TEST(CacheArray, RestoredStampsKeepLruVictims)
{
    for (const CacheGeometry &g :
         {CacheGeometry{16 * kib, 4, 64}, CacheGeometry{20 * kib, 4, 64},
          CacheGeometry{4 * kib, 1, 64}}) {
        CacheArray array(g);
        Rng rng(0x57a4 + g.sizeBytes);
        exercise(array, rng, 20000);
        const std::vector<std::uint8_t> image = imageOf(array);

        // Restore over an array with other contents.
        CacheArray restored(g);
        Rng other(1);
        exercise(restored, other, 5000);
        ckpt::Deserializer d(image);
        d.beginSection(kArrayTag);
        restored.restoreState(d);
        d.endSection();
        EXPECT_EQ(imageOf(restored), image) << g.shortName();

        // Both continue with the same victims, so the stamps came back.
        Rng rng_copy = rng;
        EXPECT_EQ(exercise(restored, rng_copy, 20000),
                  exercise(array, rng, 20000))
            << g.shortName();
        EXPECT_EQ(imageOf(restored), imageOf(array)) << g.shortName();
    }
}

} // namespace
} // namespace isim
