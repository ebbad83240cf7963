/**
 * @file
 * Unit tests for the sectored set-associative cache.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/sector_cache.hpp"

namespace impsim {
namespace {

TEST(SectorMask, CoversRequestedBytes)
{
    // 8 B sectors: byte 0 -> sector 0; bytes 8..15 -> sector 1.
    EXPECT_EQ(sectorMask(0x1000, 1, 8), 0x01u);
    EXPECT_EQ(sectorMask(0x1008, 8, 8), 0x02u);
    EXPECT_EQ(sectorMask(0x1004, 8, 8), 0x03u); // Straddles 0 and 1.
    EXPECT_EQ(sectorMask(0x1038, 8, 8), 0x80u); // Last sector.
    EXPECT_EQ(sectorMask(0x1000, 64, 8), 0xffu);
}

TEST(SectorMask, FullLineSectors)
{
    EXPECT_EQ(sectorMask(0x1000, 4, kLineSize), 0x1u);
    EXPECT_EQ(sectorMask(0x103f, 1, kLineSize), 0x1u);
    EXPECT_EQ(fullMask(1), 0x1u);
    EXPECT_EQ(fullMask(8), 0xffu);
    EXPECT_EQ(fullMask(2), 0x3u);
}

class SectorCacheTest : public ::testing::Test
{
  protected:
    // 4 KB, 4-way, 8 B sectors: 16 sets.
    SectorCache cache_{4096, 4, 8};
};

TEST_F(SectorCacheTest, Geometry)
{
    EXPECT_EQ(cache_.numSets(), 16u);
    EXPECT_EQ(cache_.ways(), 4u);
    EXPECT_EQ(cache_.sectorsPerLine(), 8u);
    EXPECT_EQ(cache_.allSectors(), 0xffu);
}

TEST_F(SectorCacheTest, FillAndFind)
{
    CacheLine *v = cache_.victim(0x1000);
    cache_.fill(*v, 0x1000, CState::S, 0xff, false);
    CacheLine *f = cache_.find(0x1000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->lineAddr, 0x1000u);
    EXPECT_EQ(f->state, CState::S);
    // Any address within the line finds it.
    EXPECT_EQ(cache_.find(0x103f), f);
    EXPECT_EQ(cache_.find(0x1040), nullptr);
}

TEST_F(SectorCacheTest, PartialValidMask)
{
    CacheLine *v = cache_.victim(0x2000);
    cache_.fill(*v, 0x2000, CState::S, 0x03, true);
    CacheLine *f = cache_.find(0x2000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->validMask, 0x03u);
    EXPECT_TRUE(f->prefetched);
    EXPECT_FALSE(f->touched);
}

TEST_F(SectorCacheTest, LruVictimSelection)
{
    // Fill all 4 ways of set 0 (lines 0x0000, 0x4000*k map to set 0
    // since sets=16 -> stride 16*64 = 0x400).
    Addr base = 0;
    for (int w = 0; w < 4; ++w) {
        CacheLine *v = cache_.victim(base + w * 0x400);
        EXPECT_FALSE(v->valid());
        cache_.fill(*v, base + w * 0x400, CState::S, 0xff, false);
    }
    // Touch lines 1..3 so line 0 is LRU.
    for (int w = 1; w < 4; ++w)
        cache_.touch(*cache_.find(base + w * 0x400));
    CacheLine *v = cache_.victim(base + 4 * 0x400);
    ASSERT_TRUE(v->valid());
    EXPECT_EQ(v->lineAddr, base);
}

TEST_F(SectorCacheTest, InvalidateFreesFrame)
{
    CacheLine *v = cache_.victim(0x3000);
    cache_.fill(*v, 0x3000, CState::M, 0xff, false);
    v->dirtyMask = 0xf0;
    cache_.invalidate(*v);
    EXPECT_EQ(cache_.find(0x3000), nullptr);
    EXPECT_EQ(v->dirtyMask, 0u);
    EXPECT_EQ(cache_.residentLines(), 0u);
}

TEST_F(SectorCacheTest, ResidentLineCountTracks)
{
    for (int i = 0; i < 10; ++i) {
        CacheLine *v = cache_.victim(i * 64);
        cache_.fill(*v, i * 64, CState::S, 0xff, false);
    }
    EXPECT_EQ(cache_.residentLines(), 10u);
}

TEST_F(SectorCacheTest, NoDuplicateTagsInSet)
{
    // Filling the same line twice must be findable exactly once.
    CacheLine *v = cache_.victim(0x5000);
    cache_.fill(*v, 0x5000, CState::S, 0x01, false);
    CacheLine *f1 = cache_.find(0x5000);
    f1->validMask |= 0x02; // Sector refill in place.
    int found = 0;
    cache_.forEachLine([&](const CacheLine &l) {
        if (l.lineAddr == 0x5000)
            ++found;
    });
    EXPECT_EQ(found, 1);
}

TEST_F(SectorCacheTest, FindNeverReturnsAnInvalidatedFrame)
{
    // find() compares tags only; invalid frames must hold a tag no
    // lookup can match, fresh or invalidated, and keep it while the
    // rest of the set refills around them.
    const Addr set0[] = {0x0000, 0x0400, 0x0800, 0x0c00, 0x1000, 0x1400};
    EXPECT_EQ(cache_.find(set0[0]), nullptr) << "fresh frames";
    EXPECT_EQ(cache_.find(kNoAddr), nullptr);
    for (int i = 0; i < 4; ++i) {
        CacheLine *v = cache_.victim(set0[i]);
        cache_.fill(*v, set0[i], CState::S, 0xff, false);
    }
    cache_.invalidate(*cache_.find(set0[1]));
    cache_.invalidate(*cache_.find(set0[3]));
    EXPECT_EQ(cache_.find(set0[1]), nullptr);
    EXPECT_EQ(cache_.find(set0[3]), nullptr);
    EXPECT_EQ(cache_.find(kNoAddr), nullptr);

    // Refills take the invalid frames; the invalidated tags stay gone.
    for (int i = 4; i < 6; ++i) {
        CacheLine *v = cache_.victim(set0[i]);
        EXPECT_FALSE(v->valid());
        cache_.fill(*v, set0[i], CState::E, 0x0f, false);
    }
    for (int i : {0, 2, 4, 5}) {
        const CacheLine *l = cache_.find(set0[i]);
        ASSERT_NE(l, nullptr);
        EXPECT_TRUE(l->valid());
        EXPECT_EQ(l->lineAddr, set0[i]);
    }
    EXPECT_EQ(cache_.find(set0[1]), nullptr);
    EXPECT_EQ(cache_.find(set0[3]), nullptr);

    // An LRU eviction then a refill of the evicted line's own tag.
    CacheLine *lru = cache_.victim(set0[1]);
    Addr evicted = lru->lineAddr;
    cache_.invalidate(*lru);
    EXPECT_EQ(cache_.find(evicted), nullptr);
    cache_.fill(*lru, set0[1], CState::S, 0xff, false);
    EXPECT_EQ(cache_.find(evicted), nullptr);
    EXPECT_EQ(cache_.find(set0[1]), lru);
}

TEST(SectorCacheProperty, FindMatchesAReferenceSetOfResidentLines)
{
    SectorCache cache(2048, 4, kLineSize); // 8 sets.
    std::vector<Addr> resident;
    std::uint64_t x = 42;
    auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    for (int i = 0; i < 20000; ++i) {
        Addr line = (next() % 96) * kLineSize; // 12 lines per set.
        CacheLine *hit = cache.find(line);
        bool in_ref = std::find(resident.begin(), resident.end(), line) !=
                      resident.end();
        ASSERT_EQ(hit != nullptr, in_ref) << "step " << i;
        if (hit != nullptr) {
            ASSERT_TRUE(hit->valid());
            ASSERT_EQ(hit->lineAddr, line);
            if (next() % 3 == 0) {
                cache.invalidate(*hit);
                resident.erase(
                    std::find(resident.begin(), resident.end(), line));
            }
            continue;
        }
        CacheLine *v = cache.victim(line);
        if (v->valid()) {
            resident.erase(std::find(resident.begin(), resident.end(),
                                     v->lineAddr));
            cache.invalidate(*v);
        }
        cache.fill(*v, line, CState::S, 1, false);
        resident.push_back(line);
    }
}

/** Parameterised: geometry invariants across sector sizes. */
class SectorSizeSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SectorSizeSweep, MaskAndGeometryConsistent)
{
    std::uint32_t sector = GetParam();
    SectorCache c(32 * 1024, 4, sector);
    EXPECT_EQ(c.sectorsPerLine() * sector, kLineSize);
    EXPECT_EQ(sectorMask(0, kLineSize, sector),
              fullMask(c.sectorsPerLine()));
    // A one-byte access touches exactly one sector.
    for (Addr a = 0; a < kLineSize; a += 7) {
        std::uint32_t m = sectorMask(a, 1, sector);
        EXPECT_EQ(m & (m - 1), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SectorSizeSweep,
                         ::testing::Values(8u, 16u, 32u, 64u));

/** Property: victim never returns a line from the wrong set. */
TEST(SectorCacheProperty, VictimStaysInSet)
{
    SectorCache c(8192, 2, 64);
    for (Addr a = 0; a < 64 * 256; a += 64) {
        CacheLine *v = c.victim(a);
        if (v->valid())
            EXPECT_EQ(c.setOf(v->lineAddr), c.setOf(a));
        c.fill(*v, a, CState::S, c.allSectors(), false);
    }
}

} // namespace
} // namespace impsim
