/**
 * @file
 * FlatHashMap unit tests: the open-addressed table backing the
 * simulator's hottest lookups (L1/L2 pending fills, directory lines,
 * prefetch tables). Checked against std::unordered_map as the model,
 * including collision-heavy keys that force long probe chains and
 * tombstone reuse.
 */
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hpp"

using namespace impsim;

TEST(FlatHashMap, InsertFindEraseBasics)
{
    FlatHashMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.count(42), 0u);
    EXPECT_TRUE(m.find(42) == m.end());

    auto [it, inserted] = m.emplace(42, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->first, 42u);
    EXPECT_EQ(it->second, 7);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.at(42), 7);

    // Duplicate insert leaves the stored value alone.
    auto [it2, inserted2] = m.emplace(42, 99);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(it2->second, 7);
    EXPECT_EQ(m.size(), 1u);

    m[42] = 8;
    EXPECT_EQ(m.at(42), 8);
    m[43] = 1; // operator[] default-constructs then assigns.
    EXPECT_EQ(m.size(), 2u);

    EXPECT_EQ(m.erase(42), 1u);
    EXPECT_EQ(m.erase(42), 0u);
    EXPECT_EQ(m.count(42), 0u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, TryEmplaceOnlyConstructsFreshKeys)
{
    FlatHashMap<std::uint64_t, std::vector<int>> m;
    auto [it, inserted] = m.try_emplace(1, 3, 5); // vector(3, 5)
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->second, (std::vector<int>{5, 5, 5}));
    auto [it2, inserted2] = m.try_emplace(1, 9, 9);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(it2->second.size(), 3u) << "existing value must survive";
}

TEST(FlatHashMap, GrowsThroughRehashesWithoutLosingEntries)
{
    FlatHashMap<std::uint64_t, std::uint64_t> m;
    // Sequential keys: the simulator's typical key stream (line
    // addresses); crossing several growth thresholds exercises
    // rehashing with the Fibonacci mixer.
    constexpr std::uint64_t kN = 10000;
    for (std::uint64_t k = 0; k < kN; ++k)
        m.emplace(k * 64, k);
    EXPECT_EQ(m.size(), kN);
    for (std::uint64_t k = 0; k < kN; ++k) {
        auto it = m.find(k * 64);
        ASSERT_TRUE(it != m.end()) << "key " << k * 64;
        EXPECT_EQ(it->second, k);
    }
    // Iteration visits each entry exactly once.
    std::vector<bool> seen(kN, false);
    std::size_t visits = 0;
    for (const auto &kv : m) {
        ASSERT_LT(kv.second, kN);
        EXPECT_FALSE(seen[kv.second]);
        seen[kv.second] = true;
        ++visits;
    }
    EXPECT_EQ(visits, kN);
}

namespace {

/** All keys land on one slot: worst-case probe chains. */
struct OneBucketHash
{
    std::size_t operator()(std::uint64_t) const { return 0; }
};

} // namespace

TEST(FlatHashMap, CollisionHeavyKeysStillBehave)
{
    FlatHashMap<std::uint64_t, std::uint64_t, OneBucketHash> m;
    constexpr std::uint64_t kN = 300;
    for (std::uint64_t k = 0; k < kN; ++k)
        m.emplace(k, k * 3);
    EXPECT_EQ(m.size(), kN);
    // Erase every other key, then look everything up: probes must
    // walk over tombstones to the survivors.
    for (std::uint64_t k = 0; k < kN; k += 2)
        EXPECT_EQ(m.erase(k), 1u);
    for (std::uint64_t k = 0; k < kN; ++k) {
        if (k % 2 == 0) {
            EXPECT_EQ(m.count(k), 0u);
        } else {
            ASSERT_EQ(m.count(k), 1u) << "key " << k;
            EXPECT_EQ(m.at(k), k * 3);
        }
    }
    // Reinsert into the tombstoned region.
    for (std::uint64_t k = 0; k < kN; k += 2)
        m.emplace(k, k + 1);
    for (std::uint64_t k = 0; k < kN; k += 2)
        EXPECT_EQ(m.at(k), k + 1);
    EXPECT_EQ(m.size(), kN);
}

TEST(FlatHashMap, EraseByIteratorReturnsNextAndSupportsSweeps)
{
    FlatHashMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m.emplace(k, static_cast<int>(k % 7));
    // The erase-while-iterating idiom the controllers use.
    for (auto it = m.begin(); it != m.end();) {
        if (it->second == 0)
            it = m.erase(it);
        else
            ++it;
    }
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(m.count(k), k % 7 == 0 ? 0u : 1u);
}

TEST(FlatHashMap, RandomizedAgainstUnorderedMapModel)
{
    std::mt19937_64 rng(0xC0FFEE);
    FlatHashMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    // Small key space so inserts, hits, misses and erases all occur;
    // interleaved clear() exercises reuse of the same capacity.
    for (int step = 0; step < 200000; ++step) {
        std::uint64_t key = rng() % 512;
        switch (rng() % 4) {
          case 0:
          case 1: {
            std::uint64_t v = rng();
            auto a = m.emplace(key, v);
            auto b = model.emplace(key, v);
            EXPECT_EQ(a.second, b.second);
            break;
          }
          case 2:
            EXPECT_EQ(m.erase(key), model.erase(key));
            break;
          case 3:
            EXPECT_EQ(m.count(key), model.count(key));
            if (model.count(key)) {
                EXPECT_EQ(m.at(key), model.at(key));
            }
            break;
        }
        if (step % 50000 == 49999) {
            EXPECT_EQ(m.size(), model.size());
            m.clear();
            model.clear();
        }
    }
    EXPECT_EQ(m.size(), model.size());
    for (const auto &kv : model)
        EXPECT_EQ(m.at(kv.first), kv.second);
}

TEST(FlatHashMap, ReferencesStableUntilNextInsert)
{
    // The contract the L1's fill path depends on: a value reference
    // stays valid across finds, erases of other keys, and value
    // mutation — anything but an insert.
    FlatHashMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 32; ++k)
        m.emplace(k, k);
    std::uint64_t *v = &m.at(17);
    m.erase(3);
    m.find(21);
    m.at(9) = 99;
    EXPECT_EQ(*v, 17u);
    *v = 1717;
    EXPECT_EQ(m.at(17), 1717u);
}
