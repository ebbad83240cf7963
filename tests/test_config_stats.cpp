/**
 * @file
 * Unit tests for configuration derivation, RNG determinism and the
 * statistics structs.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/intmath.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/presets.hpp"

namespace impsim {
namespace {

TEST(Config, MeshDimensions)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    EXPECT_EQ(cfg.meshDim(), 4u);
    cfg.numCores = 64;
    EXPECT_EQ(cfg.meshDim(), 8u);
    cfg.numCores = 256;
    EXPECT_EQ(cfg.meshDim(), 16u);
}

TEST(Config, MemControllersScaleWithSqrtN)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    EXPECT_EQ(cfg.numMemControllers(), 4u);
    cfg.numCores = 256;
    EXPECT_EQ(cfg.numMemControllers(), 16u);
}

TEST(Config, L2SliceShrinksWithCores)
{
    SystemConfig a, b;
    a.numCores = 16;
    b.numCores = 256;
    EXPECT_GT(a.l2SliceBytes(), b.l2SliceBytes());
    // Set count must stay a power of two for indexing.
    std::uint32_t sets = a.l2SliceBytes() / (kLineSize * a.l2Ways);
    EXPECT_TRUE(isPow2(sets));
}

TEST(Config, SectorCounts)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.l1Sectors(), 8u);  // 8 B sectors (Table 2).
    EXPECT_EQ(cfg.l2Sectors(), 2u);  // 32 B sectors (Table 2).
}

TEST(Config, Table2Defaults)
{
    ImpConfig imp;
    EXPECT_EQ(imp.ptEntries, 16u);
    EXPECT_EQ(imp.ipdEntries, 4u);
    EXPECT_EQ(imp.maxPrefetchDistance, 16u);
    EXPECT_EQ(imp.maxIndirectWays, 2u);
    EXPECT_EQ(imp.maxIndirectLevels, 2u);
    EXPECT_EQ(imp.baseAddrSlots, 4u);
    // Shifts 2, 3, 4, -3 == Coeff 4, 8, 16, 1/8.
    EXPECT_EQ(imp.shifts[0], 2);
    EXPECT_EQ(imp.shifts[1], 3);
    EXPECT_EQ(imp.shifts[2], 4);
    EXPECT_EQ(imp.shifts[3], -3);
}

TEST(ConfigDeath, NonSquareCoreCountIsFatal)
{
    SystemConfig cfg;
    cfg.numCores = 12;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "perfect square");
}

TEST(Presets, NamesAndFlags)
{
    EXPECT_STREQ(presetName(ConfigPreset::Baseline), "Base");
    EXPECT_STREQ(presetName(ConfigPreset::Imp), "IMP");
    EXPECT_TRUE(presetWantsSwPrefetch(ConfigPreset::SwPref));
    EXPECT_FALSE(presetWantsSwPrefetch(ConfigPreset::Imp));
}

TEST(Presets, ConfigurationsMatchPaper)
{
    SystemConfig ideal = makePreset(ConfigPreset::Ideal, 64);
    EXPECT_TRUE(ideal.magicMemory);

    SystemConfig pp = makePreset(ConfigPreset::PerfectPref, 64);
    EXPECT_TRUE(pp.perfectMemory);
    EXPECT_FALSE(pp.magicMemory);

    SystemConfig base = makePreset(ConfigPreset::Baseline, 64);
    EXPECT_EQ(base.effectivePrefetcherSpec(0), "stream");
    EXPECT_EQ(base.effectiveL2PrefetcherSpec(0), "none")
        << "the paper evaluates L1-attached prefetching only";
    EXPECT_EQ(base.partial, PartialMode::Off);

    SystemConfig imp = makePreset(ConfigPreset::Imp, 64);
    EXPECT_EQ(imp.effectivePrefetcherSpec(0), "imp");

    SystemConfig ghb = makePreset(ConfigPreset::Ghb, 64);
    EXPECT_EQ(ghb.effectivePrefetcherSpec(0), "stream+ghb");

    SystemConfig pn = makePreset(ConfigPreset::ImpPartialNoc, 64);
    EXPECT_EQ(pn.partial, PartialMode::NocOnly);

    SystemConfig pd = makePreset(ConfigPreset::ImpPartialNocDram, 64);
    EXPECT_EQ(pd.partial, PartialMode::NocAndDram);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(Stats, CoverageDefinition)
{
    CacheStats s;
    s.misses = 50;
    s.prefUsefulFirstTouch = 40;
    s.prefLate = 10;
    // 50 covered out of 100 would-be misses.
    EXPECT_DOUBLE_EQ(s.coverage(), 0.5);
}

TEST(Stats, AccuracyDefinition)
{
    CacheStats s;
    s.prefUsefulFirstTouch = 30;
    s.prefLate = 10;
    s.prefUnused = 60;
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.4);
}

TEST(Stats, EmptyMetricsAreZero)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
}

/** The address of each row's field in @p s, in list order. */
template <typename S>
std::vector<const void *>
rowFields(const S &s)
{
    std::vector<const void *> out;
    S::forEachCounter([&](const char *, auto member, Merge) {
        out.push_back(&(s.*member));
    });
    return out;
}

template <typename... T>
std::vector<const void *>
addressesOf(const T &...fields)
{
    return {&fields...};
}

// A structured binding must name every member, so adding or removing
// a field stops this test from compiling until its binding is updated,
// and then fails until the struct's counter list has a row for it.
TEST(Stats, EveryFieldHasOneRowInFieldOrder)
{
    CoreStats core;
    const auto &[c0, c1, c2, c3, c4, c5, c6, c7, c8] = core;
    EXPECT_EQ(rowFields(core),
              addressesOf(c0, c1, c2, c3, c4, c5, c6, c7, c8));

    CacheStats cache;
    const auto &[a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                 a13, a14, a15] = cache;
    EXPECT_EQ(rowFields(cache),
              addressesOf(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11,
                          a12, a13, a14, a15));

    TlbStats tlb;
    const auto &[t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11] = tlb;
    EXPECT_EQ(rowFields(tlb), addressesOf(t0, t1, t2, t3, t4, t5, t6, t7,
                                          t8, t9, t10, t11));

    NocStats noc;
    const auto &[n0, n1, n2, n3, n4] = noc;
    EXPECT_EQ(rowFields(noc), addressesOf(n0, n1, n2, n3, n4));

    DramStats dram;
    const auto &[d0, d1, d2, d3, d4, d5, d6] = dram;
    EXPECT_EQ(rowFields(dram), addressesOf(d0, d1, d2, d3, d4, d5, d6));
}

/** Gives each counter of @p s a value from @p base and its position. */
template <typename S>
void
fillCounters(S &s, std::uint64_t base, bool flag)
{
    std::uint64_t row = 0;
    S::forEachCounter([&](const char *, auto member, Merge) {
        auto &field = s.*member;
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
            field = flag;
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            field = base + row;
        } else {
            for (std::size_t i = 0; i < field.size(); ++i)
                field[i] = base + row + 1000 * i;
        }
        ++row;
    });
}

/**
 * Merges two filled @p S both ways round and checks every row against
 * its rule; @return the names of the Max rows.
 */
template <typename S>
std::set<std::string>
expectMergeFollowsRows()
{
    S small, big;
    fillCounters(small, 10, false);
    fillCounters(big, 500, true);
    S smallFirst = small, bigFirst = big;
    smallFirst.merge(big);
    bigFirst.merge(small);
    std::set<std::string> maxRows;
    S::forEachCounter([&](const char *name, auto member, Merge rule) {
        const auto &lo = small.*member;
        const auto &hi = big.*member;
        auto want = lo;
        using T = std::decay_t<decltype(lo)>;
        if constexpr (std::is_same_v<T, bool>) {
            want = true;
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            want = rule == Merge::Sum ? lo + hi : hi;
        } else {
            for (std::size_t i = 0; i < want.size(); ++i)
                want[i] = rule == Merge::Sum ? lo[i] + hi[i] : hi[i];
        }
        EXPECT_EQ(smallFirst.*member, want) << name;
        EXPECT_EQ(bigFirst.*member, want) << name;
        if (rule == Merge::Max)
            maxRows.insert(name);
    });
    return maxRows;
}

TEST(Stats, MergeAccumulates)
{
    CoreStats a, b;
    a.instructions = 10;
    a.finishTick = 100;
    a.stallCycles[0] = 5;
    b.instructions = 20;
    b.finishTick = 50;
    b.stallCycles[0] = 7;
    a.merge(b);
    EXPECT_EQ(a.instructions, 30u);
    EXPECT_EQ(a.finishTick, 100u); // Max, not sum.
    EXPECT_EQ(a.stallCycles[0], 12u);

    // Every row of all five structs: sum rows add (arrays
    // element by element), max rows keep the larger value.
    using Names = std::set<std::string>;
    EXPECT_EQ(expectMergeFollowsRows<CoreStats>(), Names{"finishTick"});
    EXPECT_EQ(expectMergeFollowsRows<CacheStats>(), Names{});
    EXPECT_EQ(expectMergeFollowsRows<TlbStats>(), Names{"enabled"});
    EXPECT_EQ(expectMergeFollowsRows<NocStats>(), Names{});
    EXPECT_EQ(expectMergeFollowsRows<DramStats>(), Names{});
}

TEST(Stats, SimStatsDerived)
{
    SimStats s;
    s.cycles = 100;
    s.core.instructions = 250;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
    s.core.loadLatencySum = 300;
    s.core.loadLatencyCount = 100;
    EXPECT_DOUBLE_EQ(s.avgLoadLatency(), 3.0);
}

TEST(AccessTypeNames, AllDistinct)
{
    EXPECT_STREQ(accessTypeName(AccessType::Stream), "stream");
    EXPECT_STREQ(accessTypeName(AccessType::Indirect), "indirect");
    EXPECT_STREQ(accessTypeName(AccessType::Other), "other");
}

} // namespace
} // namespace impsim
