/**
 * @file
 * The completion contract of the L1 port (MemPort::demandAccess and
 * TlbWalkPort::walkAccess): every request's `done` runs exactly once,
 * at the tick its data is available, on every path through the L1 —
 * hit, merge into an in-flight fill, retry, upgrade replay, magic and
 * PerfPref memory, DTLB miss and PTE read — and a prefetch to a page
 * the core has not translated is dropped without a walk or a fill.
 *
 * The pinned ticks are the model's timing on a 4-core hierarchy: a
 * completion that ran one tick early or late, or as a second event,
 * would move a golden only in some configurations, so each path is
 * pinned here on its own.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/mem_hierarchy.hpp"
#include "sim/presets.hpp"

namespace impsim {
namespace {

/** A 4-core hierarchy and a core stand-in that records completions. */
struct Rig
{
    explicit Rig(SystemConfig c)
        : cfg(c), hier(std::make_unique<MemHierarchy>(cfg, eq, mem))
    {}

    /** Issues @p a on core @p core; returns its completion's index. */
    std::size_t
    issue(CoreId core, Addr addr, bool write = false)
    {
        MemAccess a;
        a.addr = addr;
        a.pc = 1;
        a.size = 8;
        a.flags = write ? kFlagWrite : 0;
        std::size_t i = calls.size();
        calls.push_back(0);
        at.push_back(kNoTick);
        hier->l1(core).demandAccess(a, record(i));
        return i;
    }

    /** Reads the PTE line at @p addr through core @p core's L1. */
    std::size_t
    walk(CoreId core, Addr addr)
    {
        std::size_t i = calls.size();
        calls.push_back(0);
        at.push_back(kNoTick);
        hier->l1(core).walkAccess(addr, record(i));
        return i;
    }

    EventFn
    record(std::size_t i)
    {
        return [this, i] {
            ++calls[i];
            at[i] = eq.now();
        };
    }

    SystemConfig cfg;
    EventQueue eq;
    FuncMem mem;
    std::unique_ptr<MemHierarchy> hier;
    std::vector<int> calls;
    std::vector<Tick> at;
};

SystemConfig
baseConfig()
{
    return makePreset(ConfigPreset::NoPrefetch, 4);
}

constexpr Addr kLine = 0x100000;
/** Lines 8 KiB apart share an L1 set (32 KiB, 4 ways, 64 B lines). */
constexpr Addr kSetStride = 8 * 1024;

TEST(Completion, HitCompletesAfterTheL1Latency)
{
    Rig r(baseConfig());
    r.issue(0, kLine);
    r.eq.run();
    Tick t0 = r.eq.now();
    std::size_t hit = r.issue(0, kLine + 8);
    r.eq.run();
    EXPECT_EQ(r.calls[hit], 1);
    EXPECT_EQ(r.at[hit], t0 + r.cfg.l1LatencyCycles);
    EXPECT_EQ(r.hier->l1(0).stats().hits, 1u);
}

TEST(Completion, MergedDemandCompletesWithTheFill)
{
    Rig r(baseConfig());
    std::size_t miss = r.issue(0, kLine);
    std::size_t merged = r.issue(0, kLine + 16);
    r.eq.run();
    EXPECT_EQ(r.calls[miss], 1);
    EXPECT_EQ(r.calls[merged], 1);
    EXPECT_EQ(r.at[miss], 130u);
    EXPECT_EQ(r.at[merged], r.at[miss]);
    EXPECT_EQ(r.hier->l1(0).stats().demandMerges, 1u);
}

TEST(Completion, RetriedStoreCompletesOnce)
{
    Rig r(baseConfig());
    // Core 1 shares the line, so core 0's read fill lands in S and a
    // store issued during it cannot ride it: it retries after.
    r.issue(1, kLine);
    r.eq.run();
    Tick t0 = r.eq.now();
    std::size_t load = r.issue(0, kLine);
    std::size_t store = r.issue(0, kLine, true);
    r.eq.run();
    ASSERT_EQ(r.hier->l1(0).stats().retries, 1u);
    EXPECT_EQ(r.calls[load], 1);
    EXPECT_EQ(r.calls[store], 1);
    EXPECT_EQ(r.at[load] - t0, 24u);
    EXPECT_EQ(r.at[store] - t0, 41u);
}

TEST(Completion, ReplayedUpgradeCompletesOnce)
{
    Rig r(baseConfig());
    // Core 0 holds the line in S (core 1 shares it) and four lines of
    // its set sit in the L2, so refetching them is quick.
    r.issue(0, kLine);
    r.issue(1, kLine);
    for (Addr k = 1; k <= 4; ++k)
        r.issue(2, kLine + k * kSetStride);
    r.eq.run();
    std::uint64_t misses = r.hier->l1(0).stats().misses;
    Tick t0 = r.eq.now();
    // Four refills of the set start first; the store's upgrade starts
    // 12 ticks later and is still in flight when the fourth refill
    // evicts the line. The upgrade then lands on no frame and replays
    // the store as a full miss.
    for (Addr k = 1; k <= 4; ++k)
        r.issue(0, kLine + k * kSetStride);
    std::size_t store = 0;
    r.eq.schedule(t0 + 12, [&] { store = r.issue(0, kLine, true); });
    r.eq.run();
    ASSERT_EQ(r.hier->l1(0).stats().misses, misses + 4 + 1)
        << "the store must be replayed as a miss";
    EXPECT_EQ(r.calls[store], 1);
    EXPECT_EQ(r.at[store] - t0, 40u);
}

TEST(Completion, MagicMemoryCompletesAfterTheL1Latency)
{
    SystemConfig cfg = baseConfig();
    cfg.magicMemory = true;
    Rig r(cfg);
    std::size_t load = r.issue(0, kLine);
    std::size_t store = r.issue(0, kLine + kSetStride, true);
    r.eq.run();
    EXPECT_EQ(r.calls[load], 1);
    EXPECT_EQ(r.calls[store], 1);
    EXPECT_EQ(r.at[load], r.cfg.l1LatencyCycles);
    EXPECT_EQ(r.at[store], r.cfg.l1LatencyCycles);
}

TEST(Completion, PerfPrefLoadAndStoreCompleteOnce)
{
    SystemConfig cfg = baseConfig();
    cfg.perfectMemory = true;
    Rig r(cfg);
    // A cold miss well within the oracle's lead: L1-hit latency.
    std::size_t load = r.issue(0, kLine);
    std::size_t store = r.issue(0, kLine + kSetStride, true);
    r.eq.run();
    EXPECT_EQ(r.calls[load], 1);
    EXPECT_EQ(r.calls[store], 1);
    EXPECT_EQ(r.at[load], r.cfg.l1LatencyCycles);
    EXPECT_EQ(r.at[store], r.cfg.l1LatencyCycles);
    EXPECT_TRUE(r.hier->l1(0).linePresent(kLine + kSetStride));
}

SystemConfig
tlbConfig()
{
    SystemConfig cfg = baseConfig();
    cfg.tlb.enable = true;
    return cfg;
}

TEST(Completion, DtlbMissCompletesOnceAfterTheWalk)
{
    Rig r(tlbConfig());
    ASSERT_NE(r.hier->mmu(), nullptr);
    std::size_t load = r.issue(0, kLine);
    r.eq.run();
    EXPECT_EQ(r.hier->mmu()->stats().walks, 1u);
    EXPECT_EQ(r.calls[load], 1);
    EXPECT_EQ(r.at[load], 659u);
}

TEST(Completion, PteReadHitsAndRidesAnInFlightFill)
{
    Rig r(baseConfig());
    // A PTE read of a line whose demand fill is in flight waits on
    // that fill and completes with it, exactly once.
    std::size_t miss = r.issue(0, kLine);
    std::size_t waiter = r.walk(0, kLine + 8);
    r.eq.run();
    EXPECT_EQ(r.calls[miss], 1);
    EXPECT_EQ(r.calls[waiter], 1);
    EXPECT_EQ(r.at[waiter], r.at[miss]);
    EXPECT_EQ(r.hier->l1(0).stats().demandMerges, 0u)
        << "a walk waiter is not a demand merge";
    // Resident now: an L1 hit.
    Tick t0 = r.eq.now();
    std::size_t hit = r.walk(0, kLine + 16);
    r.eq.run();
    EXPECT_EQ(r.calls[hit], 1);
    EXPECT_EQ(r.at[hit], t0 + r.cfg.l1LatencyCycles);
}

TEST(Completion, UntranslatedPrefetchIsDroppedUntilADemandTranslates)
{
    Rig r(tlbConfig());
    L1Controller &l1 = r.hier->l1(0);
    const TlbStats &ts = r.hier->mmu()->stats();
    // Another line of kLine's page.
    PrefetchRequest req;
    req.addr = kLine + 2 * kLineSize;

    // The page is not in core 0's DTLB: dropped, with no walk and no
    // fill behind it.
    EXPECT_FALSE(l1.issuePrefetch(req));
    EXPECT_EQ(r.eq.pending(), 0u);
    EXPECT_EQ(ts.pfCrossDropped, 1u);
    EXPECT_EQ(ts.walks, 0u);
    EXPECT_EQ(l1.stats().prefIssued, 0u);

    // A demand walks the page into the DTLB; the same request issues.
    std::size_t load = r.issue(0, kLine);
    r.eq.run();
    ASSERT_EQ(r.calls[load], 1);
    ASSERT_EQ(ts.walks, 1u);
    EXPECT_TRUE(l1.issuePrefetch(req));
    EXPECT_EQ(ts.pfSamePage, 1u);
    r.eq.run();
    EXPECT_EQ(l1.stats().prefIssued, 1u);
    EXPECT_TRUE(l1.linePresent(req.addr));
    EXPECT_EQ(ts.walks, 1u);
}

} // namespace
} // namespace impsim
