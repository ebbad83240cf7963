/**
 * @file
 * The `tlb` tier (docs/tlb.md): TLB arrays, the radix page table, MMU
 * walk/coalescing/prefetch-gate behavior against a stub walk port,
 * virtual-memory effects in whole-System runs, the VirtAlloc
 * page-boundary contract, `[tlb]` config binding, and the TLB-on
 * golden CSV. The TLB-off bit-identity guarantee is pinned both here
 * (enable=false run vs no-[tlb] run) and by the untouched goldens in
 * test_golden_regression.
 *
 * Regenerating the TLB-on golden after an intentional change:
 *
 *   IMPSIM_REGEN_GOLDEN=1 ./build/test_tlb
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config_file.hpp"
#include "common/virt_alloc.hpp"
#include "core/tlb.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

// ---- TlbArray ---------------------------------------------------------

TEST(TlbArray, HitsAfterInsertMissesOtherwise)
{
    TlbArray t(8, 2);
    EXPECT_FALSE(t.lookup(7));
    t.insert(7);
    EXPECT_TRUE(t.lookup(7));
    EXPECT_FALSE(t.lookup(11));
}

TEST(TlbArray, EvictsLeastRecentlyUsedWithinSet)
{
    // 8 entries / 2 ways = 4 sets; VPNs 0, 4, 8 all map to set 0.
    TlbArray t(8, 2);
    t.insert(0);
    t.insert(4);
    EXPECT_TRUE(t.lookup(0)); // Refresh 0 => 4 is now LRU.
    t.insert(8);
    EXPECT_TRUE(t.present(0));
    EXPECT_FALSE(t.present(4));
    EXPECT_TRUE(t.present(8));
}

TEST(TlbArray, PresentDoesNotRefreshRecency)
{
    TlbArray t(8, 2);
    t.insert(0);
    t.insert(4);
    EXPECT_TRUE(t.present(0)); // Peek only: 0 stays LRU.
    t.insert(8);
    EXPECT_FALSE(t.present(0));
    EXPECT_TRUE(t.present(4));
}

TEST(TlbArray, ReinsertRefreshesInsteadOfDuplicating)
{
    TlbArray t(8, 2);
    t.insert(0);
    t.insert(4);
    t.insert(0); // Hit in place; 4 must remain resident.
    t.insert(8); // Evicts 4 (LRU), not 0.
    EXPECT_TRUE(t.present(0));
    EXPECT_FALSE(t.present(4));
}

// ---- PageTable --------------------------------------------------------

TEST(PageTable, WalkPathHasExactlyLevelsEntries)
{
    PageTable pt4k(12, 4);
    PageTable pt2m(21, 3);
    std::vector<Addr> p;
    pt4k.walkPath(Addr{1} << 28, p);
    EXPECT_EQ(p.size(), 4u);
    p.clear();
    pt2m.walkPath(Addr{1} << 28, p);
    EXPECT_EQ(p.size(), 3u);
}

TEST(PageTable, SamePageSharesTheWholePath)
{
    PageTable pt(12, 4);
    std::vector<Addr> a, b;
    pt.walkPath(0x10000000, a);
    pt.walkPath(0x10000fff, b); // Same 4 KiB page.
    EXPECT_EQ(a, b);
    EXPECT_EQ(pt.nodesAllocated(), 4u);
}

TEST(PageTable, NeighbouringPagesShareUpperLevels)
{
    PageTable pt(12, 4);
    std::vector<Addr> a, b;
    pt.walkPath(0x10000000, a);
    pt.walkPath(0x10001000, b); // Next page: same leaf node.
    ASSERT_EQ(a.size(), 4u);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(a[l], b[l]) << "level " << l;
    EXPECT_NE(a[3], b[3]); // Distinct leaf PTE slots.
    EXPECT_EQ(pt.nodesAllocated(), 4u); // No new nodes.
}

TEST(PageTable, NodeLayoutIsDeterministicAcrossInstances)
{
    // Same walk order => byte-identical PTE addresses, the property
    // the TLB-on goldens stand on.
    PageTable a(12, 4), b(12, 4);
    const Addr vaddrs[] = {0x10000000, 0x7fff0000, 0x10002000};
    std::vector<Addr> pa, pb;
    for (Addr v : vaddrs) {
        a.walkPath(v, pa);
        b.walkPath(v, pb);
    }
    EXPECT_EQ(pa, pb);
    EXPECT_EQ(a.nodesAllocated(), b.nodesAllocated());
    EXPECT_EQ(a.footprintBytes(), a.nodesAllocated() * 4096);
}

TEST(PageTable, NodesLiveAboveEveryWorkloadAllocation)
{
    PageTable pt(12, 4);
    std::vector<Addr> p;
    pt.walkPath(PageTable::kNodeBase - 4096, p); // Highest user page.
    for (Addr pte : p) {
        EXPECT_GE(pte, PageTable::kNodeBase);
        EXPECT_LT(pte, Addr{1} << kAddrBits);
    }
}

// ---- Mmu against a stub walk port -------------------------------------

/** Walk port answering every PTE read after a fixed latency. */
struct StubPort : TlbWalkPort
{
    EventQueue *eq = nullptr;
    Tick latency = 50;
    std::vector<Addr> reads;

    void
    walkAccess(Addr addr, EventFn done) override
    {
        reads.push_back(addr);
        eq->schedule(eq->now() + latency, std::move(done));
    }
};

struct MmuFixture
{
    MmuFixture()
    {
        cfg = makePreset(ConfigPreset::Imp, 4);
        cfg.tlb.enable = true;
        mmu = std::make_unique<Mmu>(cfg, eq);
        p0.eq = p1.eq = p2.eq = p3.eq = &eq;
        mmu->connectWalkPorts({&p0, &p1, &p2, &p3});
    }

    SystemConfig cfg;
    EventQueue eq;
    std::unique_ptr<Mmu> mmu;
    StubPort p0, p1, p2, p3;
};

TEST(Mmu, DemandMissWalksOncePerLevelThenHits)
{
    MmuFixture f;
    const Addr a = Addr{1} << 30;
    EXPECT_FALSE(f.mmu->dtlbLookup(0, a));
    Tick done_at = 0;
    f.mmu->translateMiss(0, a, [&] { done_at = f.eq.now(); });
    EXPECT_TRUE(f.eq.run());

    const TlbStats &s = f.mmu->stats();
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.l2Misses, 1u);
    EXPECT_EQ(s.walks, 1u);
    EXPECT_EQ(s.walkAccesses, f.cfg.tlb.walkLevels());
    EXPECT_EQ(f.p0.reads.size(), f.cfg.tlb.walkLevels());
    // L2-TLB probe (latency 9) then 4 serial 50-cycle PTE reads.
    EXPECT_EQ(done_at,
              Tick{f.cfg.tlb.l2LatencyCycles} + 4 * f.p0.latency);
    EXPECT_EQ(s.stallCycles, done_at);
    EXPECT_EQ(s.walkCycles, 4 * f.p0.latency);

    // Translation is now resident in this core's DTLB...
    EXPECT_TRUE(f.mmu->dtlbLookup(0, a));
    // ...and in the shared L2 TLB for the other core.
    EXPECT_FALSE(f.mmu->dtlbLookup(1, a));
    f.mmu->translateMiss(1, a, [] {});
    EXPECT_TRUE(f.eq.run());
    EXPECT_EQ(f.mmu->stats().l2Hits, 1u);
    EXPECT_EQ(f.mmu->stats().walks, 1u); // No second walk.
}

TEST(Mmu, ConcurrentMissesOnOnePageCoalesceIntoOneWalk)
{
    MmuFixture f;
    const Addr a = Addr{1} << 30;
    int fired = 0;
    f.mmu->dtlbLookup(0, a);
    f.mmu->dtlbLookup(1, a + 8);
    f.mmu->translateMiss(0, a, [&] { ++fired; });
    f.mmu->translateMiss(1, a + 8, [&] { ++fired; });
    EXPECT_TRUE(f.eq.run());

    const TlbStats &s = f.mmu->stats();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.walks, 1u);
    EXPECT_EQ(s.walkJoins, 1u);
    EXPECT_EQ(f.p0.reads.size() + f.p1.reads.size(),
              f.cfg.tlb.walkLevels());
    // Both cores got the translation installed.
    EXPECT_TRUE(f.mmu->dtlbLookup(0, a));
    EXPECT_TRUE(f.mmu->dtlbLookup(1, a));
}

TEST(Mmu, PrefetchGateSamePageIsFree)
{
    MmuFixture f;
    const Addr a = Addr{1} << 30;
    f.mmu->dtlbLookup(0, a);
    f.mmu->translateMiss(0, a, [] {});
    EXPECT_TRUE(f.eq.run());

    auto g = f.mmu->prefetchGate(0, a + 64, TlbPfCross::Drop,
                                 [] {});
    EXPECT_EQ(g, Mmu::PfGate::Ready);
    EXPECT_EQ(f.mmu->stats().pfSamePage, 1u);
}

TEST(Mmu, PrefetchGateDropRefusesPageCrossers)
{
    MmuFixture f;
    auto g = f.mmu->prefetchGate(0, Addr{1} << 31, TlbPfCross::Drop,
                                 [] {});
    EXPECT_EQ(g, Mmu::PfGate::Dropped);
    EXPECT_EQ(f.mmu->stats().pfCrossDropped, 1u);
    EXPECT_EQ(f.mmu->stats().walks, 0u);
}

TEST(Mmu, PrefetchGateStallWalksThenFires)
{
    MmuFixture f;
    Tick done_at = 0;
    auto g = f.mmu->prefetchGate(0, Addr{1} << 31, TlbPfCross::Stall,
                                 [&] { done_at = f.eq.now(); });
    EXPECT_EQ(g, Mmu::PfGate::Deferred);
    EXPECT_TRUE(f.eq.run());
    EXPECT_GT(done_at, 0u);
    const TlbStats &s = f.mmu->stats();
    EXPECT_EQ(s.pfCrossStalled, 1u);
    EXPECT_EQ(s.walks, 1u);
    // Prefetch-initiated walks never count demand L2 misses or stalls.
    EXPECT_EQ(s.l2Misses, 0u);
    EXPECT_EQ(s.stallCycles, 0u);
}

TEST(Mmu, PrefetchGateTranslateIsOpportunistic)
{
    MmuFixture f;
    const Addr a = Addr{1} << 30;
    // Not in the L2 TLB: translate must drop, not walk.
    auto g = f.mmu->prefetchGate(0, a, TlbPfCross::Translate,
                                 [] {});
    EXPECT_EQ(g, Mmu::PfGate::Dropped);
    EXPECT_EQ(f.mmu->stats().pfTranslateDropped, 1u);
    EXPECT_EQ(f.mmu->stats().walks, 0u);

    // Warm the L2 TLB through core 1, then translate succeeds.
    f.mmu->translateMiss(1, a, [] {});
    EXPECT_TRUE(f.eq.run());
    Tick done_at = 0;
    g = f.mmu->prefetchGate(0, a, TlbPfCross::Translate,
                            [&] { done_at = f.eq.now(); });
    EXPECT_EQ(g, Mmu::PfGate::Deferred);
    EXPECT_TRUE(f.eq.run());
    EXPECT_EQ(f.mmu->stats().pfCrossTranslated, 1u);
    EXPECT_TRUE(f.mmu->dtlbLookup(0, a));
    EXPECT_GE(done_at, Tick{f.cfg.tlb.l2LatencyCycles});
}

TEST(Mmu, CrossPolicyResolutionCollapsesDefaults)
{
    TlbConfig t;
    EXPECT_EQ(t.globalCross(), TlbPfCross::Drop);
    EXPECT_EQ(t.resolveCross(TlbPfCross::Default), TlbPfCross::Drop);
    t.prefetchCross = TlbPfCross::Stall;
    EXPECT_EQ(t.resolveCross(TlbPfCross::Default), TlbPfCross::Stall);
    EXPECT_EQ(t.resolveCross(TlbPfCross::Translate),
              TlbPfCross::Translate);
}

// ---- Whole-System behavior --------------------------------------------

SimStats
runSmoke(bool tlb, std::uint64_t page_bytes = 4096,
         TlbPfCross cross = TlbPfCross::Drop)
{
    SystemConfig cfg = makePreset(ConfigPreset::Imp, 4);
    cfg.tlb.enable = tlb;
    cfg.tlb.pageBytes = page_bytes;
    cfg.tlb.prefetchCross = cross;
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload w = makeWorkload(AppId::Spmv, params);
    System sys(cfg, w.traces, *w.mem);
    return sys.run();
}

TEST(TlbSystem, WalksShowUpAndCostCycles)
{
    SimStats off = runSmoke(false);
    SimStats on = runSmoke(true);

    EXPECT_FALSE(off.tlb.enabled);
    EXPECT_EQ(off.tlb.walks, 0u);

    EXPECT_TRUE(on.tlb.enabled);
    EXPECT_GT(on.tlb.l1Hits, 0u);
    EXPECT_GT(on.tlb.l1Misses, 0u);
    EXPECT_GT(on.tlb.walks, 0u);
    EXPECT_GT(on.tlb.walkCycles, 0u);
    EXPECT_GT(on.tlb.stallCycles, 0u);
    // Every walk reads one PTE per level, minus nothing: PTE reads
    // are exactly walks x levels.
    EXPECT_EQ(on.tlb.walkAccesses,
              on.tlb.walks * ((kAddrBits - 12 + 8) / 9));
    // Same work executed; translation can only add cycles.
    EXPECT_EQ(on.core.instructions, off.core.instructions);
    EXPECT_GE(on.cycles, off.cycles);
}

TEST(TlbSystem, HugePagesMissLessThanSmallPages)
{
    SimStats p4k = runSmoke(true, 4096);
    SimStats p2m = runSmoke(true, 2u << 20);
    EXPECT_LT(p2m.tlb.l1Misses, p4k.tlb.l1Misses);
    EXPECT_LE(p2m.tlb.walks, p4k.tlb.walks);
    EXPECT_LE(p2m.cycles, p4k.cycles);
}

TEST(TlbSystem, CrossingPolicyMovesPrefetchCounters)
{
    SimStats drop = runSmoke(true, 4096, TlbPfCross::Drop);
    SimStats stall = runSmoke(true, 4096, TlbPfCross::Stall);
    EXPECT_GT(drop.tlb.pfSamePage, 0u);
    EXPECT_GT(drop.tlb.pfCrossDropped, 0u);
    EXPECT_EQ(drop.tlb.pfCrossStalled, 0u);
    EXPECT_GT(stall.tlb.pfCrossStalled, 0u);
    EXPECT_EQ(stall.tlb.pfCrossDropped, 0u);
    // Stalling issues the crossers the drop policy lost.
    EXPECT_GE(stall.l1.prefIssued, drop.l1.prefIssued);
}

TEST(TlbSystem, DisabledTlbIsBitIdenticalToNoTlbSection)
{
    // `[tlb] enable = false` must not perturb a single stat — the
    // no-Mmu fast path is what the shipped goldens are recorded on.
    const std::string base = "[system]\n"
                             "preset = IMP\n"
                             "app    = spmv\n"
                             "cores  = 4\n"
                             "scale  = 0.05\n"
                             "seed   = 42\n";
    const std::string with_off = base + "[tlb]\nenable = false\n";
    auto csv = [](const std::string &text) {
        Experiment exp =
            bindExperiment(ConfigFile::parseString(text, "tlb-off"));
        std::ostringstream os;
        ExperimentRunOptions opt;
        opt.csv = true;
        EXPECT_TRUE(runExperiment(exp, os, opt));
        return os.str();
    };
    EXPECT_EQ(csv(base), csv(with_off));
}

// ---- VirtAlloc page-boundary contract ---------------------------------

TEST(VirtAllocPages, RegionsStartPageAlignedAndDoNotShare)
{
    VirtAlloc va;
    Addr a = va.alloc("a", 100);
    Addr b = va.alloc("b", 100);
    EXPECT_EQ(a % va.pageBytes(), 0u);
    EXPECT_EQ(b % va.pageBytes(), 0u);
    // The inter-region gap keeps distinct arrays on distinct pages.
    EXPECT_GE(b / va.pageBytes(), a / va.pageBytes() + 2);
}

TEST(VirtAllocPages, StraddlingRegionsSpanTheRightPageCount)
{
    VirtAlloc va;
    VirtRegion exact{"exact", va.alloc("exact", 4096), 4096};
    VirtRegion plus1{"plus1", va.alloc("plus1", 4097), 4097};
    VirtRegion tiny{"tiny", va.alloc("tiny", 1), 1};
    EXPECT_EQ(VirtAlloc::pagesSpanned(exact, 4096), 1u);
    EXPECT_EQ(VirtAlloc::pagesSpanned(plus1, 4096), 2u);
    EXPECT_EQ(VirtAlloc::pagesSpanned(tiny, 4096), 1u);
    // The same regions measured in 2 MiB pages collapse to one page.
    EXPECT_EQ(VirtAlloc::pagesSpanned(plus1, 2u << 20), 1u);
    // An unaligned straddler crosses a boundary its size alone hides.
    VirtRegion cross{"cross", 4096 - 8, 16};
    EXPECT_EQ(VirtAlloc::pagesSpanned(cross, 4096), 2u);
}

TEST(VirtAllocPages, AddressesAreDeterministicAcrossInstances)
{
    // Layout depends only on the allocation sequence — two runs (or
    // two seeds feeding identical region sizes) get identical bases.
    VirtAlloc x, y;
    for (int i = 0; i < 8; ++i) {
        std::uint64_t size = 1000 + 977 * i;
        EXPECT_EQ(x.alloc("r", size), y.alloc("r", size)) << i;
    }
}

TEST(VirtAllocPages, PageSizeKnobChangesGranule)
{
    VirtAlloc huge(Addr{1} << 28, 2u << 20);
    Addr a = huge.alloc("a", 100);
    Addr b = huge.alloc("b", 100);
    EXPECT_EQ(huge.pageBytes(), 2u << 20);
    EXPECT_EQ(a % (2u << 20), 0u);
    EXPECT_EQ(b % (2u << 20), 0u);
    EXPECT_GE(b - a, 2 * (Addr{2} << 20));
}

// ---- [tlb] config binding ---------------------------------------------

TEST(TlbConfigFile, SectionBindsEveryKey)
{
    Experiment exp = bindExperiment(ConfigFile::parseString(
        "[system]\ncores = 4\n"
        "[tlb]\n"
        "enable     = true\n"
        "l1_entries = 32\n"
        "l1_ways    = 2\n"
        "l2_entries = 512\n"
        "l2_ways    = 4\n"
        "l2_latency = 7\n"
        "page_bytes = 2097152\n"
        "prefetch_cross        = stall\n"
        "imp_prefetch_cross    = translate\n"
        "stream_prefetch_cross = drop\n"
        "ghb_prefetch_cross    = default\n"));
    ASSERT_EQ(exp.runs.size(), 1u);
    const TlbConfig &t = exp.runs[0].cfg.tlb;
    EXPECT_TRUE(t.enable);
    EXPECT_EQ(t.l1Entries, 32u);
    EXPECT_EQ(t.l1Ways, 2u);
    EXPECT_EQ(t.l2Entries, 512u);
    EXPECT_EQ(t.l2Ways, 4u);
    EXPECT_EQ(t.l2LatencyCycles, 7u);
    EXPECT_EQ(t.pageBytes, 2097152u);
    EXPECT_EQ(t.prefetchCross, TlbPfCross::Stall);
    EXPECT_EQ(t.impCross, TlbPfCross::Translate);
    EXPECT_EQ(t.streamCross, TlbPfCross::Drop);
    EXPECT_EQ(t.ghbCross, TlbPfCross::Default);
    EXPECT_TRUE(experimentUsesTlb(exp));
}

TEST(TlbConfigFile, BadValuesDiagnoseWithPosition)
{
    auto bindError = [](const std::string &text) {
        try {
            bindExperiment(ConfigFile::parseString(text));
        } catch (const ConfigError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected a ConfigError";
        return std::string();
    };
    std::string bad_page = bindError("[tlb]\npage_bytes = 8192\n");
    EXPECT_NE(bad_page.find("4096 or 2097152"), std::string::npos)
        << bad_page;
    EXPECT_NE(bad_page.find(":2:"), std::string::npos) << bad_page;
    std::string bad_policy =
        bindError("[tlb]\nprefetch_cross = sometimes\n");
    EXPECT_NE(bad_policy.find("drop"), std::string::npos) << bad_policy;
}

TEST(TlbConfigFile, PageSweepAxisExpands)
{
    Experiment exp = bindExperiment(ConfigFile::parseString(
        "[system]\napp = spmv\ncores = 4\n"
        "[tlb]\nenable = true\n"
        "[sweep]\npage = [4096, 2097152]\n"));
    ASSERT_EQ(exp.runs.size(), 2u);
    EXPECT_EQ(exp.runs[0].cfg.tlb.pageBytes, 4096u);
    EXPECT_EQ(exp.runs[1].cfg.tlb.pageBytes, 2097152u);
    EXPECT_NE(exp.runs[0].label, exp.runs[1].label);
}

TEST(TlbConfigFile, MixedSweepWidensEveryRow)
{
    // One TLB-on run widens the whole experiment's CSV: the TLB-off
    // sibling row must carry the zero-filled TLB columns so the sweep
    // stays rectangular (the fabric splices rows by byte).
    Experiment exp = bindExperiment(ConfigFile::parseString(
        "[system]\napp = spmv\ncores = 4\nscale = 0.02\n"
        "[sweep]\ntlb.enable = [false, true]\n"));
    ASSERT_EQ(exp.runs.size(), 2u);
    EXPECT_TRUE(experimentUsesTlb(exp));
    std::string header = csvHeader(exp);
    EXPECT_NE(header.find("tlb_l1_mpki"), std::string::npos);

    std::ostringstream os;
    ExperimentRunOptions opt;
    opt.csv = true;
    ASSERT_TRUE(runExperiment(exp, os, opt));
    std::istringstream lines(os.str());
    std::string line;
    std::size_t cols = 0;
    std::size_t header_commas = 0;
    while (std::getline(lines, line)) {
        std::size_t commas = 0;
        for (char c : line)
            commas += c == ',';
        if (cols == 0)
            header_commas = commas;
        else
            EXPECT_EQ(commas, header_commas) << "row " << cols;
        ++cols;
    }
    EXPECT_EQ(cols, 3u);
}

// ---- Golden TLB-on CSV ------------------------------------------------

TEST(TlbGolden, SmokeSweepMatchesCheckedInGolden)
{
    std::ifstream in(std::string(IMPSIM_SOURCE_DIR) +
                         "/examples/configs/tlb_smoke.imp.ini",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();
    Experiment exp = bindExperiment(
        ConfigFile::parseString(text.str(), "golden:tlb_smoke"));
    std::ostringstream os;
    ExperimentRunOptions opt;
    opt.csv = true;
    ASSERT_TRUE(runExperiment(exp, os, opt));
    const std::string csv = os.str();

    const std::string path = std::string(IMPSIM_SOURCE_DIR) +
                             "/tests/golden/tlb_smoke.csv";
    const char *regen = std::getenv("IMPSIM_REGEN_GOLDEN");
    if (regen != nullptr && *regen != '\0' &&
        std::string(regen) != "0") {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << csv;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream golden_in(path, std::ios::binary);
    ASSERT_TRUE(golden_in)
        << path << " is missing; regenerate with "
        << "IMPSIM_REGEN_GOLDEN=1 ./test_tlb";
    std::ostringstream golden;
    golden << golden_in.rdbuf();
    EXPECT_EQ(csv, golden.str())
        << "TLB-on results changed; if intentional, regenerate with "
           "IMPSIM_REGEN_GOLDEN=1 ./test_tlb and commit the diff";
}

} // namespace
} // namespace impsim
