/**
 * @file
 * L2-attached prefetching: engines built for AttachLevel::L2 against a
 * fake host (line-granular training), the full-system plumbing
 * (per-tile attachment, per-slice overrides, L2 prefetch statistics),
 * and the L1 notification regressions the L2 path depends on (one
 * onAccess per architectural access, upgrade-only prefetch counting).
 */
#include <gtest/gtest.h>

#include "core/composite_prefetcher.hpp"
#include "core/imp.hpp"
#include "core/prefetcher_registry.hpp"
#include "core/stream_prefetcher.hpp"
#include "fake_host.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/trace_builder.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

SystemConfig
l2TestConfig()
{
    SystemConfig cfg = makePreset(ConfigPreset::NoPrefetch, 4);
    return cfg;
}

// ---- Fake-host path ---------------------------------------------------

TEST(L2Engine, StreamEngineDetectsLineGranularStrides)
{
    // An L2-attached engine sees one access per line (the L1 miss
    // stream); the factory must hand it the line-granular stream
    // knobs so a sequential scan still confirms.
    FakeHost host;
    SystemConfig cfg = l2TestConfig();
    auto pf = makePrefetcher("stream", host, cfg, AttachLevel::L2);
    ASSERT_NE(pf, nullptr);
    PrefetchDriver drv(host, *pf);

    constexpr Addr kBase = 0x40000;
    for (int i = 0; i < 8; ++i)
        drv.access(kBase + i * kLineSize, /*pc=*/7, 4);
    EXPECT_GT(host.issued.size(), 0u)
        << "line-granular stream went undetected at the L2 level";
    // The frontier runs ahead of the last accessed line.
    EXPECT_GT(host.issuedFor(kBase + 8 * kLineSize), 0u);
}

TEST(L2Engine, L1ConfiguredStreamEngineMissesLineStrides)
{
    // Control: the same scan through an L1-configured engine (element
    // strides only) detects nothing, which is exactly why the L2
    // attach needs its own knobs.
    FakeHost host;
    SystemConfig cfg = l2TestConfig();
    auto pf = makePrefetcher("stream", host, cfg, AttachLevel::L1);
    PrefetchDriver drv(host, *pf);
    for (int i = 0; i < 8; ++i)
        drv.access(0x40000 + i * kLineSize, 7, 4);
    EXPECT_EQ(host.issued.size(), 0u);
}

TEST(L2Engine, ImpDetectsIndirectionOnTheMissStream)
{
    // A[B[i]] as the L2 sees it with no L1 prefetcher: B misses once
    // per line (16 uint32s), every A access misses. IMP must detect
    // the pattern and read B at its true 4-byte element size even
    // though the observed stride is the 64-byte line pitch.
    FakeHost host;
    SystemConfig cfg = l2TestConfig();
    auto made = makePrefetcher("imp", host, cfg, AttachLevel::L2);
    auto *imp = dynamic_cast<ImpPrefetcher *>(made.get());
    ASSERT_NE(imp, nullptr);
    PrefetchDriver drv(host, *made);

    constexpr Addr kB = 0x100000;
    constexpr Addr kA = 0x800000;
    std::uint64_t s = 99;
    std::vector<std::uint32_t> b(512);
    for (std::size_t i = 0; i < b.size(); ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        b[i] = static_cast<std::uint32_t>((s >> 33) % 4096);
        host.mem.store<std::uint32_t>(kB + i * 4, b[i]);
    }

    for (std::size_t i = 0; i < b.size(); ++i) {
        Addr b_addr = kB + i * 4;
        // The L1 filters hits: only line-crossing B accesses arrive.
        if (lineOffset(b_addr) == 0)
            drv.access(b_addr, /*pc=*/1, 4);
        // A[8*B[i]] is scattered: every access misses the L1.
        drv.access(kA + (static_cast<Addr>(b[i]) << 3), /*pc=*/2, 8);
    }

    EXPECT_GE(imp->impStats().primaryDetections, 1u);
    EXPECT_GT(imp->impStats().indirectIssued, 0u);
    bool found = false;
    imp->table().forEach([&](std::int16_t, PtEntry &e) {
        if (e.indEnable && e.indType == IndType::Primary) {
            found = true;
            EXPECT_EQ(e.shift, 3);
            EXPECT_EQ(e.baseAddr, kA);
            EXPECT_EQ(e.elemSize, 4u)
                << "element size must come from the access, not the "
                   "line-granular stride";
        }
    });
    EXPECT_TRUE(found);
}

// ---- Full-system path -------------------------------------------------

TEST(L2Prefetch, StreamAtL2FillsSlicesAndHitsLater)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.1;
    Workload w = makeWorkload(AppId::Streaming, wp);

    SystemConfig off = l2TestConfig();
    System off_sys(off, w.traces, *w.mem);
    SimStats base = off_sys.run();

    SystemConfig cfg = l2TestConfig();
    cfg.l2PrefetcherSpec = "stream";
    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();

    EXPECT_GT(s.l2.prefIssued, 0u);
    EXPECT_GT(s.l2.prefUsefulFirstTouch, 0u);
    EXPECT_EQ(s.l1.prefIssued, 0u) << "no L1 engine was configured";
    // The point of the attach level: L2 misses become L2 hits. (L1
    // counters are not compared exactly — fill timing shifts the
    // coherence interleaving between cores.)
    EXPECT_GT(s.l2.hits, base.l2.hits);
    EXPECT_LT(s.l2.misses, base.l2.misses);
}

TEST(L2Prefetch, ImpAtL2DetectsIndirectPatterns)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.2;
    Workload w = makeWorkload(AppId::Spmv, wp);

    SystemConfig cfg = l2TestConfig();
    cfg.l2PrefetcherSpec = "imp";
    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();

    EXPECT_GT(s.l2.prefIssued, 0u);
    EXPECT_GT(s.l2.prefIssuedIndirect, 0u)
        << "spmv's x[col[j]] indirection must be visible in the L1 "
           "miss stream";
    EXPECT_GT(s.l2.prefUsefulFirstTouch, 0u);

    // The per-tile instances are reachable for inspection.
    std::uint64_t detections = 0;
    for (CoreId t = 0; t < 4; ++t) {
        auto *imp = dynamic_cast<ImpPrefetcher *>(
            sys.hierarchy().l2(t).prefetcher());
        ASSERT_NE(imp, nullptr);
        detections += imp->impStats().primaryDetections;
    }
    EXPECT_GT(detections, 0u);
}

TEST(L2Prefetch, PerSliceOverridesBuildHeterogeneousTiles)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.05;
    Workload w = makeWorkload(AppId::Spmv, wp);

    SystemConfig cfg = l2TestConfig();
    cfg.l2PrefetcherSpec = "stream";
    cfg.l2SlicePrefetcherSpecs = {"imp", "", "none", "stream+ghb"};
    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();
    EXPECT_GT(s.cycles, 0u);

    EXPECT_NE(dynamic_cast<ImpPrefetcher *>(
                  sys.hierarchy().l2(0).prefetcher()),
              nullptr);
    EXPECT_NE(dynamic_cast<StreamPrefetcher *>(
                  sys.hierarchy().l2(1).prefetcher()),
              nullptr)
        << "empty override falls through to the global L2 spec";
    EXPECT_EQ(sys.hierarchy().l2(2).prefetcher(), nullptr);
    EXPECT_NE(dynamic_cast<CompositePrefetcher *>(
                  sys.hierarchy().l2(3).prefetcher()),
              nullptr);
}

TEST(L2Prefetch, BothLevelsComposeAndKeepSeparateStats)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.1;
    Workload w = makeWorkload(AppId::Spmv, wp);

    SystemConfig cfg = l2TestConfig();
    cfg.prefetcherSpec = "imp";
    cfg.l2PrefetcherSpec = "imp";
    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();

    EXPECT_GT(s.l1.prefIssued, 0u);
    EXPECT_GT(s.l2.prefIssued, 0u);

    // L1-only reference: attaching at the L2 as well must not change
    // the demand stream the cores see into something nonsensical.
    SystemConfig l1only = l2TestConfig();
    l1only.prefetcherSpec = "imp";
    System ref(l1only, w.traces, *w.mem);
    SimStats r = ref.run();
    EXPECT_GT(r.l1.prefIssued, 0u);
    EXPECT_EQ(r.l2.prefIssued, 0u);
}

// ---- L1 notification regressions --------------------------------------

/** Counts every prefetcher hook invocation. */
class CountingPrefetcher final : public Prefetcher
{
  public:
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    void onAccess(const AccessInfo &) override { ++accesses; }
    void onMiss(const AccessInfo &) override { ++misses; }
};

TEST(L1Notify, RetriedDemandNotifiesOncePerArchitecturalAccess)
{
    // Regression: a store arriving while a non-exclusive fill is in
    // flight takes the retry path, and the retried demandAccess used
    // to observe the access a second time, inflating IMP/IPD training
    // and stream confidence.
    SystemConfig cfg = l2TestConfig();
    EventQueue eq;
    FuncMem mem;
    MemHierarchy hier(cfg, eq, mem);

    auto counting = std::make_unique<CountingPrefetcher>();
    CountingPrefetcher *counter = counting.get();
    hier.l1(0).attachPrefetcher(std::move(counting));

    // Core 1 shares the line first, so core 0's read fill below is
    // granted S, not E — a store during that fill must retry.
    MemAccess peek;
    peek.addr = 0x100000;
    peek.pc = 9;
    peek.size = 8;
    hier.l1(1).demandAccess(peek, [] {});
    eq.run();

    MemAccess load;
    load.addr = 0x100000;
    load.pc = 1;
    load.size = 8;
    int done = 0;
    hier.l1(0).demandAccess(load, [&] { ++done; });

    // Same line, write, while the read fill is still in flight: the
    // pending fill cannot satisfy it (no exclusivity) -> retry.
    MemAccess store = load;
    store.pc = 2;
    store.flags = kFlagWrite;
    hier.l1(0).demandAccess(store, [&] { ++done; });

    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_GE(hier.l1(0).stats().retries, 1u)
        << "the scenario must actually exercise the retry path";
    EXPECT_EQ(counter->accesses, 2u)
        << "one onAccess per architectural access, retries included";
    EXPECT_EQ(counter->misses, 1u) << "only the load truly missed";
    std::uint64_t typed = 0;
    for (int t = 0; t < kNumAccessTypes; ++t)
        typed += hier.l1(0).stats().accessesByType[t];
    EXPECT_EQ(typed, 2u)
        << "accessesByType must also count once per access";
}

TEST(L1Notify, UpgradeOnlyPrefetchIsNotAnIssuedPrefetch)
{
    // Regression: an exclusivity-only upgrade prefetch on a fully
    // valid S-state line counted as prefIssued, skewing the paper's
    // coverage/accuracy stats.
    SystemConfig cfg = l2TestConfig();
    EventQueue eq;
    FuncMem mem;
    MemHierarchy hier(cfg, eq, mem);

    MemAccess load;
    load.addr = 0x200000;
    load.pc = 1;
    load.size = 8;
    hier.l1(0).demandAccess(load, [] {});
    // Another core reads the line so core 0 is downgraded to S.
    MemAccess peek = load;
    hier.l1(1).demandAccess(peek, [] {});
    eq.run();

    ASSERT_TRUE(hier.l1(0).linePresent(0x200000));
    PrefetchRequest req;
    req.addr = 0x200000;
    req.bytes = kLineSize;
    req.exclusive = true;
    EXPECT_TRUE(hier.l1(0).issuePrefetch(req));
    eq.run();

    EXPECT_EQ(hier.l1(0).stats().prefIssued, 0u)
        << "no data moved, so nothing was issued";
    EXPECT_EQ(hier.l1(0).stats().prefUpgrades, 1u);
}

} // namespace
} // namespace impsim
