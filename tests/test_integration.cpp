/**
 * @file
 * Whole-system integration tests: small simulations exercising every
 * subsystem together, checking the paper's qualitative claims.
 */
#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

SimStats
runPreset(AppId app, ConfigPreset preset, std::uint32_t cores = 4,
          double scale = 0.1)
{
    WorkloadParams wp;
    wp.numCores = cores;
    wp.scale = scale;
    wp.swPrefetch = presetWantsSwPrefetch(preset);
    Workload w = makeWorkload(app, wp);
    SystemConfig cfg = makePreset(preset, cores);
    System sys(cfg, w.traces, *w.mem);
    return sys.run();
}

TEST(Integration, IdealRunsAtIpcOne)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.1;
    Workload w = makeWorkload(AppId::Spmv, wp);
    SystemConfig cfg = makePreset(ConfigPreset::Ideal, 4);
    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();
    // Per-core IPC == 1 up to barrier skew.
    std::uint64_t max_instr = 0;
    for (const auto &c : s.perCore)
        max_instr = std::max(max_instr, c.instructions);
    EXPECT_LE(s.cycles, max_instr + 64);
    EXPECT_EQ(s.l1.misses, 0u);
    EXPECT_EQ(s.dram.bytes(), 0u);
}

TEST(Integration, SymgsRunsWithEmptyColorSlices)
{
    // At scale 0.05 a color is 204 rows, so 52 of 256 cores have an
    // empty slice in every color phase.
    SimStats s = runPreset(AppId::Symgs, ConfigPreset::Baseline, 256, 0.05);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.perCore.size(), 256u);
}

TEST(Integration, ConfigOrderingHolds)
{
    // Ideal <= PerfPref <= IMP <= Base in cycles on an
    // indirect-dominated workload (paper Figs 2 and 9).
    const double scale = 0.4; // Working set must exceed the caches.
    Tick ideal =
        runPreset(AppId::Spmv, ConfigPreset::Ideal, 4, scale).cycles;
    Tick perf =
        runPreset(AppId::Spmv, ConfigPreset::PerfectPref, 4, scale)
            .cycles;
    Tick imp = runPreset(AppId::Spmv, ConfigPreset::Imp, 4, scale).cycles;
    Tick base =
        runPreset(AppId::Spmv, ConfigPreset::Baseline, 4, scale).cycles;
    EXPECT_LT(ideal, perf);
    EXPECT_LE(perf, imp + imp / 4); // Allow slack: IMP can tie it.
    EXPECT_LT(imp, base);
}

TEST(Integration, ImpSpeedsUpIndirectApps)
{
    for (AppId app : {AppId::Spmv, AppId::Pagerank}) {
        Tick base =
            runPreset(app, ConfigPreset::Baseline, 4, 0.4).cycles;
        Tick imp = runPreset(app, ConfigPreset::Imp, 4, 0.4).cycles;
        EXPECT_LT(static_cast<double>(imp),
                  0.95 * static_cast<double>(base))
            << appName(app);
    }
}

TEST(Integration, ImpHarmlessOnStreaming)
{
    // §6.1: IMP must not hurt workloads without indirection.
    Tick base = runPreset(AppId::Streaming, ConfigPreset::Baseline).cycles;
    Tick imp = runPreset(AppId::Streaming, ConfigPreset::Imp).cycles;
    double ratio = static_cast<double>(imp) / static_cast<double>(base);
    EXPECT_GT(ratio, 0.98);
    EXPECT_LT(ratio, 1.02);
}

TEST(Integration, ImpImprovesCoverage)
{
    SimStats base = runPreset(AppId::Spmv, ConfigPreset::Baseline);
    SimStats imp = runPreset(AppId::Spmv, ConfigPreset::Imp);
    EXPECT_GT(imp.l1.coverage(), base.l1.coverage() + 0.2);
    EXPECT_GT(imp.l1.prefIssuedIndirect, 0u);
    EXPECT_EQ(base.l1.prefIssuedIndirect, 0u);
}

TEST(Integration, PartialAccessingReducesNocTraffic)
{
    // Partial accessing pays off once the indirect working set is
    // large relative to the caches (16 cores, full-size input).
    SimStats full = runPreset(AppId::Spmv, ConfigPreset::Imp, 16, 1.0);
    SimStats part =
        runPreset(AppId::Spmv, ConfigPreset::ImpPartialNoc, 16, 1.0);
    EXPECT_LT(part.noc.bytes, full.noc.bytes);
    // NoC-only partial accessing leaves DRAM traffic ~unchanged.
    EXPECT_NEAR(static_cast<double>(part.dram.bytes()),
                static_cast<double>(full.dram.bytes()),
                0.25 * static_cast<double>(full.dram.bytes()));
}

TEST(Integration, PartialDramReducesDramTraffic)
{
    SimStats full = runPreset(AppId::Spmv, ConfigPreset::Imp, 4, 0.4);
    SimStats part =
        runPreset(AppId::Spmv, ConfigPreset::ImpPartialNocDram, 4, 0.4);
    EXPECT_LT(part.dram.bytes(), full.dram.bytes());
}

TEST(Integration, SwPrefetchAddsInstructions)
{
    SimStats base = runPreset(AppId::Spmv, ConfigPreset::Baseline);
    SimStats sw = runPreset(AppId::Spmv, ConfigPreset::SwPref);
    // Fig 10: software prefetching costs instructions...
    EXPECT_GT(sw.core.instructions, base.core.instructions);
    // ...but still improves runtime on indirect apps.
    EXPECT_LT(sw.cycles, base.cycles);
}

TEST(Integration, DeterministicAcrossRuns)
{
    SimStats a = runPreset(AppId::Pagerank, ConfigPreset::Imp);
    SimStats b = runPreset(AppId::Pagerank, ConfigPreset::Imp);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.noc.flitHops, b.noc.flitHops);
    EXPECT_EQ(a.dram.bytes(), b.dram.bytes());
}

TEST(Integration, OoOCoreOutperformsInOrderBaseline)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.4;
    Workload w = makeWorkload(AppId::Spmv, wp);
    SystemConfig io = makePreset(ConfigPreset::Baseline, 4,
                                 CoreModel::InOrder);
    SystemConfig ooo = makePreset(ConfigPreset::Baseline, 4,
                                  CoreModel::OutOfOrder);
    System s_io(io, w.traces, *w.mem);
    System s_ooo(ooo, w.traces, *w.mem);
    Tick t_io = s_io.run().cycles;
    Tick t_ooo = s_ooo.run().cycles;
    EXPECT_LT(t_ooo, t_io); // Fig 13: OoO hides some latency.
}

TEST(Integration, ImpStillHelpsOoO)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.4;
    Workload w = makeWorkload(AppId::Spmv, wp);
    SystemConfig base = makePreset(ConfigPreset::Baseline, 4,
                                   CoreModel::OutOfOrder);
    SystemConfig imp = makePreset(ConfigPreset::Imp, 4,
                                  CoreModel::OutOfOrder);
    System s_base(base, w.traces, *w.mem);
    System s_imp(imp, w.traces, *w.mem);
    EXPECT_LT(s_imp.run().cycles, s_base.run().cycles);
}

TEST(Integration, GhbDoesNotCaptureIndirectPatterns)
{
    // §5.4: GHB adds nothing over the stream prefetcher here.
    SimStats base = runPreset(AppId::Spmv, ConfigPreset::Baseline);
    SimStats ghb = runPreset(AppId::Spmv, ConfigPreset::Ghb);
    SimStats imp = runPreset(AppId::Spmv, ConfigPreset::Imp);
    double ghb_gain = static_cast<double>(base.cycles) /
                      static_cast<double>(ghb.cycles);
    double imp_gain = static_cast<double>(base.cycles) /
                      static_cast<double>(imp.cycles);
    EXPECT_LT(ghb_gain, 1.10);
    EXPECT_GT(imp_gain, ghb_gain);
}

TEST(Integration, DramModelsAgreeOnRuntime)
{
    // §5.1: the simple model tracks the DDR3 bank model closely.
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.1;
    Workload w = makeWorkload(AppId::Spmv, wp);
    SystemConfig simple = makePreset(ConfigPreset::Baseline, 4);
    SystemConfig ddr = simple;
    ddr.dramModel = DramModelKind::Ddr3;
    System s1(simple, w.traces, *w.mem);
    System s2(ddr, w.traces, *w.mem);
    double r = static_cast<double>(s1.run().cycles) /
               static_cast<double>(s2.run().cycles);
    EXPECT_GT(r, 0.8);
    EXPECT_LT(r, 1.25);
}

TEST(Integration, StallBreakdownBlamesIndirect)
{
    // Fig 2: most stall cycles on indirect-heavy apps come from
    // indirect accesses.
    SimStats s = runPreset(AppId::Spmv, ConfigPreset::Baseline);
    auto ind = s.core.stallCycles[static_cast<int>(
        AccessType::Indirect)];
    auto str =
        s.core.stallCycles[static_cast<int>(AccessType::Stream)];
    auto oth = s.core.stallCycles[static_cast<int>(AccessType::Other)];
    EXPECT_GT(ind, str + oth);
}

TEST(Integration, MissBreakdownMatchesFig1Premise)
{
    SimStats s = runPreset(AppId::Pagerank, ConfigPreset::Baseline);
    auto ind =
        s.l1.missesByType[static_cast<int>(AccessType::Indirect)];
    EXPECT_GT(ind * 2, s.l1.misses); // Indirect misses dominate.
}

TEST(Integration, CoreCountsScaleTheMachine)
{
    // Same total work on more cores finishes faster (strong scaling),
    // although sub-linearly (bandwidth shared).
    Tick c4 = runPreset(AppId::Spmv, ConfigPreset::Imp, 4).cycles;
    Tick c16 = runPreset(AppId::Spmv, ConfigPreset::Imp, 16).cycles;
    EXPECT_LT(c16, c4);
}

TEST(Integration, StatsAreInternallyConsistent)
{
    SimStats s = runPreset(AppId::Spmv, ConfigPreset::Imp);
    // Every lookup resolves exactly one way. Retried accesses pass
    // through the lookup (and the by-type counter) once more.
    std::uint64_t by_type = 0;
    for (int i = 0; i < kNumAccessTypes; ++i)
        by_type += s.l1.accessesByType[i];
    EXPECT_EQ(by_type, s.core.memAccesses + s.l1.retries);
    EXPECT_EQ(s.l1.hits + s.l1.misses + s.l1.prefLate +
                  s.l1.demandMerges + s.l1.retries,
              by_type);
    // Writebacks never exceed evictions (plus back-invalidations).
    EXPECT_LE(s.l1.writebacks, s.l1.evictions + s.l2.evictions);
}

} // namespace
} // namespace impsim
