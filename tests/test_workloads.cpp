/**
 * @file
 * Unit tests for graph/matrix generators and the application kernels.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/intmath.hpp"
#include "common/rng.hpp"
#include "core/addr_gen.hpp"
#include "workloads/apps/app_common.hpp"
#include "workloads/graph_gen.hpp"
#include "workloads/sparse_matrix.hpp"
#include "workloads/trace_builder.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

TEST(GraphGen, RmatWellFormed)
{
    Csr g = makeRmatGraph(1024, 8192, 42);
    EXPECT_TRUE(g.wellFormed());
    EXPECT_EQ(g.numRows, 1024u);
    EXPECT_EQ(g.nnz(), 8192u);
}

TEST(GraphGen, RmatIsSkewed)
{
    Csr g = makeRmatGraph(4096, 32768, 42);
    // Power-law: the max degree dwarfs the average (8).
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.numRows; ++v)
        max_deg = std::max(max_deg, g.rowDegree(v));
    EXPECT_GT(max_deg, 64u);
}

TEST(GraphGen, UniformIsNotSkewed)
{
    Csr g = makeUniformGraph(4096, 32768, 42);
    EXPECT_TRUE(g.wellFormed());
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.numRows; ++v)
        max_deg = std::max(max_deg, g.rowDegree(v));
    EXPECT_LT(max_deg, 40u);
}

TEST(GraphGen, Deterministic)
{
    Csr a = makeRmatGraph(1024, 4096, 7);
    Csr b = makeRmatGraph(1024, 4096, 7);
    EXPECT_EQ(a.col, b.col);
    Csr c = makeRmatGraph(1024, 4096, 8);
    EXPECT_NE(a.col, c.col);
}

/**
 * RMAT with the quadrant picked by an if/else chain on each level's
 * draw: the generator's original form, kept as the reference its
 * branch-free selection must reproduce bit for bit.
 */
Csr
branchyRmat(std::uint32_t num_vertices, std::uint32_t num_edges,
            std::uint64_t seed)
{
    const RmatParams p{};
    Rng rng(seed);
    int levels = floorLog2(num_vertices);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t e = 0; e < num_edges; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (int l = 0; l < levels; ++l) {
            double r = rng.uniform();
            std::uint32_t sbit, dbit;
            if (r < p.a) {
                sbit = 0;
                dbit = 0;
            } else if (r < p.a + p.b) {
                sbit = 0;
                dbit = 1;
            } else if (r < p.a + p.b + p.c) {
                sbit = 1;
                dbit = 0;
            } else {
                sbit = 1;
                dbit = 1;
            }
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        edges.emplace_back(src, dst);
    }
    // Rows in vertex order, neighbours sorted: the canonical CSR.
    std::sort(edges.begin(), edges.end());
    Csr g;
    g.numRows = g.numCols = num_vertices;
    g.rowPtr.assign(std::size_t{num_vertices} + 1, 0);
    for (const auto &[src, dst] : edges) {
        ++g.rowPtr[src + 1];
        g.col.push_back(dst);
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        g.rowPtr[v + 1] += g.rowPtr[v];
    return g;
}

TEST(GraphGen, RmatMatchesBranchyReference)
{
    for (std::uint64_t seed : {1ull, 42ull, 1205ull, ~0ull}) {
        for (std::uint32_t vertices : {2u, 16u, 1024u, 65536u}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << ", vertices " << vertices);
            Csr got = makeRmatGraph(vertices, vertices * 8, seed);
            Csr want = branchyRmat(vertices, vertices * 8, seed);
            EXPECT_EQ(got.rowPtr, want.rowPtr);
            EXPECT_EQ(got.col, want.col);
        }
    }
}

TEST(AppCommon, Pow2FloorCoversEveryUint32)
{
    EXPECT_EQ(pow2Floor(0), 1u);
    EXPECT_EQ(pow2Floor(1), 1u);
    EXPECT_EQ(pow2Floor(4095), 2048u);
    EXPECT_EQ(pow2Floor(4096), 4096u);
    EXPECT_EQ(pow2Floor(0x80000000u), 0x80000000u);
    EXPECT_EQ(pow2Floor(0xFFFFFFFFu), 0x80000000u);
}

TEST(SparseMatrix, BandedWellFormedWithDiagonal)
{
    Csr m = makeBandedMatrix(1000, 10, 100, 1);
    EXPECT_TRUE(m.wellFormed());
    for (std::uint32_t r = 0; r < m.numRows; ++r) {
        bool diag = false;
        for (std::uint32_t j = m.rowPtr[r]; j < m.rowPtr[r + 1]; ++j)
            diag |= m.col[j] == r;
        EXPECT_TRUE(diag) << "row " << r;
    }
}

TEST(SparseMatrix, RowsSorted)
{
    Csr m = makeBandedMatrix(500, 8, 64, 3);
    for (std::uint32_t r = 0; r < m.numRows; ++r) {
        for (std::uint32_t j = m.rowPtr[r] + 1; j < m.rowPtr[r + 1];
             ++j)
            EXPECT_LE(m.col[j - 1], m.col[j]);
    }
}

TEST(TraceBuilder, EmitsInOrderWithLabels)
{
    TraceBuilder tb(2);
    tb.load(0, 1, 0x100, 4, AccessType::Stream, 3);
    tb.store(0, 2, 0x200, 8, AccessType::Indirect, 1);
    tb.swPrefetch(1, 3, 0x300, 2);
    auto traces = tb.take();
    ASSERT_EQ(traces[0].accesses.size(), 2u);
    EXPECT_EQ(traces[0].accesses[0].type, AccessType::Stream);
    EXPECT_FALSE(traces[0].accesses[0].isWrite());
    EXPECT_TRUE(traces[0].accesses[1].isWrite());
    EXPECT_TRUE(traces[1].accesses[0].isSwPrefetch());
}

TEST(TraceBuilder, BarrierFlagsNextAccessPerCore)
{
    TraceBuilder tb(2);
    tb.load(0, 1, 0x100, 4, AccessType::Other, 0);
    tb.load(1, 1, 0x100, 4, AccessType::Other, 0);
    tb.barrier();
    tb.load(0, 1, 0x104, 4, AccessType::Other, 0);
    tb.load(1, 1, 0x104, 4, AccessType::Other, 0);
    auto traces = tb.take();
    ASSERT_EQ(traces[0].accesses.size(), 2u) << "no sync load added";
    ASSERT_EQ(traces[1].accesses.size(), 2u) << "no sync load added";
    EXPECT_FALSE(traces[0].accesses[0].hasBarrier());
    EXPECT_TRUE(traces[0].accesses[1].hasBarrier());
    EXPECT_TRUE(traces[1].accesses[1].hasBarrier());
}

TEST(TraceBuilder, EmptyPhasesGetOneSyncLoadEach)
{
    // Core 1 emits nothing in either phase: it gets one sync load
    // before the second barrier and one at take(), each carrying the
    // barrier flag, so both cores cross both barriers.
    TraceBuilder tb(2);
    tb.load(0, 1, 0x100, 4, AccessType::Other, 0);
    tb.barrier();
    tb.load(0, 1, 0x104, 4, AccessType::Other, 0);
    tb.barrier();
    auto traces = tb.take();
    ASSERT_EQ(traces[0].accesses.size(), 3u);
    ASSERT_EQ(traces[1].accesses.size(), 2u);
    EXPECT_EQ(traces[0].barrierCount(), 2u);
    EXPECT_EQ(traces[1].barrierCount(), 2u);
    const MemAccess &end0 = traces[0].accesses[2];
    EXPECT_TRUE(end0.hasBarrier());
    for (const MemAccess &sync : traces[1].accesses) {
        EXPECT_TRUE(sync.hasBarrier());
        EXPECT_FALSE(sync.isWrite());
        EXPECT_EQ(sync.size, 4u);
        EXPECT_EQ(sync.type, AccessType::Other);
        EXPECT_EQ(sync.pc, end0.pc) << "one sync PC";
    }
    // Each core loads its own line of one sync array.
    EXPECT_EQ(traces[1].accesses[0].addr, traces[1].accesses[1].addr);
    EXPECT_EQ(traces[1].accesses[0].addr, end0.addr + kLineSize);
}

TEST(TraceBuilder, PutArrayLandsInFuncMem)
{
    TraceBuilder tb(1);
    std::vector<std::uint32_t> data{10, 20, 30};
    Addr base = tb.putArray("d", data);
    EXPECT_EQ(tb.mem().load<std::uint32_t>(base + 4), 20u);
}

/** Per-app structural checks, parameterised over the suite. */
class AppSweep : public ::testing::TestWithParam<AppId>
{
  protected:
    Workload
    make(bool swpf = false)
    {
        WorkloadParams p;
        p.numCores = 4;
        p.scale = 0.05; // Tiny inputs: structure only.
        p.swPrefetch = swpf;
        return makeWorkload(GetParam(), p);
    }
};

TEST_P(AppSweep, TracesForEveryCore)
{
    Workload w = make();
    ASSERT_EQ(w.traces.size(), 4u);
    for (const auto &t : w.traces)
        EXPECT_FALSE(t.accesses.empty());
}

TEST_P(AppSweep, BarrierCountsMatchAcrossCores)
{
    Workload w = make();
    std::uint64_t expect = w.traces[0].barrierCount();
    for (const auto &t : w.traces)
        EXPECT_EQ(t.barrierCount(), expect);
}

TEST_P(AppSweep, DependenceLinksAreValid)
{
    Workload w = make();
    for (const auto &t : w.traces) {
        for (std::size_t i = 0; i < t.accesses.size(); ++i)
            EXPECT_LE(t.accesses[i].dep, i);
    }
}

TEST_P(AppSweep, Deterministic)
{
    Workload a = make();
    Workload b = make();
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t c = 0; c < a.traces.size(); ++c) {
        ASSERT_EQ(a.traces[c].accesses.size(),
                  b.traces[c].accesses.size());
        for (std::size_t i = 0; i < a.traces[c].accesses.size(); ++i) {
            EXPECT_EQ(a.traces[c].accesses[i].addr,
                      b.traces[c].accesses[i].addr);
        }
    }
}

TEST_P(AppSweep, SwPrefetchVariantAddsPrefetches)
{
    if (GetParam() == AppId::Streaming)
        GTEST_SKIP() << "no indirect accesses to prefetch";
    Workload plain = make(false);
    Workload sw = make(true);
    auto count_pf = [](const Workload &w) {
        std::uint64_t n = 0;
        for (const auto &t : w.traces)
            for (const auto &a : t.accesses)
                n += a.isSwPrefetch() ? 1 : 0;
        return n;
    };
    EXPECT_EQ(count_pf(plain), 0u);
    EXPECT_GT(count_pf(sw), 0u);
    EXPECT_GT(sw.totalInstructions(), plain.totalInstructions());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppSweep,
    ::testing::Values(AppId::Pagerank, AppId::TriCount, AppId::Graph500,
                      AppId::Sgd, AppId::Lsh, AppId::Spmv, AppId::Symgs,
                      AppId::Streaming),
    [](const ::testing::TestParamInfo<AppId> &info) {
        return appName(info.param);
    });

TEST(Workloads, EveryAppBuildsWithMoreCoresThanWork)
{
    // At scale 0.001 the inputs are far smaller than these core
    // counts, so symgs and pagerank leave cores with empty barrier
    // phases; every core must still cross every barrier.
    for (AppId app : kAllApps) {
        for (std::uint32_t cores : {1024u, 4096u}) {
            WorkloadParams p;
            p.numCores = cores;
            p.scale = 0.001;
            Workload w = makeWorkload(app, p);
            ASSERT_EQ(w.traces.size(), cores) << appName(app);
            std::uint64_t expect = w.traces[0].barrierCount();
            for (std::uint32_t c = 0; c < cores; ++c)
                ASSERT_EQ(w.traces[c].barrierCount(), expect)
                    << appName(app) << " at " << cores << " cores, core "
                    << c;
        }
    }
}

TEST(Workloads, IndirectFractionIsHighForPaperApps)
{
    // Fig 1's premise: indirect accesses dominate the suite.
    for (AppId app : {AppId::Spmv, AppId::Pagerank, AppId::Sgd}) {
        WorkloadParams p;
        p.numCores = 4;
        p.scale = 0.05;
        Workload w = makeWorkload(app, p);
        std::uint64_t ind = 0, total = 0;
        for (const auto &t : w.traces) {
            for (const auto &a : t.accesses) {
                ++total;
                ind += a.type == AccessType::Indirect ? 1 : 0;
            }
        }
        EXPECT_GT(static_cast<double>(ind) / total, 0.2)
            << appName(app);
    }
}

TEST(Workloads, SpmvIndirectAddressesMatchMemoryImage)
{
    // The functional memory must hold exactly the index values the
    // trace's indirect addresses were computed from — what IMP reads.
    WorkloadParams p;
    p.numCores = 1;
    p.scale = 0.05;
    Workload w = makeWorkload(AppId::Spmv, p);
    const auto &acc = w.traces[0].accesses;
    int checked = 0;
    for (std::size_t i = 0; i + 1 < acc.size() && checked < 200; ++i) {
        // Pattern: col load (Stream, 4B) directly followed by val +
        // x[col] (Indirect, 8B, dep pointing at the col load).
        if (acc[i].type != AccessType::Stream || acc[i].size != 4)
            continue;
        for (std::size_t j = i + 1; j < std::min(acc.size(), i + 4);
             ++j) {
            if (acc[j].type == AccessType::Indirect &&
                acc[j].dep == j - i) {
                std::uint64_t col =
                    w.mem->load<std::uint32_t>(acc[i].addr);
                // x base is constant: addr - 8*col must be invariant.
                static Addr base = acc[j].addr - col * 8;
                EXPECT_EQ(acc[j].addr, base + col * 8);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(Workloads, TriCountTracesAreExactlySized)
{
    // tri_count counts each core's accesses from the graph's degrees
    // and reserves exactly that many; a count that drifts from the
    // emission loop leaves slack or regrows the vector.
    for (double scale : {0.01, 0.25}) {
        for (std::uint32_t cores : {1u, 4u, 16u}) {
            for (bool swpf : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "scale " << scale << ", cores " << cores
                             << ", swpf " << swpf);
                WorkloadParams p;
                p.numCores = cores;
                p.scale = scale;
                p.swPrefetch = swpf;
                Workload w = makeWorkload(AppId::TriCount, p);
                for (const CoreTrace &t : w.traces) {
                    EXPECT_FALSE(t.accesses.empty());
                    EXPECT_EQ(t.accesses.capacity(), t.accesses.size());
                }
            }
        }
    }
}

TEST(Workloads, StreamingHasNoIndirect)
{
    WorkloadParams p;
    p.numCores = 4;
    p.scale = 0.05;
    Workload w = makeWorkload(AppId::Streaming, p);
    for (const auto &t : w.traces)
        for (const auto &a : t.accesses)
            EXPECT_NE(a.type, AccessType::Indirect);
}

TEST(Workloads, NamesRoundTrip)
{
    EXPECT_STREQ(appName(AppId::Pagerank), "pagerank");
    EXPECT_STREQ(appName(AppId::TriCount), "tri_count");
    EXPECT_STREQ(appName(AppId::Graph500), "graph500");
    EXPECT_STREQ(appName(AppId::Symgs), "symgs");
    EXPECT_EQ(kPaperApps.size(), 7u);
}

} // namespace
} // namespace impsim
