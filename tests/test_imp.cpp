/**
 * @file
 * End-to-end unit tests for the Indirect Memory Prefetcher against
 * synthetic A[B[i]] access streams.
 */
#include <gtest/gtest.h>

#include "core/addr_gen.hpp"
#include "core/imp.hpp"
#include "fake_host.hpp"

namespace impsim {
namespace {

constexpr Addr kB = 0x100000;  ///< Index array B (uint32).
constexpr Addr kA = 0x800000;  ///< Data array A.
constexpr Addr kC = 0xc00000;  ///< Second data array (multi-way).

struct ImpFixture : public ::testing::Test
{
    FakeHost host;
    ImpConfig cfg;
    StreamConfig scfg;
    GpConfig gcfg;

    std::unique_ptr<ImpPrefetcher> pf;
    std::unique_ptr<PrefetchDriver> drv;

    /** B[i] values used by the synthetic loops. */
    std::vector<std::uint32_t> b;

    void
    makePrefetcher(bool partial = false)
    {
        pf = std::make_unique<ImpPrefetcher>(host, cfg, scfg, gcfg,
                                             partial);
        drv = std::make_unique<PrefetchDriver>(host, *pf);
    }

    /** Writes n pseudo-random indices into B. */
    void
    fillB(int n, std::uint64_t seed = 99)
    {
        b.resize(n);
        std::uint64_t s = seed;
        for (int i = 0; i < n; ++i) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            b[i] = static_cast<std::uint32_t>((s >> 33) % 4096);
            host.mem.store<std::uint32_t>(kB + i * 4, b[i]);
        }
    }

    /** One iteration of `load B[i]; load A[8*B[i]]`. */
    void
    iteration(int i, std::int8_t shift = 3, bool write_a = false)
    {
        drv->access(kB + i * 4, /*pc=*/1, 4);
        drv->access(indirectAddr(b[i], shift, kA), /*pc=*/2, 8,
                    write_a);
    }
};

TEST_F(ImpFixture, DetectsPrimaryPattern)
{
    fillB(64);
    makePrefetcher();
    for (int i = 0; i < 8; ++i)
        iteration(i);
    EXPECT_EQ(pf->impStats().primaryDetections, 1u);
    // The pattern landed in the PT with the right parameters.
    bool found = false;
    pf->table().forEach([&](std::int16_t, PtEntry &e) {
        if (e.indEnable && e.indType == IndType::Primary) {
            found = true;
            EXPECT_EQ(e.shift, 3);
            EXPECT_EQ(e.baseAddr, kA);
        }
    });
    EXPECT_TRUE(found);
}

TEST_F(ImpFixture, ReusedTableEntryDropsItsPendingDetection)
{
    // A 2-entry table: the index PC's entry is evicted while the IPD
    // is detecting for it and handed to another PC. The miss that
    // would have completed the old detection must not arm the entry.
    cfg.ptEntries = 2;
    fillB(64);
    makePrefetcher();
    auto entryOf = [&](std::uint32_t pc) {
        std::int16_t id = kNoEntry;
        pf->table().forEach([&](std::int16_t i, PtEntry &e) {
            if (e.pc == pc && !e.secondary)
                id = i;
        });
        return id;
    };
    for (int i = 0; i < 3; ++i)
        iteration(i);              // idx1 = B[2], paired with A[B[2]]
    drv->access(kB + 3 * 4, 1, 4); // idx2 = B[3]
    const std::int16_t id = entryOf(1);
    ASSERT_NE(id, kNoEntry);
    ASSERT_TRUE(pf->ipd().tracking(id, IndType::Primary));

    // Two new PCs on resident lines (no misses reach the IPD): the
    // first evicts PC 2's entry, the second PC 1's.
    const Addr other = 0x40000;
    host.resident.insert(other);
    host.resident.insert(other + kLineSize);
    drv->access(other, 3, 4);
    drv->access(other + kLineSize, 4, 4);
    ASSERT_EQ(entryOf(4), id);
    EXPECT_FALSE(pf->ipd().tracking(id, IndType::Primary));

    drv->access(indirectAddr(b[3], 3, kA), 2, 8); // the completing miss
    EXPECT_EQ(pf->impStats().primaryDetections, 0u);
    pf->table().forEach([&](std::int16_t i, PtEntry &e) {
        EXPECT_FALSE(e.indEnable) << "entry " << i << " (pc " << e.pc
                                  << ") armed with a stale pattern";
    });
}

TEST_F(ImpFixture, IssuesIndirectPrefetchesAhead)
{
    fillB(64);
    makePrefetcher();
    for (int i = 0; i < 32; ++i)
        iteration(i);
    // Indirect prefetches were issued for future A[B[i]] lines.
    std::size_t indirect = 0;
    for (const auto &r : host.issued)
        indirect += r.indirect ? 1 : 0;
    EXPECT_GT(indirect, 10u);
    EXPECT_GT(pf->impStats().indirectIssued, 10u);
}

TEST_F(ImpFixture, PrefetchedAddressesAreCorrect)
{
    fillB(64);
    makePrefetcher();
    for (int i = 0; i < 32; ++i)
        iteration(i);
    // Every indirect prefetch must target some A[B[j]] line.
    std::set<Addr> legal;
    for (std::uint32_t v : b)
        legal.insert(lineOf(indirectAddr(v, 3, kA)));
    for (const auto &r : host.issued) {
        if (r.indirect)
            EXPECT_TRUE(legal.count(lineOf(r.addr)))
                << "bogus prefetch to " << std::hex << r.addr;
    }
}

TEST_F(ImpFixture, DistanceRampsToMax)
{
    fillB(256);
    makePrefetcher();
    for (int i = 0; i < 128; ++i)
        iteration(i);
    bool found = false;
    pf->table().forEach([&](std::int16_t, PtEntry &e) {
        if (e.indEnable) {
            found = true;
            EXPECT_EQ(e.distance, cfg.maxPrefetchDistance);
        }
    });
    EXPECT_TRUE(found);
}

TEST_F(ImpFixture, IndexLinePrefetchedWhenAbsent)
{
    fillB(512);
    makePrefetcher();
    // Without instant fills, the stream prefetcher cannot keep B
    // resident ahead of the indirect distance: IMP must request the
    // index line first and chain the indirect issue to its fill
    // (§3.1: "IMP will prefetch and read the value of B[i+delta]").
    drv->autoFill = false;
    for (int i = 0; i < 64; ++i)
        iteration(i);
    EXPECT_GT(pf->impStats().indexLinePrefetches, 0u);
    std::uint64_t before = pf->impStats().indirectIssued;
    // Completing the fills releases the chained indirect prefetches.
    drv->drainPrefetches();
    EXPECT_GT(pf->impStats().indirectIssued, before);
}

TEST_F(ImpFixture, BitVectorShift)
{
    // A[B[i]/8]: the Coeff = 1/8 (shift -3) pattern of tri_count.
    // Indices span a large bit vector so byte targets keep missing.
    b.resize(64);
    std::uint64_t s = 11;
    for (int i = 0; i < 64; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        b[i] = static_cast<std::uint32_t>((s >> 30) % (1u << 20));
        host.mem.store<std::uint32_t>(kB + i * 4, b[i]);
    }
    makePrefetcher();
    for (int i = 0; i < 8; ++i) {
        drv->access(kB + i * 4, 1, 4);
        drv->access(indirectAddr(b[i], -3, kA), 2, 1);
    }
    bool found = false;
    pf->table().forEach([&](std::int16_t, PtEntry &e) {
        if (e.indEnable) {
            found = true;
            EXPECT_EQ(e.shift, -3);
        }
    });
    EXPECT_TRUE(found);
}

TEST_F(ImpFixture, WritePredictorTurnsPrefetchesExclusive)
{
    fillB(128);
    makePrefetcher();
    for (int i = 0; i < 64; ++i)
        iteration(i, 3, /*write_a=*/true);
    std::size_t exclusive = 0, total = 0;
    for (const auto &r : host.issued) {
        if (r.indirect) {
            ++total;
            exclusive += r.exclusive ? 1 : 0;
        }
    }
    ASSERT_GT(total, 0u);
    // After the 2-bit counter saturates, prefetches go exclusive.
    EXPECT_GT(exclusive * 2, total);
}

TEST_F(ImpFixture, MultiWayDetection)
{
    fillB(128);
    makePrefetcher();
    for (int i = 0; i < 48; ++i) {
        drv->access(kB + i * 4, 1, 4);
        drv->access(indirectAddr(b[i], 3, kA), 2, 8);
        drv->access(indirectAddr(b[i], 3, kC), 3, 8); // Second way.
    }
    EXPECT_EQ(pf->impStats().wayDetections, 1u);
    // Prefetches cover both arrays.
    bool saw_a = false, saw_c = false;
    for (const auto &r : host.issued) {
        if (!r.indirect)
            continue;
        saw_a |= r.addr >= kA && r.addr < kA + 0x100000;
        saw_c |= r.addr >= kC && r.addr < kC + 0x100000;
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_c);
}

TEST_F(ImpFixture, MultiLevelDetectionAndChaining)
{
    // A[B[C[i]]]: C streams, B holds 4-byte ids, A is the data.
    const Addr kCidx = 0x200000; // Stream array C.
    std::vector<std::uint32_t> c_vals(256);
    std::uint64_t s = 7;
    for (int i = 0; i < 256; ++i) {
        s = s * 6364136223846793005ull + 1;
        c_vals[i] = static_cast<std::uint32_t>((s >> 33) % 2048);
        host.mem.store<std::uint32_t>(kCidx + i * 4, c_vals[i]);
    }
    // B maps ids to other ids (shift 2), A is indexed by B's values
    // with shift 4.
    std::vector<std::uint32_t> b_vals(4096);
    for (int i = 0; i < 4096; ++i) {
        b_vals[i] = static_cast<std::uint32_t>((i * 2654435761u) % 2048);
        host.mem.store<std::uint32_t>(kB + i * 4, b_vals[i]);
    }
    makePrefetcher();
    for (int i = 0; i < 96; ++i) {
        drv->access(kCidx + i * 4, 1, 4);
        Addr b_addr = indirectAddr(c_vals[i], 2, kB);
        drv->access(b_addr, 2, 4);
        drv->access(indirectAddr(b_vals[c_vals[i]], 4, kA), 3, 16);
    }
    EXPECT_EQ(pf->impStats().primaryDetections, 1u);
    EXPECT_GE(pf->impStats().levelDetections, 1u);
    // Chained second-level prefetches fired.
    EXPECT_GT(pf->impStats().chainedIssued, 0u);
}

TEST_F(ImpFixture, BackoffAfterFailedDetection)
{
    makePrefetcher();
    // A stream of distinct index-like values whose misses are
    // uncorrelated: detection keeps failing and must back off.
    std::uint64_t s = 3;
    for (int i = 0; i < 256; ++i) {
        host.mem.store<std::uint32_t>(kB + i * 4, i * 8 + 3);
        drv->access(kB + i * 4, 1, 4);
        s = s * 6364136223846793005ull + 1;
        drv->access((s >> 30) & ~Addr{63}, 2, 8); // Random misses.
    }
    EXPECT_GT(pf->impStats().failedDetections, 0u);
    // Back-off throttles: far fewer failures than index accesses.
    EXPECT_LT(pf->impStats().failedDetections, 20u);
    bool any_enabled = false;
    pf->table().forEach([&](std::int16_t, PtEntry &e) {
        any_enabled |= e.indEnable && e.baseAddr != 0;
    });
    (void)any_enabled; // Spurious detection possible but prefetches
                       // would be confidence-gated; no crash is the
                       // main property here.
}

TEST_F(ImpFixture, PartialModeShrinksFootprint)
{
    fillB(256);
    cfg.indirectThreshold = 2;
    makePrefetcher(/*partial=*/true);
    // Touch one 8-byte word per line; GP should learn 1-sector
    // fetches, shrinking request footprints.
    for (int i = 0; i < 200; ++i) {
        iteration(i % 256);
        // Recycle lines so GP sees evictions.
        if (i % 8 == 7)
            drv->evict(indirectAddr(b[i % 256], 3, kA));
    }
    bool small_seen = false;
    for (const auto &r : host.issued)
        small_seen |= r.indirect && r.bytes < kLineSize;
    EXPECT_TRUE(small_seen);
}

TEST_F(ImpFixture, NoIndirectionMeansNoIndirectPrefetches)
{
    makePrefetcher();
    // Pure dense streaming: IMP must behave as a stream prefetcher.
    for (int i = 0; i < 512; ++i)
        drv->access(0x50000 + i * 8, 4, 8);
    EXPECT_EQ(pf->impStats().indirectIssued, 0u);
    for (const auto &r : host.issued)
        EXPECT_FALSE(r.indirect);
}

TEST_F(ImpFixture, SecondaryDisabledByConfig)
{
    cfg.secondaryIndirection = false;
    fillB(128);
    makePrefetcher();
    for (int i = 0; i < 48; ++i) {
        drv->access(kB + i * 4, 1, 4);
        drv->access(indirectAddr(b[i], 3, kA), 2, 8);
        drv->access(indirectAddr(b[i], 3, kC), 3, 8);
    }
    EXPECT_EQ(pf->impStats().wayDetections, 0u);
    EXPECT_EQ(pf->impStats().levelDetections, 0u);
}

TEST_F(ImpFixture, NestedLoopResyncKeepsPrefetching)
{
    // Short inner loops over B with jumps between them (Listing 1).
    fillB(4096);
    makePrefetcher();
    std::size_t before = 0;
    int pos = 0;
    for (int outer = 0; outer < 32; ++outer) {
        for (int j = 0; j < 12; ++j)
            iteration(pos + j);
        pos += 64; // Outer loop jumps the index position.
        if (outer == 16)
            before = pf->impStats().indirectIssued;
    }
    // Prefetching continued after resyncs in the second half.
    EXPECT_GT(pf->impStats().indirectIssued, before);
    EXPECT_GT(pf->impStats().resyncs, 10u);
    EXPECT_EQ(pf->impStats().primaryDetections, 1u);
}

} // namespace
} // namespace impsim
