/**
 * @file
 * Unit tests for the mesh NoC.
 */
#include <gtest/gtest.h>

#include "noc/mesh.hpp"

namespace impsim {
namespace {

TEST(Mesh, CoordinateMapping)
{
    MeshNoc noc(4, 2, 8, 1);
    EXPECT_EQ(noc.coordOf(0), (MeshCoord{0, 0}));
    EXPECT_EQ(noc.coordOf(5), (MeshCoord{1, 1}));
    EXPECT_EQ(noc.coordOf(15), (MeshCoord{3, 3}));
    EXPECT_EQ(noc.tileAt(MeshCoord{3, 2}), 11u);
}

TEST(Mesh, HopCountIsManhattan)
{
    MeshNoc noc(4, 2, 8, 1);
    EXPECT_EQ(noc.hopCount(0, 0), 0u);
    EXPECT_EQ(noc.hopCount(0, 3), 3u);
    EXPECT_EQ(noc.hopCount(0, 15), 6u);
    EXPECT_EQ(noc.hopCount(5, 10), 2u);
    EXPECT_EQ(noc.hopCount(10, 5), 2u); // Symmetric distance.
}

TEST(Mesh, FlitsForPayload)
{
    MeshNoc noc(4, 2, 8, 1);
    EXPECT_EQ(noc.flitsFor(0), 1u);   // Header only.
    EXPECT_EQ(noc.flitsFor(8), 2u);   // Header + 1 data flit.
    EXPECT_EQ(noc.flitsFor(64), 9u);  // A full cacheline.
    EXPECT_EQ(noc.flitsFor(61), 9u);  // Rounded up.
}

TEST(Mesh, LocalSendIsFree)
{
    MeshNoc noc(4, 2, 8, 1);
    EXPECT_EQ(noc.send(3, 3, 64, 100), 100u);
    EXPECT_EQ(noc.stats().messages, 0u);
}

TEST(Mesh, UncontendedLatencyFormula)
{
    MeshNoc noc(4, 2, 8, 1);
    // 0 -> 15: 6 hops * 2 cycles + (9-1) tail flits for 64 B.
    EXPECT_EQ(noc.sendUncontended(0, 15, 64, 1000), 1000u + 12 + 8);
    // Control message: 1 flit, no tail.
    EXPECT_EQ(noc.sendUncontended(0, 1, 0, 0), 2u);
}

TEST(Mesh, SendMatchesUncontendedWhenIdle)
{
    MeshNoc noc(8, 2, 8, 1);
    Tick a = noc.send(0, 63, 64, 500);
    EXPECT_EQ(a, noc.sendUncontended(0, 63, 64, 500));
}

TEST(Mesh, ContentionDelaysCollidingMessages)
{
    MeshNoc noc(4, 2, 8, 1);
    // Many messages crossing the same first link at the same tick.
    Tick first = noc.send(0, 3, 64, 0);
    Tick worst = first;
    for (int i = 0; i < 20; ++i) {
        Tick t = noc.send(0, 3, 64, 0);
        if (t > worst)
            worst = t;
    }
    EXPECT_GT(worst, first);
    EXPECT_GT(noc.stats().queueCycles, 0u);
}

TEST(Mesh, DisjointPathsDoNotContend)
{
    MeshNoc noc(4, 2, 8, 1);
    Tick a = noc.send(0, 1, 64, 0);
    Tick b = noc.send(14, 15, 64, 0); // Far corner, no shared link.
    EXPECT_EQ(a, noc.sendUncontended(0, 1, 64, 0));
    EXPECT_EQ(b, noc.sendUncontended(14, 15, 64, 0));
}

TEST(Mesh, TrafficAccounting)
{
    MeshNoc noc(4, 2, 8, 1);
    noc.send(0, 15, 64, 0); // 9 flits, 6 hops.
    EXPECT_EQ(noc.stats().messages, 1u);
    EXPECT_EQ(noc.stats().flits, 9u);
    EXPECT_EQ(noc.stats().flitHops, 54u);
    EXPECT_EQ(noc.stats().bytes, 72u);
}

/** Property: latency is monotone in distance on an idle mesh. */
class MeshDistanceSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(MeshDistanceSweep, LatencyMonotoneInHops)
{
    std::uint32_t dim = GetParam();
    MeshNoc noc(dim, 2, 8, 1);
    Tick prev = 0;
    for (CoreId dst = 1; dst < dim; ++dst) { // Walk along row 0.
        Tick t = noc.sendUncontended(0, dst, 64, 0);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, MeshDistanceSweep,
                         ::testing::Values(2u, 4u, 8u, 16u));

} // namespace
} // namespace impsim
