/**
 * @file
 * Unit tests for the GHB correlation prefetcher.
 */
#include <gtest/gtest.h>

#include "core/ghb.hpp"
#include "fake_host.hpp"

namespace impsim {
namespace {

TEST(Ghb, RepeatedMissSequencePrefetched)
{
    FakeHost host;
    GhbConfig cfg;
    GhbPrefetcher ghb(host, cfg);
    PrefetchDriver drv(host, ghb);
    drv.autoFill = false;

    const Addr seq[] = {0x1000, 0x5000, 0x9000, 0x2000, 0x7000};
    // First pass trains the history.
    for (Addr a : seq)
        drv.access(a, 1);
    EXPECT_TRUE(host.issued.empty()); // Nothing to correlate yet.
    // Evict so the replay misses again.
    for (Addr a : seq)
        drv.evict(a);
    // Second pass: each miss should prefetch its historical
    // successors.
    drv.access(seq[0], 1);
    EXPECT_GE(host.issuedFor(seq[1]), 1u);
}

TEST(Ghb, FreshAddressesProduceNothing)
{
    FakeHost host;
    GhbPrefetcher ghb(host, GhbConfig{});
    PrefetchDriver drv(host, ghb);
    drv.autoFill = false;
    // First-visit indirect pattern: GHB has no history to correlate —
    // the §5.4 claim.
    std::uint64_t s = 5;
    for (int i = 0; i < 500; ++i) {
        s = s * 6364136223846793005ull + 1;
        drv.access((s >> 28) & ~Addr{63}, 1);
    }
    EXPECT_EQ(host.issued.size(), 0u);
}

TEST(Ghb, HistoryIsBounded)
{
    FakeHost host;
    GhbConfig cfg;
    cfg.historyEntries = 32;
    GhbPrefetcher ghb(host, cfg);
    PrefetchDriver drv(host, ghb);
    drv.autoFill = false;
    for (int i = 0; i < 200; ++i)
        drv.access(i * 64, 1);
    EXPECT_LE(ghb.historySize(), 32u);
}

TEST(Ghb, HitsDoNotPollute)
{
    FakeHost host;
    GhbPrefetcher ghb(host, GhbConfig{});
    PrefetchDriver drv(host, ghb);
    drv.autoFill = false;
    drv.access(0x1000, 1); // Miss.
    drv.access(0x1000, 1); // Hit: not recorded.
    EXPECT_EQ(ghb.historySize(), 1u);
}

} // namespace
} // namespace impsim
