/**
 * @file
 * Unit tests for the bucketed bandwidth model. The single-resource
 * cases use resource 0 of a one-resource array.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/bandwidth.hpp"

namespace impsim {
namespace {

TEST(Bandwidth, UncontendedClaimStartsImmediately)
{
    BandwidthArray bw(1, 1.0, 32);
    BwGrant g = bw.claim(0, 100, 8);
    EXPECT_EQ(g.start, 100u);
    EXPECT_EQ(g.queueDelay, 0u);
}

TEST(Bandwidth, SaturatedBucketPushesToNextWindow)
{
    BandwidthArray bw(1, 1.0, 32);
    bw.claim(0, 0, 32); // Fills bucket [0,32).
    BwGrant g = bw.claim(0, 0, 4);
    EXPECT_GE(g.start, 32u);
    EXPECT_EQ(g.queueDelay, g.start);
}

TEST(Bandwidth, OutOfOrderClaimsDoNotFalselyQueue)
{
    BandwidthArray bw(1, 1.0, 32);
    // A far-future claim must not delay an earlier one — the failure
    // mode of a busy-until register.
    bw.claim(0, 100000, 32);
    BwGrant g = bw.claim(0, 64, 8);
    EXPECT_EQ(g.start, 64u);
    EXPECT_EQ(g.queueDelay, 0u);
}

TEST(Bandwidth, LargeClaimSpansBuckets)
{
    BandwidthArray bw(1, 1.0, 32);
    BwGrant g = bw.claim(0, 0, 100); // Needs four buckets.
    EXPECT_EQ(g.start, 0u);
    EXPECT_GE(g.finish, 64u); // Last units land in bucket 3.
}

TEST(Bandwidth, SustainedOverloadQueuesLinearly)
{
    BandwidthArray bw(1, 1.0, 32);
    // Offer 2x capacity starting at t=0; delays must grow.
    Tick last_delay = 0;
    for (int i = 0; i < 16; ++i) {
        BwGrant g = bw.claim(0, 0, 64);
        EXPECT_GE(g.queueDelay, last_delay);
        last_delay = g.queueDelay;
    }
    EXPECT_GT(last_delay, 300u);
}

TEST(Bandwidth, FractionalCapacity)
{
    // 0.25 units/cycle -> 8 units per 32-cycle bucket.
    BandwidthArray bw(1, 0.25, 32);
    bw.claim(0, 0, 8);
    BwGrant g = bw.claim(0, 0, 1);
    EXPECT_GE(g.start, 32u);
}

TEST(Bandwidth, StaleSlotsRecycleWithoutGhostTraffic)
{
    BandwidthArray bw(1, 1.0, 4, 8); // Tiny ring: horizon 32 cycles.
    bw.claim(0, 0, 4);               // Bucket 0 full.
    // Bucket 8 reuses slot 0; must see a fresh (empty) bucket.
    BwGrant g = bw.claim(0, 32, 4);
    EXPECT_EQ(g.start, 32u);
}

TEST(Bandwidth, SearchStaysWithinOneLapOfTheRing)
{
    // Four windows of 4 cycles, each booked solid: a further claim
    // from window 0 must not wrap onto window 0's own slot, take it
    // for window 4 and so erase window 0's bookings.
    BandwidthArray bw(1, 1.0, 4, 4);
    for (Tick w = 0; w < 4; ++w)
        bw.claim(0, 4 * w, 4);
    BwGrant forced = bw.claim(0, 0, 1);
    EXPECT_EQ(forced.start, 12u) << "forced through at the lap's end";

    BwGrant g = bw.claim(0, 0, 1);
    EXPECT_GT(g.queueDelay, 0u) << "window 0 must still read full";
}

/**
 * The resource-major layout BandwidthArray replaced, kept as the
 * reference: one independent ring per resource, claimed with the same
 * rules, written with plain division and modulo. It also counts which
 * rules a claim sequence exercised.
 */
class ReferenceRing
{
  public:
    ReferenceRing(double units_per_cycle, std::uint32_t bucket_cycles,
                  std::uint32_t slots)
        : bucketCycles_(bucket_cycles), slots_(slots),
          capacity_(std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(units_per_cycle *
                                            bucket_cycles))),
          tags_(slots, ~std::uint64_t{0}), used_(slots, 0)
    {}

    BwGrant
    claim(Tick t, std::uint64_t units)
    {
        BwGrant g;
        std::uint64_t remaining = units;
        std::uint64_t bucket = t / bucketCycles_;
        std::uint64_t limit = bucket + slots_ - 1;
        bool first = true;
        int buckets = 0;
        while (remaining > 0) {
            std::size_t at = bucket % slots_;
            if (tags_[at] != bucket) {
                if (tags_[at] != ~std::uint64_t{0})
                    ++recycled;
                tags_[at] = bucket;
                used_[at] = 0;
            }
            std::uint64_t spare =
                capacity_ > used_[at] ? capacity_ - used_[at] : 0;
            ++buckets;
            if (spare == 0 && bucket < limit) {
                ++bucket;
                continue;
            }
            std::uint64_t take = std::min(spare, remaining);
            if (bucket >= limit) {
                take = remaining;
                ++forced;
            }
            used_[at] += take;
            remaining -= take;
            Tick start = bucket * bucketCycles_;
            if (first) {
                g.start = std::max<Tick>(t, start);
                first = false;
            }
            g.finish = std::max<Tick>(g.start, start);
            if (remaining > 0)
                ++bucket;
        }
        g.queueDelay = g.start - t;
        if (buckets > 1)
            ++multiBucket;
        return g;
    }

    std::uint64_t recycled = 0;    ///< Stale slots reused.
    std::uint64_t forced = 0;      ///< Grants past the horizon.
    std::uint64_t multiBucket = 0; ///< Claims that searched on.

  private:
    std::uint64_t bucketCycles_;
    std::uint64_t slots_;
    std::uint64_t capacity_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> used_;
};

/** Resources, and ring geometry: the NoC's, and a tiny ring. */
struct LayoutCase
{
    std::size_t count;
    std::uint32_t bucketCycles;
    std::uint32_t slots;
};

class RingLayout : public ::testing::TestWithParam<LayoutCase>
{};

TEST_P(RingLayout, GrantsMatchOneRingPerResource)
{
    const LayoutCase lc = GetParam();
    BandwidthArray array(lc.count, 1.0, lc.bucketCycles, lc.slots);
    std::vector<ReferenceRing> ref(
        lc.count, ReferenceRing(1.0, lc.bucketCycles, lc.slots));

    const Tick horizon = Tick{lc.bucketCycles} * lc.slots;
    std::mt19937_64 rng(0x5eed + lc.count + lc.slots);
    // A few hot resources saturate and queue past the forced-through
    // horizon; the rest see light traffic.
    std::size_t hot = std::min<std::size_t>(lc.count, 3);
    Tick now = 0;
    for (int i = 0; i < 60000; ++i) {
        now += rng() % 4;
        std::size_t res = rng() % 4 == 0 ? rng() % hot : rng() % lc.count;
        Tick t = now;
        switch (rng() % 8) {
        case 0: // Far future: lands on a slot of an older lap.
            t += horizon + rng() % (4 * horizon);
            break;
        case 1: // Late: behind windows the ring already reused.
            t = now > 2 * horizon ? now - horizon - rng() % horizon : 0;
            break;
        default:
            t += rng() % 64;
            break;
        }
        std::uint64_t units = rng() % 8 == 0 ? 16 + rng() % 200
                                             : 1 + rng() % 9;
        // Claims longer than the ring's horizon are forced through at
        // its last window, as are claims to a resource booked solid.
        if (rng() % 64 == 0)
            units = 16 * horizon + rng() % horizon;
        BwGrant want = ref[res].claim(t, units);
        BwGrant got = array.claim(res, t, units);
        ASSERT_EQ(got.start, want.start) << "claim " << i;
        ASSERT_EQ(got.finish, want.finish) << "claim " << i;
        ASSERT_EQ(got.queueDelay, want.queueDelay) << "claim " << i;
    }
    std::uint64_t recycled = 0, forced = 0, multi = 0;
    for (const ReferenceRing &r : ref) {
        recycled += r.recycled;
        forced += r.forced;
        multi += r.multiBucket;
    }
    EXPECT_GT(multi, 0u) << "no claim took the multi-bucket path";
    EXPECT_GT(recycled, 0u) << "the ring never wrapped";
    EXPECT_GT(forced, 0u) << "no grant was forced through";
}

INSTANTIATE_TEST_SUITE_P(
    Counts, RingLayout,
    ::testing::Values(LayoutCase{1, 32, 512}, LayoutCase{36, 32, 512},
                      LayoutCase{64, 32, 512}, LayoutCase{1024, 32, 512},
                      LayoutCase{1, 4, 8}, LayoutCase{36, 4, 8},
                      LayoutCase{64, 4, 8}, LayoutCase{1024, 4, 8}));

/** Property sweep: total throughput never exceeds capacity. */
class BwSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BwSweep, ThroughputBoundedByCapacity)
{
    double cap = GetParam();
    BandwidthArray bw(1, cap, 32);
    Tick horizon = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < 200; ++i) {
        BwGrant g = bw.claim(0, 0, 16);
        total += 16;
        if (g.finish > horizon)
            horizon = g.finish;
    }
    // All units fit within [0, horizon+bucket); utilisation <= cap.
    double span = static_cast<double>(horizon) + 32.0;
    EXPECT_LE(static_cast<double>(total), cap * span * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BwSweep,
                         ::testing::Values(1, 2, 4, 8, 10));

} // namespace
} // namespace impsim
