/**
 * @file
 * Unit tests for the ACKwise-4 directory.
 */
#include <gtest/gtest.h>

#include "coherence/directory.hpp"

namespace impsim {
namespace {

constexpr Addr kLine = 0x4000;

TEST(Directory, FirstReaderGetsExclusive)
{
    Directory dir(4, 64);
    DirAction a = dir.onGetS(kLine, 3);
    EXPECT_TRUE(a.grantExclusive);
    EXPECT_EQ(a.downgrade, kNoCore);
    EXPECT_TRUE(a.invalidate.empty());
    EXPECT_EQ(dir.peek(kLine).state, DirState::Exclusive);
    EXPECT_EQ(dir.peek(kLine).owner, 3u);
}

TEST(Directory, SecondReaderDowngradesOwner)
{
    Directory dir(4, 64);
    dir.onGetS(kLine, 3);
    DirAction a = dir.onGetS(kLine, 7);
    EXPECT_FALSE(a.grantExclusive);
    EXPECT_EQ(a.downgrade, 3u);
    EXPECT_EQ(dir.peek(kLine).state, DirState::Shared);
    EXPECT_EQ(dir.peek(kLine).sharerCount, 2u);
}

TEST(Directory, OwnerRereadKeepsExclusive)
{
    Directory dir(4, 64);
    dir.onGetS(kLine, 3);
    DirAction a = dir.onGetS(kLine, 3);
    EXPECT_TRUE(a.grantExclusive);
    EXPECT_EQ(a.downgrade, kNoCore);
    EXPECT_EQ(dir.peek(kLine).state, DirState::Exclusive);
}

TEST(Directory, WriteInvalidatesPreciseSharers)
{
    Directory dir(4, 64);
    dir.onGetS(kLine, 0);
    dir.onGetS(kLine, 1);
    dir.onGetS(kLine, 2);
    DirAction a = dir.onGetX(kLine, 5);
    EXPECT_TRUE(a.grantExclusive);
    EXPECT_FALSE(a.broadcastInvalidate);
    EXPECT_EQ(a.invalidate.size(), 3u);
    EXPECT_EQ(dir.peek(kLine).state, DirState::Exclusive);
    EXPECT_EQ(dir.peek(kLine).owner, 5u);
}

TEST(Directory, RequesterNeverInvalidatesItself)
{
    Directory dir(4, 64);
    dir.onGetS(kLine, 0);
    dir.onGetS(kLine, 1);
    DirAction a = dir.onGetX(kLine, 1);
    for (CoreId c : a.invalidate)
        EXPECT_NE(c, 1u);
}

TEST(Directory, AckwiseOverflowBroadcasts)
{
    Directory dir(4, 64);
    // Six sharers: beyond the 4 pointers -> counting mode.
    for (CoreId c = 0; c < 6; ++c)
        dir.onGetS(kLine, c);
    DirEntry e = dir.peek(kLine);
    EXPECT_TRUE(e.broadcast);
    EXPECT_EQ(e.sharerCount, 6u);

    DirAction a = dir.onGetX(kLine, 10);
    EXPECT_TRUE(a.broadcastInvalidate);
    EXPECT_TRUE(a.invalidate.empty());
}

TEST(Directory, WriteToExclusiveFetchesOwner)
{
    Directory dir(4, 64);
    dir.onGetX(kLine, 2);
    DirAction a = dir.onGetX(kLine, 9);
    EXPECT_EQ(a.downgrade, 2u);
    EXPECT_EQ(dir.peek(kLine).owner, 9u);
}

TEST(Directory, EvictionsShrinkSharerSet)
{
    Directory dir(4, 64);
    dir.onGetS(kLine, 0);
    dir.onGetS(kLine, 1);
    dir.onEvict(kLine, 0);
    EXPECT_EQ(dir.peek(kLine).sharerCount, 1u);
    dir.onEvict(kLine, 1);
    // Last sharer gone: entry is dropped entirely.
    EXPECT_EQ(dir.peek(kLine).state, DirState::Uncached);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, OwnerEvictionUncaches)
{
    Directory dir(4, 64);
    dir.onGetX(kLine, 4);
    dir.onEvict(kLine, 4);
    EXPECT_EQ(dir.peek(kLine).state, DirState::Uncached);
}

TEST(Directory, EvictionInBroadcastModeCountsDown)
{
    Directory dir(4, 64);
    for (CoreId c = 0; c < 6; ++c)
        dir.onGetS(kLine, c);
    dir.onEvict(kLine, 0);
    EXPECT_EQ(dir.peek(kLine).sharerCount, 5u);
}

TEST(Directory, DistinctLinesIndependent)
{
    Directory dir(4, 64);
    dir.onGetS(0x1000, 0);
    dir.onGetS(0x2000, 1);
    EXPECT_EQ(dir.peek(0x1000).owner, 0u);
    EXPECT_EQ(dir.peek(0x2000).owner, 1u);
    EXPECT_EQ(dir.trackedLines(), 2u);
}

/** Property sweep: sharerCount always equals live sharers. */
class SharerSweep : public ::testing::TestWithParam<int>
{};

TEST_P(SharerSweep, CountMatchesJoins)
{
    int n = GetParam();
    Directory dir(4, 64);
    for (CoreId c = 0; c < static_cast<CoreId>(n); ++c)
        dir.onGetS(kLine, c);
    EXPECT_EQ(dir.peek(kLine).sharerCount, static_cast<std::uint16_t>(n));
    // Tear down one by one.
    for (CoreId c = 0; c < static_cast<CoreId>(n); ++c)
        dir.onEvict(kLine, c);
    EXPECT_EQ(dir.peek(kLine).state, DirState::Uncached);
}

INSTANTIATE_TEST_SUITE_P(Counts, SharerSweep,
                         ::testing::Values(1, 2, 4, 5, 8, 16));

} // namespace
} // namespace impsim
