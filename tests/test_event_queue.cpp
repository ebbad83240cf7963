/**
 * @file
 * Unit tests for the discrete-event kernel.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"

namespace impsim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.scheduleAfter(2, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 18u);
}

TEST(EventQueue, LimitStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run(200));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

/**
 * Reference scheduler: a plain (tick, seq) binary heap — the
 * pre-calendar implementation's ordering contract.
 */
class ModelQueue
{
  public:
    void
    schedule(Tick when, std::uint64_t id)
    {
        heap_.push(Entry{when, seq_++, id});
    }

    /** Pops every entry in (tick, scheduling-order) order. */
    std::vector<std::pair<Tick, std::uint64_t>>
    drain()
    {
        std::vector<std::pair<Tick, std::uint64_t>> out;
        while (!heap_.empty()) {
            out.emplace_back(heap_.top().when, heap_.top().id);
            heap_.pop();
        }
        return out;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;
        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap_;
    std::uint64_t seq_ = 0;
};

/**
 * The calendar queue's ordering must be indistinguishable from the
 * reference heap under randomized schedules — including delays far
 * past the ring horizon (overflow-heap migration) and ties, which
 * must break by scheduling order.
 */
TEST(EventQueue, RandomizedOrderingMatchesReferenceHeap)
{
    std::mt19937_64 rng(2015);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        ModelQueue model;
        std::vector<std::pair<Tick, std::uint64_t>> fired;
        std::uint64_t id = 0;

        // Mixed horizon: mostly near-future (in-ring), a slice far
        // enough out to exercise the overflow heap, and heavy tick
        // collisions from the small modulus.
        for (int i = 0; i < 2000; ++i) {
            Tick when;
            switch (rng() % 8) {
              case 0: when = rng() % 100000; break; // far: overflow
              case 1: when = rng() % 3000; break;   // ring boundary
              default: when = rng() % 300; break;   // dense ties
            }
            eq.schedule(when, [&fired, &eq, when, id] {
                EXPECT_EQ(eq.now(), when);
                fired.emplace_back(when, id);
            });
            model.schedule(when, id);
            ++id;
        }
        EXPECT_TRUE(eq.run());
        EXPECT_EQ(fired, model.drain()) << "round " << round;
    }
}

/** Same equivalence when callbacks schedule follow-up events. */
TEST(EventQueue, RandomizedSelfSchedulingMatchesReferenceHeap)
{
    std::mt19937_64 rng(90);
    EventQueue eq;
    ModelQueue model;
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    std::uint64_t id = 0;

    // Each event spawns up to two children at deterministic offsets
    // (including same-tick ones), so drains interleave with appends
    // exactly like controller callbacks do.
    std::function<void(Tick, std::uint64_t, int)> fire =
        [&](Tick when, std::uint64_t my_id, int depth) {
            fired.emplace_back(when, my_id);
            if (depth >= 3)
                return;
            std::uint64_t h = (when * 2654435761u) ^ my_id;
            for (int c = 0; c < 2; ++c) {
                Tick delta = (h >> (c * 8)) % 5000; // 0 = same tick
                std::uint64_t child = id++;
                model.schedule(when + delta, child);
                eq.schedule(when + delta,
                            [&fire, when, delta, child, depth] {
                                fire(when + delta, child, depth + 1);
                            });
            }
        };
    for (int i = 0; i < 64; ++i) {
        Tick when = rng() % 4096;
        std::uint64_t root = id++;
        model.schedule(when, root);
        eq.schedule(when,
                    [&fire, when, root] { fire(when, root, 0); });
    }
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, model.drain());
}

TEST(EventQueue, OverflowEventsMigrateAheadOfLaterRingEvents)
{
    // An event scheduled far out (overflow heap) then joined at the
    // same tick by a near event scheduled *later* must still fire
    // first: ties break by scheduling order across both stores.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50000, [&] { order.push_back(1); });
    eq.schedule(49999, [&] {
        eq.schedule(50000, [&] { order.push_back(2); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/**
 * A capture that counts its live copies, so a closure destroyed twice
 * drives the count negative and a leaked one leaves it positive.
 */
struct Token
{
    explicit Token(int *live) : live(live) { ++*live; }
    Token(const Token &o) : live(o.live) { ++*live; }
    Token(Token &&o) noexcept : live(o.live) { ++*live; }
    Token &operator=(const Token &) = delete;
    ~Token() { --*live; }

    int *live;
};

/** A callable over EventFn's 48 inline bytes: SmallFn's heap path. */
struct FatClosure
{
    Token token;
    std::array<std::uint64_t, 8> ballast{};

    void operator()() const {}
};
static_assert(sizeof(FatClosure) > 48, "must not fit inline");

TEST(EventQueueLifetime, ClosureIsDestroyedRightAfterItRuns)
{
    int live = 0;
    EventQueue eq;
    eq.schedule(1, [t = Token(&live)] {});
    eq.schedule(2, FatClosure{Token(&live)});
    eq.schedule(50000, [t = Token(&live)] {}); // overflow heap
    eq.schedule(3, [&live] { EXPECT_EQ(live, 1); }); // only the far one
    EXPECT_EQ(live, 3);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(live, 2);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(live, 0);
}

TEST(EventQueueLifetime, ResetDestroysPendingClosuresOnce)
{
    int live = 0;
    EventQueue eq;
    eq.schedule(1, [t = Token(&live)] {});
    eq.schedule(1, FatClosure{Token(&live)});
    eq.schedule(90000, [t = Token(&live)] {});
    eq.schedule(90000, FatClosure{Token(&live)});
    EXPECT_EQ(live, 4);
    eq.reset();
    EXPECT_EQ(live, 0);
    EXPECT_EQ(eq.pending(), 0u);

    // The queue runs again on its recycled cells.
    int fired = 0;
    eq.schedule(1, [&fired, t = Token(&live)] { ++fired; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(live, 0);
}

TEST(EventQueueLifetime, DestructorDestroysPendingClosuresOnce)
{
    int live = 0;
    {
        EventQueue eq;
        eq.schedule(1, [t = Token(&live)] {});
        eq.schedule(2, FatClosure{Token(&live)});
        eq.schedule(3, [t = Token(&live)] {});
        eq.schedule(4, FatClosure{Token(&live)});
        eq.schedule(70000, [t = Token(&live)] {});
        eq.schedule(70000, FatClosure{Token(&live)});
        EXPECT_FALSE(eq.run(2));
        EXPECT_EQ(live, 4);
    }
    EXPECT_EQ(live, 0);
}

TEST(EventQueueLifetime, CallbackSurvivesSlabGrowthItCauses)
{
    // The running callback's cell must not move while it schedules
    // enough same-tick children to add several chunks to the slab.
    constexpr std::size_t kChildren = 3 * EventQueue::kChunkCells + 5;
    EventQueue eq;
    std::vector<std::size_t> order;
    std::vector<std::uint32_t> seen;
    std::array<std::uint32_t, 4> words{11, 22, 33, 44};
    auto parent = [&eq, &order, &seen, words] {
        for (std::size_t i = 0; i < kChildren; ++i)
            eq.schedule(7, [&order, i] { order.push_back(i); });
        seen.assign(words.begin(), words.end());
    };
    static_assert(sizeof(parent) <= 48, "captures must live in the cell");
    eq.schedule(7, parent);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{11, 22, 33, 44}));
    ASSERT_EQ(order.size(), kChildren);
    for (std::size_t i = 0; i < kChildren; ++i)
        ASSERT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(eq.executed(), kChildren + 1);
}

TEST(EventQueueLifetime, OverflowMigratesAheadAfterHeavyCellReuse)
{
    // Many interleaved chains recycle cells in a scrambled order
    // before the far tick comes into the ring; the overflow events
    // due then must still fire first, in their scheduling order,
    // ahead of the ring events scheduled for the same tick.
    const Tick far = 60000;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(far, [&order] { order.push_back(0); });

    std::mt19937_64 rng(1205);
    std::function<void()> churn = [&] {
        if (eq.now() + 300 < far)
            eq.scheduleAfter(1 + rng() % 200, churn);
    };
    for (int i = 0; i < 64; ++i)
        eq.schedule(rng() % 64, churn);

    eq.schedule(500, [&] {
        eq.schedule(far, [&order] { order.push_back(1); });
    });
    eq.schedule(far - 100, [&] {
        eq.schedule(far, [&order] { order.push_back(2); });
        eq.schedule(far, [&order] { order.push_back(3); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_GT(eq.executed(), 10000u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

} // namespace
} // namespace impsim
