/**
 * @file
 * Unit tests for SmallFn's three storage paths: trivially copyable
 * callables moved as bytes, other inline callables moved by their
 * manager, and oversized or throwing-move callables on the heap.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"
#include "common/small_fn.hpp"

namespace impsim {
namespace {

/** Counts live objects and every construction and destruction. */
struct Census
{
    int live = 0;
    int made = 0;
    int destroyed = 0;
};

struct Counted
{
    explicit Counted(Census *c) : c(c) { ++c->live, ++c->made; }
    Counted(const Counted &o) : c(o.c) { ++c->live, ++c->made; }
    Counted(Counted &&o) noexcept : c(o.c) { ++c->live, ++c->made; }
    Counted &operator=(const Counted &) = delete;
    ~Counted() { --c->live, ++c->destroyed; }

    void operator()() const {}

    Census *c;
};

/** Over EventFn's 48 inline bytes; records where it runs from. */
struct Fat
{
    Counted counted;
    const void **ranAt;
    std::array<std::uint64_t, 6> ballast{};

    void operator()() const { *ranAt = this; }
};
static_assert(sizeof(Fat) > 48, "must not fit inline");

/** Fits, but its move may throw: stored on the heap too. */
struct ThrowingMove
{
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove &) = default;
    ThrowingMove(ThrowingMove &&) noexcept(false) {}
    void operator()() const {}
};

TEST(SmallFn, TrivialCallableSurvivesMovesWithoutAManager)
{
    std::uint64_t out[3] = {};
    std::uint64_t a = 7, b = 11;
    std::uint8_t c = 3;
    auto fn = [&out, a, b, c] {
        out[0] = a;
        out[1] = b;
        out[2] = c;
    };
    using Fn = decltype(fn);
    static_assert(EventFn::kTrivial<Fn>,
                  "a capture of pointers and integers moves as bytes");
    static_assert(!EventFn::kTrivial<Counted>, "user-defined move");
    static_assert(!EventFn::kTrivial<Fat>, "does not fit");

    EventFn f(fn);
    EventFn g(std::move(f));
    EXPECT_FALSE(f);
    EventFn h;
    h = std::move(g);
    EXPECT_FALSE(g);
    // Through vector relocation and an event cell as well.
    std::vector<EventFn> v;
    v.push_back(std::move(h));
    for (int i = 0; i < 40; ++i)
        v.emplace_back([] {});
    EventQueue eq;
    eq.schedule(5, std::move(v.front()));
    EXPECT_FALSE(v.front());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(out[0], 7u);
    EXPECT_EQ(out[1], 11u);
    EXPECT_EQ(out[2], 3u);
}

TEST(SmallFn, NonTrivialCallableLivesExactlyOnceAcrossMoves)
{
    Census census;
    {
        EventFn f{Counted(&census)};
        EXPECT_EQ(census.live, 1);
        EventFn g(std::move(f));
        EXPECT_EQ(census.live, 1);
        EventFn h;
        h = std::move(g);
        EXPECT_EQ(census.live, 1);
        // Move-assigning over a held callable destroys that one once.
        Census other;
        EventFn k{Counted(&other)};
        k = std::move(h);
        EXPECT_EQ(other.live, 0);
        EXPECT_EQ(other.made, other.destroyed);
        EXPECT_EQ(census.live, 1);
        k();
        k = nullptr;
        EXPECT_EQ(census.live, 0);
        k = nullptr; // Already empty: nothing left to destroy.
    }
    EXPECT_EQ(census.live, 0);
    EXPECT_EQ(census.made, census.destroyed);
}

TEST(SmallFn, OversizedAndThrowingMoveCallablesStayOnTheHeap)
{
    static_assert(!EventFn::kInline<Fat>);
    static_assert(!EventFn::kInline<ThrowingMove>);
    static_assert(EventFn::kInline<Counted>);

    Census census;
    const void *ranAt = nullptr;
    {
        EventFn f{Fat{Counted(&census), &ranAt}};
        int made = census.made;
        f();
        const void *first = ranAt;
        EventFn g(std::move(f));
        EventFn h;
        h = std::move(g);
        EXPECT_EQ(census.made, made) << "moves pass the heap pointer";
        EXPECT_EQ(census.live, 1);
        h();
        EXPECT_EQ(ranAt, first) << "the heap object never moved";
        EventFn t{ThrowingMove{}};
        EventFn u(std::move(t));
        u();
    }
    EXPECT_NE(ranAt, nullptr);
    EXPECT_EQ(census.live, 0);
    EXPECT_EQ(census.made, census.destroyed);
}

} // namespace
} // namespace impsim
