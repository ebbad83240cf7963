/**
 * @file
 * Unit tests for the core models, traces and barriers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "common/rng.hpp"
#include "cpu/barrier.hpp"
#include "cpu/inorder_core.hpp"
#include "cpu/ooo_core.hpp"
#include "cpu/trace.hpp"

namespace impsim {
namespace {

/** Scripted-latency memory port. */
class FakePort final : public MemPort
{
  public:
    explicit FakePort(EventQueue &eq)
        : eq_(eq)
    {}

    /** Latency applied to accesses of a given PC (default 1). */
    std::map<std::uint32_t, Tick> latencyByPc;
    std::uint64_t demands = 0;
    std::uint64_t swPrefetches = 0;
    std::uint32_t inflight = 0;
    std::uint32_t maxInflight = 0;

    void
    demandAccess(const MemAccess &access, EventFn done) override
    {
        ++demands;
        ++inflight;
        maxInflight = std::max(maxInflight, inflight);
        Tick lat = 1;
        if (auto it = latencyByPc.find(access.pc);
            it != latencyByPc.end())
            lat = it->second;
        eq_.schedule(eq_.now() + lat, [this, done = std::move(done)] {
            --inflight;
            done();
        });
    }

    void
    softwarePrefetch(Addr, std::uint32_t) override
    {
        ++swPrefetches;
    }

  private:
    EventQueue &eq_;
};

MemAccess
makeLoad(std::uint32_t pc, Addr addr, std::uint32_t gap,
         std::uint32_t dep = 0)
{
    MemAccess a;
    a.pc = pc;
    a.addr = addr;
    a.gap = gap;
    a.dep = dep;
    a.size = 8;
    a.type = AccessType::Other;
    return a;
}

TEST(Trace, InstructionCount)
{
    CoreTrace t;
    t.accesses.push_back(makeLoad(1, 0, 3));
    t.accesses.push_back(makeLoad(1, 8, 0));
    t.tailInstructions = 5;
    EXPECT_EQ(t.instructionCount(), 3u + 1 + 0 + 1 + 5);
}

TEST(Trace, BarrierCount)
{
    CoreTrace t;
    t.accesses.push_back(makeLoad(1, 0, 0));
    t.accesses.back().flags |= kFlagBarrierBefore;
    t.accesses.push_back(makeLoad(1, 8, 0));
    EXPECT_EQ(t.barrierCount(), 1u);
}

TEST(InOrder, AllHitsRunAtIpcOne)
{
    EventQueue eq;
    FakePort port(eq);
    CoreTrace t;
    for (int i = 0; i < 100; ++i)
        t.accesses.push_back(makeLoad(1, i * 8, 0));
    CoreParams params;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    EXPECT_TRUE(core.done());
    // 100 instructions, 1-cycle loads, back to back.
    EXPECT_EQ(core.stats().finishTick, 100u);
    EXPECT_EQ(core.stats().instructions, 100u);
}

TEST(InOrder, GapsAddNonMemoryCycles)
{
    EventQueue eq;
    FakePort port(eq);
    CoreTrace t;
    t.accesses.push_back(makeLoad(1, 0, 9));
    CoreParams params;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    EXPECT_EQ(core.stats().finishTick, 10u);
    EXPECT_EQ(core.stats().instructions, 10u);
}

TEST(InOrder, LoadsBlockThePipeline)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[7] = 50;
    CoreTrace t;
    t.accesses.push_back(makeLoad(7, 0, 0));
    t.accesses.push_back(makeLoad(1, 8, 0));
    CoreParams params;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    EXPECT_EQ(core.stats().finishTick, 51u);
    // 49 stall cycles charged to the blocking access's label.
    EXPECT_EQ(core.stats().stallCycles[static_cast<int>(
                  AccessType::Other)],
              49u);
}

TEST(InOrder, StoresDrainThroughBuffer)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[9] = 40;
    CoreTrace t;
    for (int i = 0; i < 4; ++i) {
        MemAccess a = makeLoad(9, i * 64, 0);
        a.flags |= kFlagWrite;
        t.accesses.push_back(a);
    }
    CoreParams params;
    params.storeBufferEntries = 8;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    // Four 40-cycle stores overlap: far faster than 160 serial cycles.
    EXPECT_LE(core.stats().finishTick, 45u);
    EXPECT_EQ(core.stats().stores, 4u);
}

TEST(InOrder, FullStoreBufferBlocks)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[9] = 100;
    CoreTrace t;
    for (int i = 0; i < 4; ++i) {
        MemAccess a = makeLoad(9, i * 64, 0);
        a.flags |= kFlagWrite;
        t.accesses.push_back(a);
    }
    CoreParams params;
    params.storeBufferEntries = 2;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    // Third store must wait for the first to complete (~100 cycles).
    EXPECT_GE(core.stats().finishTick, 100u);
    EXPECT_TRUE(core.done());
}

TEST(InOrder, SwPrefetchDoesNotBlock)
{
    EventQueue eq;
    FakePort port(eq);
    CoreTrace t;
    MemAccess pf = makeLoad(3, 0x100, 0);
    pf.flags |= kFlagSwPrefetch;
    t.accesses.push_back(pf);
    t.accesses.push_back(makeLoad(1, 8, 0));
    CoreParams params;
    InOrderCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    EXPECT_EQ(port.swPrefetches, 1u);
    EXPECT_EQ(port.demands, 1u);
    EXPECT_EQ(core.stats().swPrefetches, 1u);
    EXPECT_EQ(core.stats().finishTick, 2u);
}

TEST(Barrier, ReleasesAllAtOnce)
{
    EventQueue eq;
    Barrier bar(eq, 3);
    int released = 0;
    eq.schedule(5, [&] { bar.arrive([&] { ++released; }); });
    eq.schedule(9, [&] { bar.arrive([&] { ++released; }); });
    eq.schedule(20, [&] { bar.arrive([&] { ++released; }); });
    eq.run();
    EXPECT_EQ(released, 3);
    EXPECT_EQ(eq.now(), 21u); // Last arrival + 1 release cycle.
    EXPECT_EQ(bar.generation(), 1u);
}

TEST(Barrier, CoresSynchronise)
{
    EventQueue eq;
    FakePort fast(eq), slow(eq);
    slow.latencyByPc[1] = 200;

    CoreTrace t1, t2;
    t1.accesses.push_back(makeLoad(1, 0, 0)); // Slow core: 200 cycles.
    t2.accesses.push_back(makeLoad(2, 0, 0));
    // Both cross a barrier before their second access.
    t1.accesses.push_back(makeLoad(2, 8, 0));
    t1.accesses.back().flags |= kFlagBarrierBefore;
    t2.accesses.push_back(makeLoad(2, 8, 0));
    t2.accesses.back().flags |= kFlagBarrierBefore;

    Barrier bar(eq, 2);
    CoreParams params;
    InOrderCore slow_core(params, eq, slow, &bar, t1, nullptr);
    InOrderCore fast_core(params, eq, fast, &bar, t2, nullptr);
    slow_core.start();
    fast_core.start();
    eq.run();
    // The fast core finishes only after the slow one reaches the
    // barrier at ~200.
    EXPECT_GE(fast_core.stats().finishTick, 200u);
}

TEST(OoO, IndependentLoadsOverlap)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[1] = 100;
    CoreTrace t;
    for (int i = 0; i < 8; ++i)
        t.accesses.push_back(makeLoad(1, i * 64, 0));
    CoreParams params;
    OoOCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    // Eight 100-cycle loads with MLP 8: ~108 cycles, not ~800.
    EXPECT_LT(core.stats().finishTick, 200u);
    EXPECT_GT(port.maxInflight, 4u);
}

TEST(OoO, DependentLoadsSerialise)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[1] = 100;
    CoreTrace t;
    t.accesses.push_back(makeLoad(1, 0, 0));
    t.accesses.push_back(makeLoad(1, 64, 0, /*dep=*/1)); // A[B[i]].
    CoreParams params;
    OoOCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    // The second load cannot issue before the first completes.
    EXPECT_GE(core.stats().finishTick, 200u);
}

TEST(OoO, RobLimitsOverlap)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[1] = 100;
    CoreTrace t;
    // Each access consumes 16 ROB slots via its gap.
    for (int i = 0; i < 8; ++i)
        t.accesses.push_back(makeLoad(1, i * 64, 15));
    CoreParams params;
    params.robEntries = 32; // Window fits only ~2 accesses.
    params.maxOutstandingLoads = 8;
    OoOCore core(params, eq, port, nullptr, t, nullptr);
    core.start();
    eq.run();
    EXPECT_LE(port.maxInflight, 3u);

    // A big window restores full overlap.
    EventQueue eq2;
    FakePort port2(eq2);
    port2.latencyByPc[1] = 100;
    params.robEntries = 1024;
    OoOCore core2(params, eq2, port2, nullptr, t, nullptr);
    core2.start();
    eq2.run();
    EXPECT_GT(port2.maxInflight, 4u);
    EXPECT_LT(core2.stats().finishTick, core.stats().finishTick);
}

TEST(OoO, InstructionAccountingMatchesInOrder)
{
    EventQueue eq;
    FakePort port(eq);
    CoreTrace t;
    for (int i = 0; i < 10; ++i)
        t.accesses.push_back(makeLoad(1, i * 8, 3));
    t.tailInstructions = 7;
    CoreParams params;
    OoOCore ooo(params, eq, port, nullptr, t, nullptr);
    ooo.start();
    eq.run();
    EXPECT_EQ(ooo.stats().instructions, t.instructionCount());
}

TEST(OoO, BarrierDrainsWindow)
{
    EventQueue eq;
    FakePort port(eq);
    port.latencyByPc[1] = 100;
    Barrier bar(eq, 1);
    CoreTrace t;
    t.accesses.push_back(makeLoad(1, 0, 0));
    t.accesses.push_back(makeLoad(2, 8, 0));
    t.accesses.back().flags |= kFlagBarrierBefore;
    CoreParams params;
    OoOCore core(params, eq, port, &bar, t, nullptr);
    core.start();
    eq.run();
    // The barrier access waits for the 100-cycle load to retire.
    EXPECT_GE(core.stats().finishTick, 101u);
}

/** A seeded random program for the OoO window test. */
struct RandomProgram
{
    CoreTrace trace;
    std::map<std::uint32_t, Tick> latencyByPc;
};

/**
 * 2,000-10,000 accesses over 16 PCs with latencies of 1-300, gaps of
 * 0-40 and dependences 0-300 back (most behind the oldest unretired
 * entry at small windows); one access in eight is a store and one in
 * eight a software prefetch.
 */
RandomProgram
randomProgram(std::uint64_t seed)
{
    constexpr std::uint32_t kPcs = 16;
    Rng rng(seed);
    RandomProgram prog;
    for (std::uint32_t pc = 0; pc < kPcs; ++pc)
        prog.latencyByPc[pc] = 1 + rng.below(300);
    const std::uint64_t n = 2000 + rng.below(8001);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto pc = static_cast<std::uint32_t>(rng.below(kPcs));
        auto gap = static_cast<std::uint32_t>(rng.below(41));
        auto dep = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(rng.below(301), i));
        MemAccess a = makeLoad(pc, i * 64, gap, dep);
        switch (rng.below(8)) {
        case 0:
            a.flags = kFlagWrite;
            break;
        case 1:
            a.flags = kFlagSwPrefetch;
            break;
        default:
            break;
        }
        prog.trace.accesses.push_back(a);
    }
    prog.trace.tailInstructions = rng.below(100);
    return prog;
}

TEST(OoO, WindowMatchesPinnedTimings)
{
    // Pinned from the model that kept a completion tick and an
    // instruction index per trace entry; the ROB-window state must
    // reproduce it exactly, from a one-entry window to one larger
    // than the whole trace.
    struct Pin
    {
        std::uint64_t seed;
        std::uint32_t rob;
        std::uint32_t maxLoads;
        Tick finishTick;
        std::uint64_t instructions;
        std::uint64_t loadLatencySum;
    };
    static const Pin kPins[] = {
        {1, 1, 1, 238153, 48993, 223641},
        {1, 1, 8, 238153, 48993, 223641},
        {1, 2, 1, 238153, 48993, 223641},
        {1, 2, 8, 238047, 48993, 223641},
        {1, 32, 1, 235673, 48993, 223641},
        {1, 32, 8, 211759, 48993, 223641},
        {1, 1024, 1, 228603, 48993, 223641},
        {1, 1024, 8, 53783, 48993, 223641},
        {1, 1048576, 1, 228603, 48993, 223641},
        {1, 1048576, 8, 53783, 48993, 223641},
        {42, 1, 1, 440798, 84258, 415362},
        {42, 1, 8, 440798, 84258, 415362},
        {42, 2, 1, 440798, 84258, 415362},
        {42, 2, 8, 440790, 84258, 415362},
        {42, 32, 1, 436828, 84258, 415362},
        {42, 32, 8, 385193, 84258, 415362},
        {42, 1024, 1, 425630, 84258, 415362},
        {42, 1024, 8, 92368, 84258, 415362},
        {42, 1048576, 1, 425630, 84258, 415362},
        {42, 1048576, 8, 92368, 84258, 415362},
        {1205, 1, 1, 375436, 69808, 352558},
        {1205, 1, 8, 375436, 69808, 352558},
        {1205, 2, 1, 375436, 69808, 352558},
        {1205, 2, 8, 375436, 69808, 352558},
        {1205, 32, 1, 371529, 69808, 352558},
        {1205, 32, 8, 323139, 69808, 352558},
        {1205, 1024, 1, 360599, 69808, 352558},
        {1205, 1024, 8, 75041, 69808, 352558},
        {1205, 1048576, 1, 360599, 69808, 352558},
        {1205, 1048576, 8, 75041, 69808, 352558},
    };
    ASSERT_EQ(std::size(kPins), 30u);
    for (const Pin &pin : kPins) {
        RandomProgram prog = randomProgram(pin.seed);
        EventQueue eq;
        FakePort port(eq);
        port.latencyByPc = prog.latencyByPc;
        CoreParams params;
        params.robEntries = pin.rob;
        params.maxOutstandingLoads = pin.maxLoads;
        OoOCore core(params, eq, port, nullptr, prog.trace, nullptr);
        core.start();
        eq.run();
        ASSERT_TRUE(core.done());
        const CoreStats &s = core.stats();
        EXPECT_TRUE(s.finishTick == pin.finishTick &&
                    s.instructions == pin.instructions &&
                    s.loadLatencySum == pin.loadLatencySum)
            << "got {" << pin.seed << ", " << pin.rob << ", "
            << pin.maxLoads << ", " << s.finishTick << ", "
            << s.instructions << ", " << s.loadLatencySum << "}";
    }
}

} // namespace
} // namespace impsim
