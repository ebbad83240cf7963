/**
 * @file
 * simulateRuns() fan-out and the WorkerPool grant rule: parallel
 * execution must be observably identical to serial execution, with
 * results in run order, and concurrent batches share the pool's slots
 * by weight.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "sim/experiment_runner.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

/** A small sweep: spmv on 4 cores at scale 0.05 under @p presets. */
Experiment
sweepExperiment(const std::string &presets = "NoPref, Base, IMP, GHB")
{
    return bindExperiment(ConfigFile::parseString(
        "[system]\napp = spmv\ncores = 4\nscale = 0.05\n"
        "[sweep]\npreset = [" +
        presets + "]\n"));
}

std::vector<std::size_t>
allRuns(const Experiment &exp)
{
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < exp.runs.size(); ++i)
        all.push_back(i);
    return all;
}

/** Runs @p exp's runs through simulateRuns(); fails on a short batch. */
std::vector<SimStats>
simulate(const Experiment &exp, const ExperimentRunOptions &opt)
{
    std::vector<SimStats> stats;
    EXPECT_TRUE(simulateRuns(exp, allRuns(exp), opt, stats));
    return stats;
}

ExperimentRunOptions
withJobs(unsigned jobs)
{
    ExperimentRunOptions opt;
    opt.jobs = jobs;
    return opt;
}

/** Serial reference: one System per run on this thread. */
std::vector<SimStats>
serialStats(const Experiment &exp)
{
    std::vector<SimStats> out;
    for (const ExperimentRun &r : exp.runs) {
        const Workload w = makeWorkload(r.app, workloadParams(r));
        System sys(r.cfg, w.traces, *w.mem);
        out.push_back(sys.run());
    }
    return out;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.instructions, b.core.instructions);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.prefIssued, b.l1.prefIssued);
    EXPECT_EQ(a.l2.hits, b.l2.hits);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.noc.bytes, b.noc.bytes);
    EXPECT_EQ(a.noc.queueCycles, b.noc.queueCycles);
    EXPECT_EQ(a.dram.bytes(), b.dram.bytes());
}

TEST(SimulateRuns, ResultsComeBackInRunOrder)
{
    // stats[i] belongs to run indices[i], whatever order the indices
    // name the runs in and whichever thread finished first.
    const Experiment exp = sweepExperiment();
    const std::vector<SimStats> serial = serialStats(exp);
    const std::vector<std::size_t> indices = {3, 0, 2};
    std::vector<SimStats> stats;
    ASSERT_TRUE(simulateRuns(exp, indices, withJobs(2), stats));
    ASSERT_EQ(stats.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        SCOPED_TRACE(exp.runs[indices[i]].label);
        expectSameStats(stats[i], serial[indices[i]]);
    }
}

TEST(SimulateRuns, ParallelIsIdenticalToSerial)
{
    const Experiment exp = sweepExperiment();
    const std::vector<SimStats> serial = serialStats(exp);
    // 0 is the hardware thread count.
    for (unsigned jobs : {0u, 1u, 2u, 3u, 4u}) {
        const std::vector<SimStats> par = simulate(exp, withJobs(jobs));
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(exp.runs[i].label + " @" + std::to_string(jobs) +
                         " jobs");
            expectSameStats(par[i], serial[i]);
        }
    }
}

TEST(SimulateRuns, EmptyBatchIsFine)
{
    const Experiment exp = sweepExperiment();
    std::vector<SimStats> stats;
    SimulateTimes times;
    EXPECT_TRUE(simulateRuns(exp, {}, withJobs(2), stats, &times));
    EXPECT_TRUE(stats.empty());
    EXPECT_TRUE(times.runMs.empty());
}

TEST(SimulateRuns, RowOrderIsDeterministicAcrossWorkerCounts)
{
    // The golden and server-equivalence tests depend on CSV row order
    // never varying with --jobs: results are indexed by run, not by
    // completion time, so no completion race can reorder them. Pin
    // the label of every row for every worker count against the
    // declared run order.
    const Experiment exp = sweepExperiment();
    for (unsigned jobs : {1u, 2u, 3u, 4u, 8u}) {
        std::vector<std::string> rows;
        ASSERT_TRUE(
            runExperimentRuns(exp, allRuns(exp), withJobs(jobs), rows));
        ASSERT_EQ(rows.size(), exp.runs.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i].rfind(exp.runs[i].label + ",", 0), 0u)
                << jobs << " jobs, row " << i << ": " << rows[i];
    }
}

TEST(SimulateRuns, CancelBeforeTheBatchRunsNothing)
{
    const Experiment exp = sweepExperiment();
    SweepControl ctl;
    std::size_t calls = 0;
    ctl.onProgress = [&](std::size_t, std::size_t) { ++calls; };
    ctl.cancel();
    ExperimentRunOptions opt = withJobs(2);
    opt.control = &ctl;
    std::vector<SimStats> stats;
    EXPECT_FALSE(simulateRuns(exp, allRuns(exp), opt, stats));
    EXPECT_EQ(calls, 0u) << "no run may start after cancel()";
}

TEST(SimulateRuns, ProgressReportsEveryCompletionInOrder)
{
    const Experiment exp = sweepExperiment();
    SweepControl ctl;
    std::vector<std::size_t> seen;
    ctl.onProgress = [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, exp.runs.size());
        seen.push_back(done);
    };
    ExperimentRunOptions opt = withJobs(2);
    opt.control = &ctl;
    simulate(exp, opt);
    // Calls are serialized and done counts are monotone 1..N.
    ASSERT_EQ(seen.size(), exp.runs.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

TEST(SimulateRuns, CancelMidBatchStopsPickingUpNewRuns)
{
    // Cancel from inside the progress callback after the first
    // completion: with one thread the remaining runs must be skipped,
    // deterministically, and the batch reports failure.
    const Experiment exp = sweepExperiment();
    SweepControl ctl;
    std::size_t calls = 0;
    ctl.onProgress = [&](std::size_t done, std::size_t) {
        ++calls;
        if (done == 1)
            ctl.cancel();
    };
    ExperimentRunOptions opt = withJobs(1);
    opt.control = &ctl;
    std::vector<SimStats> stats;
    EXPECT_FALSE(simulateRuns(exp, allRuns(exp), opt, stats));
    EXPECT_EQ(calls, 1u) << "no run may start after the cancel";
}

TEST(SimulateRuns, LeaseGatedRunIsBitIdenticalToUngated)
{
    const Experiment exp = sweepExperiment();
    const std::vector<SimStats> plain = simulate(exp, withJobs(2));

    WorkerPool pool(2);
    std::unique_ptr<WorkerPool::Lease> lease = pool.lease(1.0);
    ExperimentRunOptions opt = withJobs(2);
    opt.lease = lease.get();
    const std::vector<SimStats> gated = simulate(exp, opt);
    ASSERT_EQ(gated.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE(exp.runs[i].label);
        expectSameStats(gated[i], plain[i]);
    }
    // The lease's destructor checks that every slot came back.
    lease.reset();
}

TEST(SimulateRuns, TwoConcurrentLeasedRunsShareThePoolBitIdentically)
{
    // The job-server execution model in miniature: two batches race
    // over one 2-slot pool, each leasing a weighted share. Both must
    // come back complete and identical to their solo runs.
    const Experiment exp = sweepExperiment();
    const std::vector<SimStats> solo = simulate(exp, withJobs(2));

    WorkerPool pool(2);
    auto runLeased = [&](double weight) {
        std::unique_ptr<WorkerPool::Lease> lease = pool.lease(weight);
        ExperimentRunOptions opt = withJobs(2);
        opt.lease = lease.get();
        return simulate(exp, opt);
    };
    std::future<std::vector<SimStats>> af =
        std::async(std::launch::async, runLeased, 2.0);
    std::future<std::vector<SimStats>> bf =
        std::async(std::launch::async, runLeased, 1.0);
    for (const std::vector<SimStats> &stats : {af.get(), bf.get()}) {
        ASSERT_EQ(stats.size(), solo.size());
        for (std::size_t i = 0; i < solo.size(); ++i) {
            SCOPED_TRACE(exp.runs[i].label);
            expectSameStats(stats[i], solo[i]);
        }
    }
}

TEST(SimulateRuns, Fig9PresetListBitIdenticalAtTwoJobs)
{
    // The fig9 grid sweeps {PerfPref, Base, IMP, SWPref}; SWPref runs
    // the software-prefetch trace variant, the others the plain one,
    // so the batch shares two workloads between four runs.
    const Experiment exp = sweepExperiment("PerfPref, Base, IMP, SWPref");
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.05;
    const Workload plain = makeWorkload(AppId::Spmv, wp);
    WorkloadParams swp = wp;
    swp.swPrefetch = true;
    const Workload sw = makeWorkload(AppId::Spmv, swp);

    const ConfigPreset presets[] = {
        ConfigPreset::PerfectPref, ConfigPreset::Baseline,
        ConfigPreset::Imp, ConfigPreset::SwPref};
    ASSERT_EQ(exp.runs.size(), 4u);
    std::vector<SimStats> serial;
    for (std::size_t i = 0; i < exp.runs.size(); ++i) {
        const Workload &w = presetWantsSwPrefetch(presets[i]) ? sw : plain;
        System sys(exp.runs[i].cfg, w.traces, *w.mem);
        serial.push_back(sys.run());
    }

    const std::vector<SimStats> par = simulate(exp, withJobs(2));
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(exp.runs[i].label);
        expectSameStats(par[i], serial[i]);
    }
}

TEST(WorkerPool, SlotsResolveToAtLeastOne)
{
    EXPECT_GE(WorkerPool(0).slots(), 1u);
    EXPECT_EQ(WorkerPool(3).slots(), 3u);
}

TEST(WorkerPool, GrantsUpToSlotsThenBlocksUntilRelease)
{
    WorkerPool pool(2);
    std::unique_ptr<WorkerPool::Lease> a = pool.lease(1.0);
    ASSERT_TRUE(a->acquire());
    ASSERT_TRUE(a->acquire());

    // A second lease's acquire must block while the pool is full and
    // complete once a slot is released.
    std::unique_ptr<WorkerPool::Lease> b = pool.lease(1.0);
    std::promise<bool> got;
    std::future<bool> fut = got.get_future();
    std::thread t([&] { got.set_value(b->acquire()); });
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout)
        << "acquire must not succeed while both slots are held";
    a->release();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "released slot must reach the waiting lease";
    EXPECT_TRUE(fut.get());
    t.join();

    b->release();
    a->release();
}

/**
 * Oversubscribes @p pool with one lease per weight, each with more
 * blocked acquire()s than the pool has slots, then frees the slots and
 * returns how many each lease was granted once the pool is full.
 *
 * A blocker lease holds every slot while the waiters queue, so every
 * grant is made by the rule with all leases waiting, not by arrival
 * order. Waiters that got no slot are failed by close().
 */
std::vector<unsigned>
grantsWhenOversubscribed(WorkerPool &pool, const std::vector<double> &weights)
{
    const unsigned slots = pool.slots();
    std::unique_ptr<WorkerPool::Lease> blocker = pool.lease(1.0);
    for (unsigned s = 0; s < slots; ++s)
        EXPECT_TRUE(blocker->acquire());

    std::vector<std::unique_ptr<WorkerPool::Lease>> leases;
    for (double w : weights)
        leases.push_back(pool.lease(w));
    std::vector<std::atomic<unsigned>> granted(weights.size());
    std::atomic<unsigned> arrived{0}, grantedTotal{0};
    std::vector<std::thread> waiters;
    for (std::size_t l = 0; l < leases.size(); ++l) {
        for (unsigned k = 0; k <= slots; ++k) {
            waiters.emplace_back([&, l] {
                ++arrived;
                if (leases[l]->acquire()) {
                    ++granted[l];
                    ++grantedTotal;
                }
            });
        }
    }
    // Every waiter has announced itself; give the last ones time to
    // block inside acquire() before the first slot frees up.
    while (arrived.load() < waiters.size())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    for (unsigned s = 0; s < slots; ++s)
        blocker->release();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (grantedTotal.load() < slots &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(grantedTotal.load(), slots) << "every freed slot is granted";
    // The pool is full: no further grant may happen until a release.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(grantedTotal.load(), slots);

    std::vector<unsigned> out;
    for (std::atomic<unsigned> &g : granted)
        out.push_back(g.load());
    pool.close();
    for (std::thread &t : waiters)
        t.join();
    for (std::size_t l = 0; l < leases.size(); ++l) {
        for (unsigned g = 0; g < out[l]; ++g)
            leases[l]->release();
    }
    return out;
}

TEST(WorkerPool, Weights3To1Over4SlotsHold3And1)
{
    WorkerPool pool(4);
    EXPECT_EQ(grantsWhenOversubscribed(pool, {3.0, 1.0}),
              (std::vector<unsigned>{3, 1}));
}

TEST(WorkerPool, Weights100To1Over2SlotsHold1And1)
{
    // A lease holding no slot is served first, so the light job is
    // not starved by a much heavier one.
    WorkerPool pool(2);
    EXPECT_EQ(grantsWhenOversubscribed(pool, {100.0, 1.0}),
              (std::vector<unsigned>{1, 1}));
}

TEST(WorkerPool, EqualWeightsSplitEvenly)
{
    WorkerPool pool(4);
    EXPECT_EQ(grantsWhenOversubscribed(pool, {1.0, 1.0}),
              (std::vector<unsigned>{2, 2}));
}

TEST(WorkerPool, LoneLeaseTakesEverySlot)
{
    WorkerPool pool(4);
    EXPECT_EQ(grantsWhenOversubscribed(pool, {1.0}),
              (std::vector<unsigned>{4}));

    // Without contention, too: a heavy lease keeps taking free slots
    // while the light one, done, holds none.
    WorkerPool idle(4);
    std::unique_ptr<WorkerPool::Lease> heavy = idle.lease(3.0);
    std::unique_ptr<WorkerPool::Lease> light = idle.lease(1.0);
    ASSERT_TRUE(light->acquire());
    light->release();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(heavy->acquire());
    for (int i = 0; i < 4; ++i)
        heavy->release();
}

TEST(WorkerPool, CloseFailsBlockedAndFutureAcquires)
{
    WorkerPool pool(1);
    std::unique_ptr<WorkerPool::Lease> a = pool.lease(1.0);
    ASSERT_TRUE(a->acquire());

    std::unique_ptr<WorkerPool::Lease> b = pool.lease(1.0);
    std::promise<bool> got;
    std::future<bool> fut = got.get_future();
    std::thread t([&] { got.set_value(b->acquire()); });
    pool.close();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_FALSE(fut.get()) << "close() must fail a blocked acquire";
    t.join();
    EXPECT_FALSE(a->acquire()) << "and every acquire after it";
    a->release();
}

} // namespace
} // namespace impsim
