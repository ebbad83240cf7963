/**
 * @file
 * Parallel experiment runner.
 *
 * A sweep is a list of named, independent simulations (different
 * configs over shared read-only workloads). SweepRunner fans the jobs
 * out over a pool of std::thread workers; each worker builds its own
 * System, so no simulator state is shared between jobs — only the
 * const traces and the functional memory image. Results come back in
 * job order regardless of scheduling, so a parallel sweep is
 * bit-identical to running the same jobs serially.
 */
#ifndef IMPSIM_SIM_SWEEP_RUNNER_HPP
#define IMPSIM_SIM_SWEEP_RUNNER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/thread_annotations.hpp"
#include "common/func_mem.hpp"
#include "common/stats.hpp"
#include "cpu/trace.hpp"
#include "sim/system.hpp"

namespace impsim {

/** One independent simulation in a sweep. */
struct SweepJob
{
    /** Label carried through to the result (figure row, CSV tag). */
    std::string name;
    SystemConfig cfg;
    /** Per-core traces; must outlive the run and match cfg.numCores. */
    const std::vector<CoreTrace> *traces = nullptr;
    /** Shared functional memory image; read-only during the run. */
    const FuncMem *mem = nullptr;
    /** Safety tick bound, as in System::run(). */
    Tick limit = kDefaultRunLimit;
};

/** A finished job: the label plus its full statistics snapshot. */
struct SweepResult
{
    std::string name;
    SimStats stats;
    /** False when the batch was cancelled before this job started. */
    bool ran = true;
    /** Host wall time of System::run(), construction excluded. */
    double runMs = 0;
};

/**
 * Cooperative controls for one run() call: cancellation and progress.
 *
 * cancel() is thread-safe and may be called from any thread while the
 * batch runs. Cancellation is between-jobs granular: workers finish
 * the simulation they are on and stop picking up new ones, so the
 * partially filled result vector still comes back in job order with
 * `ran == false` on every skipped entry.
 *
 * onProgress (if set) is invoked with (done, total) after each job
 * completes. Calls are serialized by the runner, but arrive on worker
 * threads — keep the callback cheap and do not re-enter the runner.
 */
class SweepControl
{
  public:
    void cancel() { cancel_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return cancel_.load(std::memory_order_relaxed);
    }

    /** (jobs finished so far, jobs in the batch), monotone in done. */
    std::function<void(std::size_t done, std::size_t total)> onProgress;

  private:
    std::atomic<bool> cancel_{false};
};

/**
 * A fixed budget of simulation slots shared by concurrent sweeps,
 * partitioned between them by a weighted-fair allocator.
 *
 * Each concurrent batch (a job-server job, typically) holds a Lease;
 * a worker thread must acquire() one of the lease's slots before
 * every simulation and release() it after, so the partition is
 * re-evaluated at simulation granularity — exactly the cadence at
 * which cancellation is honoured. Allocation rules:
 *
 *  - every lease with demand (running or waiting workers) gets a
 *    slot share proportional to its weight, at least 1 while slots
 *    remain (heaviest leases are served first when leases outnumber
 *    slots);
 *  - slots a lease cannot use (its sweep is out of work) return to
 *    the pot and go to the longest-waiting lease — the one whose
 *    oldest blocked acquire() is oldest — so a draining job's idle
 *    workers immediately speed up whoever has waited longest;
 *  - an over-target waiter may borrow a free slot only when no
 *    under-target lease is waiting.
 *
 * The pool never runs more than `slots` simulations at once, whatever
 * the number of leases, and allocation only affects *scheduling*:
 * per-batch results are still indexed by job, so output stays
 * bit-identical to a serial run.
 */
class WorkerPool
{
  public:
    /** @param slots concurrent simulations; 0 = hardware threads. */
    explicit WorkerPool(unsigned slots = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * One batch's slice of the pool. Destroy only with no slot held.
     *
     * A Lease is only a handle: its allocator state (weight, held and
     * target slot counts, wait tickets) lives in the pool's
     * mutex-guarded lease table, so clang's thread-safety analysis
     * checks every access against one capability — the pool mutex —
     * from both sides of the Lease/WorkerPool friendship.
     */
    class Lease
    {
      public:
        ~Lease();
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        /**
         * Blocks until a slot is granted (or the pool closes).
         * @return false iff the pool was closed — stop running.
         */
        bool acquire() IMPSIM_EXCLUDES(pool_->mutex_);
        /** Returns a slot granted by acquire() to the pool. */
        void release() IMPSIM_EXCLUDES(pool_->mutex_);

        /** Slots this lease currently holds. */
        unsigned held() const IMPSIM_EXCLUDES(pool_->mutex_);
        /** Slots the allocator currently assigns this lease. */
        unsigned target() const IMPSIM_EXCLUDES(pool_->mutex_);

      private:
        friend class WorkerPool;
        explicit Lease(WorkerPool &pool) : pool_(&pool) {}

        WorkerPool *pool_;
    };

    /**
     * Opens a lease with the given allocation weight (a job-server
     * priority, typically). Thread-safe.
     */
    std::unique_ptr<Lease> lease(double weight = 1.0)
        IMPSIM_EXCLUDES(mutex_);

    /** Fails every blocked and future acquire(); for shutdown. */
    void close() IMPSIM_EXCLUDES(mutex_);

    unsigned slots() const { return slots_; }

  private:
    /** Per-lease allocator state; reachable only through leases_. */
    struct LeaseState
    {
        double weight = 1.0;
        /** Creation order: the weight tie-breaker in recompute(). */
        std::uint64_t order = 0;
        unsigned held = 0;
        unsigned target = 0;
        /** Tickets of blocked acquire()s, oldest first. */
        std::deque<std::uint64_t> waitTickets;
    };

    /** Recomputes every lease's target. */
    void recompute() IMPSIM_REQUIRES(mutex_);
    /** May the lease in state @p st take a slot right now? */
    bool canGrant(const LeaseState &st) const IMPSIM_REQUIRES(mutex_);
    /** @p l's state; IMPSIM_CHECK-fails on an unregistered lease. */
    LeaseState &stateOf(const Lease &l) IMPSIM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    CondVar cv_;
    const unsigned slots_;
    unsigned heldTotal_ IMPSIM_GUARDED_BY(mutex_) = 0;
    bool closed_ IMPSIM_GUARDED_BY(mutex_) = false;
    std::uint64_t ticketSeq_ IMPSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t leaseSeq_ IMPSIM_GUARDED_BY(mutex_) = 0;
    /** Open leases -> allocator state (reference-stable map). */
    std::map<const Lease *, LeaseState> leases_
        IMPSIM_GUARDED_BY(mutex_);
};

/**
 * Splits @p total runs into contiguous (first, count) sub-batches of
 * at most @p chunk runs each, in run order — the lease granularity of
 * the distributed sweep fabric. A chunk of 0 is treated as 1; the
 * last sub-batch carries the remainder. Splitting never affects
 * output bytes (rows are indexed by run), only scheduling.
 */
std::vector<std::pair<std::size_t, std::size_t>>
splitSubBatches(std::size_t total, std::size_t chunk);

/** Runs batches of SweepJobs across worker threads. */
class SweepRunner
{
  public:
    /** @param workers thread count; 0 means hardware concurrency. */
    explicit SweepRunner(unsigned workers = 0);

    /**
     * Runs every job and returns results in job order. Blocks until
     * the whole batch is done (or cancelled through @p ctl). Config
     * or deadlock errors inside a job terminate the process, exactly
     * as a serial run would.
     *
     * Results are indexed by job, never by completion time, so the
     * output is bit-identical for any worker count — the invariant
     * the golden/equivalence tests pin down.
     *
     * @param ctl optional cancellation + progress hooks; may be
     *            shared with other threads but not with a concurrent
     *            run() call.
     * @param lease optional WorkerPool slice: every simulation is
     *            bracketed by lease->acquire()/release(), so
     *            concurrent run() calls share the pool fairly. A
     *            closed pool ends the batch early (entries keep
     *            `ran == false`, like cancellation).
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 SweepControl *ctl = nullptr,
                                 WorkerPool::Lease *lease = nullptr) const;

    unsigned workers() const { return workers_; }

  private:
    unsigned workers_;
};

} // namespace impsim

#endif // IMPSIM_SIM_SWEEP_RUNNER_HPP
