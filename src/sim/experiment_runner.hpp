/**
 * @file
 * Executes a bound Experiment: its runs' statistics, report or CSV.
 *
 * simulateRuns() is the only code that turns an Experiment into
 * simulations, and it runs them itself. Every front end goes through
 * it: `impsim_cli` flag mode and `--config`, the job server (local
 * pool and fabric worker alike), the bench_* figure binaries,
 * perf_harness and the tests. Their outputs are therefore
 * bit-identical by construction: one expanded run prints the full
 * report (unless forced to CSV), several fan out over worker threads
 * and print one CSV row per run, in sweep order.
 */
#ifndef IMPSIM_SIM_EXPERIMENT_RUNNER_HPP
#define IMPSIM_SIM_EXPERIMENT_RUNNER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config_file.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"

namespace impsim {

/**
 * Cooperative controls for one simulateRuns() call: cancellation and
 * progress.
 *
 * cancel() is thread-safe and may be called from any thread while the
 * batch runs. Cancellation is between-runs granular: workers finish
 * the simulation they are on and stop picking up new ones.
 *
 * onProgress (if set) is invoked with (done, total) after each run
 * completes. Calls are serialized, but arrive on worker threads —
 * keep the callback cheap and do not re-enter simulateRuns().
 */
class SweepControl
{
  public:
    void cancel() { cancel_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return cancel_.load(std::memory_order_relaxed);
    }

    /** (runs finished so far, runs in the batch), monotone in done. */
    std::function<void(std::size_t done, std::size_t total)> onProgress;

  private:
    std::atomic<bool> cancel_{false};
};

/**
 * A fixed budget of simulation slots shared by concurrent batches
 * (job-server jobs, typically), each holding a weighted Lease.
 *
 * A worker thread acquire()s one of its lease's slots before every
 * simulation and release()s it after, so the split is decided at
 * simulation granularity, the cadence at which cancellation is
 * honoured. Whenever a slot is free it goes to the waiting lease
 * with the smallest held / weight, then the heaviest, then the one
 * whose oldest waiter has waited longest.
 *
 * So weights 3:1 over 4 busy slots hold 3 and 1, 100:1 over 2 hold 1
 * and 1 (a waiting lease that holds no slot goes first, so none
 * starves), a lease alone takes every slot, and a draining lease's
 * slots go straight to whoever still waits. The pool never runs more
 * than `slots` simulations at once. The split only affects
 * scheduling: per-batch results are indexed by run, so output stays
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
     * A Lease is only a handle: its grant state (weight, held slots,
     * wait tickets) lives in the pool's mutex-guarded lease table, so
     * clang's thread-safety analysis checks every access against one
     * capability — the pool mutex — from both sides of the
     * Lease/WorkerPool friendship.
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

      private:
        friend class WorkerPool;
        explicit Lease(WorkerPool &pool) : pool_(&pool) {}

        WorkerPool *pool_;
    };

    /**
     * Opens a lease with the given weight (a job-server priority,
     * typically; <= 0 means 1). Thread-safe.
     */
    std::unique_ptr<Lease> lease(double weight = 1.0)
        IMPSIM_EXCLUDES(mutex_);

    /** Fails every blocked and future acquire(); for shutdown. */
    void close() IMPSIM_EXCLUDES(mutex_);

    unsigned slots() const { return slots_; }

  private:
    /** Per-lease grant state; reachable only through leases_. */
    struct LeaseState
    {
        double weight = 1.0;
        unsigned held = 0;
        /** Tickets of blocked acquire()s, oldest first. */
        std::deque<std::uint64_t> waitTickets;
    };

    /** The waiting lease the next free slot goes to, or nullptr. */
    const LeaseState *grantee() const IMPSIM_REQUIRES(mutex_);
    /** @p l's state; IMPSIM_CHECK-fails on an unregistered lease. */
    LeaseState &stateOf(const Lease &l) IMPSIM_REQUIRES(mutex_);

    Mutex mutex_;
    CondVar cv_;
    const unsigned slots_;
    unsigned heldTotal_ IMPSIM_GUARDED_BY(mutex_) = 0;
    bool closed_ IMPSIM_GUARDED_BY(mutex_) = false;
    std::uint64_t ticketSeq_ IMPSIM_GUARDED_BY(mutex_) = 0;
    /** Open leases -> grant state (reference-stable map). */
    std::map<const Lease *, LeaseState> leases_
        IMPSIM_GUARDED_BY(mutex_);
};

/** How to execute one Experiment. */
struct ExperimentRunOptions
{
    /** Force CSV output even for a single expanded run. */
    bool csv = false;
    /** Worker threads; 0 = hardware. */
    unsigned jobs = 0;
    /** Cancellation + progress hooks; nullptr = not cancellable. */
    SweepControl *control = nullptr;
    /**
     * Leased WorkerPool slice gating every simulation (single-run
     * reports included), so concurrent experiments share one slot
     * budget; nullptr = ungated.
     */
    WorkerPool::Lease *lease = nullptr;
};

/** The workload parameters (inputs, trace file) of run @p r. */
WorkloadParams workloadParams(const ExperimentRun &r);

/** Host wall times of one simulateRuns() call (docs/perf.md). */
struct SimulateTimes
{
    /** Building every distinct workload: generation or trace decode. */
    double workloadMs = 0;
    /** runMs[i]: System::run() time of run indices[i]. */
    std::vector<double> runMs;
};

/**
 * Simulates the runs of @p exp named by @p indices (each <
 * exp.runs.size()); stats[i] receives run indices[i]'s statistics.
 * Workloads are built once per distinct (app, cores, swpf, scale,
 * seed, trace path) among those runs, then the runs fan out over
 * min(opt.jobs, runs) threads (the caller's own when that is 1), each
 * building its own System over the shared read-only workload. Every
 * simulation is bracketed by opt.lease's acquire()/release() when a
 * lease is given. Results are indexed by run, never by completion
 * time, so they are bit-identical for any thread count. opt.csv is
 * ignored. A non-null @p times receives the host times the call
 * measured. Config or deadlock errors inside a run terminate the
 * process, exactly as a serial run would.
 *
 * @return false iff cancelled through opt.control (or the pool
 *         closed) before every indexed run finished; @p stats and
 *         @p times are unspecified then.
 */
bool simulateRuns(const Experiment &exp,
                  const std::vector<std::size_t> &indices,
                  const ExperimentRunOptions &opt,
                  std::vector<SimStats> &stats,
                  SimulateTimes *times = nullptr);

/**
 * Runs every expanded run of @p exp and writes the report (single
 * run) or CSV header + rows (sweep) to @p os.
 *
 * @return false iff the experiment was cancelled through
 *         opt.control before completing — nothing is written to
 *         @p os in that case.
 */
bool runExperiment(const Experiment &exp, std::ostream &os,
                   const ExperimentRunOptions &opt = {});

/**
 * Runs only the runs of @p exp named by @p indices and returns the
 * output bytes per run: rows[i] holds exactly what run indices[i]
 * contributes to the full experiment's output — one CSV row normally,
 * or the whole report for a single-run report experiment
 * (exp.runs.size() == 1 and !opt.csv). experimentOutput() over every
 * run's row in run order is therefore byte-identical to
 * runExperiment() on the whole experiment — the splice the job
 * server assembles results with (docs/job_server.md).
 *
 * @return false iff cancelled through opt.control (or the pool
 *         closed) before every indexed run finished; @p rows is
 *         unspecified then.
 */
bool runExperimentRuns(const Experiment &exp,
                       const std::vector<std::size_t> &indices,
                       const ExperimentRunOptions &opt,
                       std::vector<std::string> &rows);

/**
 * The bytes runExperiment() writes for @p exp, given every run's row
 * from runExperimentRuns() in run order: a single-run report (one
 * run, !csv) is its row alone, anything else is csvHeader(exp)
 * followed by the rows.
 */
std::string experimentOutput(const Experiment &exp, bool csv,
                             std::vector<std::string> rows);

/**
 * The CSV header runExperiment() writes ahead of @p exp's rows: the
 * TLB column group is present iff some run has the TLB model enabled
 * (experimentUsesTlb), so spliced worker rows line up.
 */
std::string csvHeader(const Experiment &exp);

/** True iff any run of @p exp has cfg.tlb.enable set. */
bool experimentUsesTlb(const Experiment &exp);

} // namespace impsim

#endif // IMPSIM_SIM_EXPERIMENT_RUNNER_HPP
