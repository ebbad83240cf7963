/**
 * @file
 * Server-side job bookkeeping: one submitted experiment, and a
 * bounded queue of them with priority ordering, round-robin client
 * fairness, and per-client active-job quotas.
 */
#ifndef IMPSIM_SERVER_JOB_QUEUE_HPP
#define IMPSIM_SERVER_JOB_QUEUE_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/config_file.hpp"
#include "common/thread_annotations.hpp"
#include "server/protocol.hpp"
#include "sim/experiment_runner.hpp"

namespace impsim {
namespace server {

/** Submit priorities ride the wire as integers in this range. */
inline constexpr int kMinPriority = 1;
inline constexpr int kMaxPriority = 100;

/**
 * One accepted SUBMIT: the experiment was already parsed and bound
 * (so a queued job cannot fail validation later), and runs through
 * the scheduler exactly once. State only moves forward:
 * Queued -> Running -> {Done, Cancelled}, or Queued -> Cancelled.
 */
struct ServerJob
{
    enum class State { Queued, Running, Done, Cancelled };

    std::uint64_t id = 0;
    /** Identifies the submitting connection (fairness + delivery). */
    std::uint64_t clientId = 0;
    /** Bound experiment; cleared after the run to bound memory. */
    Experiment exp;
    /**
     * Verbatim SUBMIT config text, kept so the distributed fabric can
     * re-ship the job to remote workers in LEASE frames; workers
     * re-bind it themselves with the same binder, so run indices
     * agree (docs/job_server.md). Cleared with `exp` after the run.
     */
    std::string configText;
    /**
     * The parsed request line: origin (diagnostics, LIST), csv (the
     * CLI's --csv) and the overrides LEASE frames re-send.
     */
    SubmitRequest submit;
    /**
     * Scheduling priority (the SUBMIT `priority=` token): pops ahead
     * of lower-priority queued jobs and weights the pool partition
     * while running.
     */
    int priority = kMinPriority;

    std::atomic<State> state{State::Queued};
    /** Expanded runs finished so far / in total (STATUS). */
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    /** Cancellation + progress hooks wired into the sweep. */
    SweepControl control;

    const char *
    stateName() const
    {
        switch (state.load()) {
          case State::Queued: return "queued";
          case State::Running: return "running";
          case State::Done: return "done";
          case State::Cancelled: return "cancelled";
        }
        return "?";
    }
};

/**
 * Bounded multi-producer multi-consumer queue feeding the server's
 * runner threads. Ordering: strictly by priority (higher first);
 * within a priority, one FIFO per client drained round-robin, so a
 * client queueing N jobs cannot starve another's first job behind
 * all N. Capacity bounds the total *queued* (not yet popped) jobs —
 * the server's backpressure: push() refuses instead of growing
 * without bound.
 *
 * The queue also enforces the per-client active-job quota: pop()
 * skips clients that already have `quota` popped-but-unfinished
 * jobs; finished() returns a slot and wakes blocked pop()s. Quota 0
 * means unlimited. Once closed, pop() drains the backlog ignoring
 * quotas (the drain only cancels), then returns nullptr.
 *
 * Starvation guard: strict priority order means a steady stream of
 * high-priority submissions could park a low-priority job forever.
 * Each time a pop serves a higher level while a lower level holds
 * jobs, the passed-over level ages; after kAgingPops such pops its
 * oldest next-in-rotation job is promoted one priority level
 * (repeatedly, so any queued job eventually climbs to the top and
 * runs).
 */
class FairJobQueue
{
  public:
    /** Passed-over pops that promote a level's next job one level. */
    static constexpr std::uint64_t kAgingPops = 16;

    explicit FairJobQueue(std::size_t capacity,
                          std::size_t perClientQuota = 0)
        : capacity_(capacity), quota_(perClientQuota)
    {
    }

    /** Enqueues @p job. @return false if the queue is full or closed. */
    bool push(std::shared_ptr<ServerJob> job) IMPSIM_EXCLUDES(mutex_);

    /**
     * Blocks for the next job eligible under the quota, highest
     * priority first, round-robin across clients within a priority.
     * The popped job counts against its client's quota until
     * finished(). @return nullptr once the queue is closed and
     * drained.
     */
    std::shared_ptr<ServerJob> pop() IMPSIM_EXCLUDES(mutex_);

    /** Returns a popped job's quota slot and wakes blocked pop()s. */
    void finished(std::uint64_t clientId) IMPSIM_EXCLUDES(mutex_);

    /**
     * Removes a still-queued job (CANCEL before it ran).
     * @return the job, or nullptr if @p id was not queued here.
     */
    std::shared_ptr<ServerJob> remove(std::uint64_t id)
        IMPSIM_EXCLUDES(mutex_);

    /** Wakes pop(); further push()es are refused. */
    void close() IMPSIM_EXCLUDES(mutex_);

    std::size_t size() const IMPSIM_EXCLUDES(mutex_);
    std::size_t capacity() const { return capacity_; }
    std::size_t quota() const { return quota_; }

  private:
    /** One priority level: per-client FIFOs + rotation order. */
    struct Bucket
    {
        std::map<std::uint64_t, std::deque<std::shared_ptr<ServerJob>>>
            perClient;
        std::deque<std::uint64_t> rotation;
        /** Pops that served a higher level while this one waited. */
        std::uint64_t skipped = 0;
    };

    /** Pops the best eligible job, or nullptr. */
    std::shared_ptr<ServerJob> popEligibleLocked()
        IMPSIM_REQUIRES(mutex_);

    /**
     * Ages every non-empty level below @p servedPriority after a pop,
     * promoting starved jobs one level.
     */
    void agePassedOverLocked(int servedPriority) IMPSIM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    CondVar cv_;
    /** Fixed at construction, so lock-free readers stay honest. */
    const std::size_t capacity_;
    const std::size_t quota_;
    std::size_t count_ IMPSIM_GUARDED_BY(mutex_) = 0;
    bool closed_ IMPSIM_GUARDED_BY(mutex_) = false;
    /** Priority buckets, highest priority first. */
    std::map<int, Bucket, std::greater<int>> buckets_
        IMPSIM_GUARDED_BY(mutex_);
    /** Popped-but-unfinished jobs per client (quota accounting). */
    std::map<std::uint64_t, std::size_t> active_
        IMPSIM_GUARDED_BY(mutex_);
};

} // namespace server
} // namespace impsim

#endif // IMPSIM_SERVER_JOB_QUEUE_HPP
