/**
 * @file
 * Experiment execution shared by every front end (experiment_runner.hpp).
 */
#include "sim/experiment_runner.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "common/logging.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace impsim {

namespace {

/** @p n, or the hardware thread count (at least 1) when 0. */
unsigned
resolveThreads(unsigned n)
{
    if (n == 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    return n;
}

/** True iff @p exp prints a report, not CSV: one run and no --csv. */
bool
isSingleReport(const Experiment &exp, bool csv)
{
    return exp.runs.size() == 1 && !csv;
}

} // namespace

// ---- WorkerPool ------------------------------------------------------

WorkerPool::WorkerPool(unsigned slots) : slots_(resolveThreads(slots)) {}

WorkerPool::~WorkerPool()
{
    close();
    // Leases outliving their pool would dereference it; that is a
    // caller bug, made loud here instead of a later wild pointer.
    MutexLock lock(mutex_);
    IMPSIM_CHECK(leases_.empty(), "WorkerPool destroyed with open leases");
}

WorkerPool::Lease::~Lease()
{
    MutexLock lock(pool_->mutex_);
    const LeaseState &st = pool_->stateOf(*this);
    IMPSIM_CHECK(st.held == 0 && st.waitTickets.empty(),
                 "WorkerPool lease destroyed while in use");
    pool_->leases_.erase(this);
}

std::unique_ptr<WorkerPool::Lease>
WorkerPool::lease(double weight)
{
    std::unique_ptr<Lease> l(new Lease(*this));
    MutexLock lock(mutex_);
    leases_[l.get()].weight = weight > 0 ? weight : 1.0;
    return l;
}

WorkerPool::LeaseState &
WorkerPool::stateOf(const Lease &l)
{
    auto it = leases_.find(&l);
    IMPSIM_CHECK(it != leases_.end(),
                 "WorkerPool lease unknown to its pool");
    return it->second;
}

void
WorkerPool::close()
{
    {
        MutexLock lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

const WorkerPool::LeaseState *
WorkerPool::grantee() const
{
    // The class comment's rule as one sort key, smallest first.
    auto key = [](const LeaseState &st) {
        return std::make_tuple(st.held / st.weight, -st.weight,
                               st.waitTickets.front());
    };
    const LeaseState *pick = nullptr;
    for (const auto &entry : leases_) {
        const LeaseState &st = entry.second;
        if (!st.waitTickets.empty() && (!pick || key(st) < key(*pick)))
            pick = &st;
    }
    return pick;
}

bool
WorkerPool::Lease::acquire()
{
    MutexLock lock(pool_->mutex_);
    LeaseState &st = pool_->stateOf(*this);
    const std::uint64_t ticket = ++pool_->ticketSeq_;
    st.waitTickets.push_back(ticket);
    while (!pool_->closed_ && (pool_->heldTotal_ >= pool_->slots_ ||
                               pool_->grantee() != &st))
        pool_->cv_.wait(lock);
    st.waitTickets.erase(
        std::find(st.waitTickets.begin(), st.waitTickets.end(), ticket));
    if (pool_->closed_)
        return false;
    ++st.held;
    ++pool_->heldTotal_;
    // A slot may still be free, and this grant changed who gets it:
    // wake the other waiters to re-check.
    pool_->cv_.notify_all();
    return true;
}

void
WorkerPool::Lease::release()
{
    {
        MutexLock lock(pool_->mutex_);
        LeaseState &st = pool_->stateOf(*this);
        IMPSIM_CHECK(st.held > 0, "WorkerPool release without acquire");
        --st.held;
        --pool_->heldTotal_;
    }
    pool_->cv_.notify_all();
}

// ---- Experiments -----------------------------------------------------

WorkloadParams
workloadParams(const ExperimentRun &r)
{
    WorkloadParams params;
    params.numCores = r.cfg.numCores;
    params.swPrefetch = r.swPrefetch;
    params.scale = r.scale;
    params.seed = r.seed;
    params.tracePath = r.tracePath;
    return params;
}

bool
simulateRuns(const Experiment &exp, const std::vector<std::size_t> &indices,
             const ExperimentRunOptions &opt, std::vector<SimStats> &stats,
             SimulateTimes *times)
{
    SweepControl *ctl = opt.control;
    if (ctl && ctl->cancelled())
        return false;

    // One workload per distinct (app, cores, swpf, scale, seed,
    // trace): runs share trace generation, whether the whole grid or
    // a leased slice of it executes here.
    using Key = std::tuple<AppId, std::uint32_t, bool, double,
                           std::uint64_t, std::string>;
    std::map<Key, std::unique_ptr<Workload>> workloads;
    std::vector<const Workload *> runWorkload;
    runWorkload.reserve(indices.size());
    std::chrono::duration<double, std::milli> workloadMs{0};
    for (std::size_t idx : indices) {
        IMPSIM_CHECK(idx < exp.runs.size(),
                     "experiment run index out of range");
        const ExperimentRun &r = exp.runs[idx];
        auto &w = workloads[Key{r.app, r.cfg.numCores, r.swPrefetch,
                                r.scale, r.seed, r.tracePath}];
        if (!w) {
            const auto t0 = std::chrono::steady_clock::now();
            w = std::make_unique<Workload>(
                makeWorkload(r.app, workloadParams(r)));
            workloadMs += std::chrono::steady_clock::now() - t0;
        }
        runWorkload.push_back(w.get());
    }
    if (ctl && ctl->cancelled())
        return false;

    const std::size_t total = indices.size();
    stats.assign(total, SimStats{});
    std::vector<double> runMs(total);
    std::atomic<std::size_t> next{0};
    std::size_t done = 0; // guarded by progressMutex
    Mutex progressMutex;
    auto worker = [&]() {
        for (;;) {
            if (ctl && ctl->cancelled())
                return;
            // The slot comes before the run index: a worker that
            // blocks here has claimed nothing, so the batch stays
            // cancellable between simulations.
            if (opt.lease && !opt.lease->acquire())
                return;
            const std::size_t i = next.fetch_add(1);
            if (i >= total || (ctl && ctl->cancelled())) {
                if (opt.lease)
                    opt.lease->release();
                return;
            }
            const Workload &w = *runWorkload[i];
            System sys(exp.runs[indices[i]].cfg, w.traces, *w.mem);
            const auto t0 = std::chrono::steady_clock::now();
            stats[i] = sys.run();
            runMs[i] = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            if (opt.lease)
                opt.lease->release();
            // Count and notify under one lock so done counts arrive
            // strictly monotone 1..N.
            MutexLock lock(progressMutex);
            ++done;
            if (ctl && ctl->onProgress)
                ctl->onProgress(done, total);
        }
    };
    const std::size_t threads =
        std::min<std::size_t>(resolveThreads(opt.jobs), total);
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    // A batch can come back short because it was cancelled or the
    // pool closed under it (server shutdown); partial results must
    // never pass as success.
    if ((ctl && ctl->cancelled()) || done != total)
        return false;
    if (times) {
        times->workloadMs = workloadMs.count();
        times->runMs = std::move(runMs);
    }
    return true;
}

bool
runExperimentRuns(const Experiment &exp,
                  const std::vector<std::size_t> &indices,
                  const ExperimentRunOptions &opt,
                  std::vector<std::string> &rows)
{
    rows.assign(indices.size(), std::string());
    std::vector<SimStats> stats;
    if (!simulateRuns(exp, indices, opt, stats))
        return false;
    // Row shape is a whole-experiment property, not a per-run one:
    // a worker leasing TLB-off runs out of a mixed sweep must still
    // emit the widened rows the coordinator's header promises.
    const bool report = isSingleReport(exp, opt.csv);
    const bool with_tlb = experimentUsesTlb(exp);
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::string &label = exp.runs[indices[i]].label;
        std::ostringstream os;
        if (report)
            writeReport(os, label, stats[i]);
        else
            writeCsvRow(os, label, stats[i], with_tlb);
        rows[i] = os.str();
    }
    return true;
}

bool
runExperiment(const Experiment &exp, std::ostream &os,
              const ExperimentRunOptions &opt)
{
    std::vector<std::size_t> all(exp.runs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::string> rows;
    if (!runExperimentRuns(exp, all, opt, rows))
        return false;
    os << experimentOutput(exp, opt.csv, std::move(rows));
    return true;
}

std::string
experimentOutput(const Experiment &exp, bool csv,
                 std::vector<std::string> rows)
{
    if (isSingleReport(exp, csv))
        return std::move(rows[0]);
    // Experiment-aware header: the TLB column group must match the
    // widened rows TLB-enabled runs produce (report.hpp).
    std::string out = csvHeader(exp);
    for (const std::string &row : rows)
        out += row;
    return out;
}

std::string
csvHeader(const Experiment &exp)
{
    std::ostringstream os;
    writeCsvHeader(os, experimentUsesTlb(exp));
    return os.str();
}

bool
experimentUsesTlb(const Experiment &exp)
{
    for (const ExperimentRun &r : exp.runs) {
        if (r.cfg.tlb.enable)
            return true;
    }
    return false;
}

} // namespace impsim
