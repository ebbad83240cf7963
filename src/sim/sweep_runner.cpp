/**
 * @file
 * SweepRunner implementation: atomic work-stealing over a job list.
 */
#include "sim/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.hpp"
#include "sim/system.hpp"

namespace impsim {

namespace {

unsigned
resolveWorkers(unsigned workers)
{
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    return workers;
}

} // namespace

// ---- WorkerPool ------------------------------------------------------

WorkerPool::WorkerPool(unsigned slots) : slots_(resolveWorkers(slots)) {}

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
    auto it = pool_->leases_.find(this);
    IMPSIM_CHECK(it != pool_->leases_.end(),
                 "WorkerPool lease unknown to its pool");
    IMPSIM_CHECK(it->second.held == 0 && it->second.waitTickets.empty(),
                 "WorkerPool lease destroyed while in use");
    pool_->leases_.erase(it);
    pool_->recompute();
    pool_->cv_.notify_all();
}

std::unique_ptr<WorkerPool::Lease>
WorkerPool::lease(double weight)
{
    std::unique_ptr<Lease> l(new Lease(*this));
    MutexLock lock(mutex_);
    LeaseState st;
    st.weight = weight > 0 ? weight : 1.0;
    st.order = ++leaseSeq_;
    leases_.emplace(l.get(), std::move(st));
    recompute();
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

void
WorkerPool::recompute()
{
    // Only leases with demand — a worker running or blocked — take
    // part; an open but idle lease consumes nothing.
    std::vector<LeaseState *> active;
    double weightSum = 0.0;
    for (auto &entry : leases_) {
        LeaseState &st = entry.second;
        if (st.held > 0 || !st.waitTickets.empty()) {
            active.push_back(&st);
            weightSum += st.weight;
        } else {
            st.target = 0;
        }
    }
    if (active.empty())
        return;

    // Weighted shares, floored, at least 1 while slots remain.
    // Heaviest first, so when leases outnumber slots the min-1
    // guarantee starves the lightest, not the heaviest; equal
    // weights keep lease-creation order, as the old stable_sort did.
    std::sort(active.begin(), active.end(),
              [](const LeaseState *a, const LeaseState *b) {
                  return a->weight != b->weight ? a->weight > b->weight
                                                : a->order < b->order;
              });
    unsigned remaining = slots_;
    for (LeaseState *st : active) {
        auto share = static_cast<unsigned>(
            static_cast<double>(slots_) * (st->weight / weightSum));
        share = std::max(share, 1u);
        share = std::min(share, remaining);
        st->target = share;
        remaining -= share;
    }

    // Leftover slots (rounding, or shares nobody can use) go to the
    // longest-waiting lease first: the one whose oldest blocked
    // acquire() has the smallest ticket.
    for (;;) {
        if (remaining == 0)
            return;
        LeaseState *pick = nullptr;
        for (LeaseState *st : active) {
            if (st->waitTickets.empty())
                continue;
            if (st->target >= st->held + st->waitTickets.size())
                continue; // demand already satisfied
            if (!pick ||
                st->waitTickets.front() < pick->waitTickets.front())
                pick = st;
        }
        if (!pick)
            return;
        ++pick->target;
        --remaining;
    }
}

bool
WorkerPool::canGrant(const LeaseState &st) const
{
    if (heldTotal_ >= slots_)
        return false;
    if (st.held < st.target)
        return true;
    // Borrowing an idle slot beyond the target: only when nobody
    // under-target is waiting, and only for the longest-waiting of
    // the over-target leases.
    for (const auto &entry : leases_) {
        const LeaseState &o = entry.second;
        if (o.waitTickets.empty())
            continue;
        if (o.held < o.target)
            return false;
        if (&o != &st && o.waitTickets.front() < st.waitTickets.front())
            return false;
    }
    return true;
}

bool
WorkerPool::Lease::acquire()
{
    MutexLock lock(pool_->mutex_);
    LeaseState &st = pool_->stateOf(*this);
    const std::uint64_t ticket = ++pool_->ticketSeq_;
    st.waitTickets.push_back(ticket);
    pool_->recompute();
    while (!pool_->closed_ && !pool_->canGrant(st))
        pool_->cv_.wait(lock);
    st.waitTickets.erase(
        std::find(st.waitTickets.begin(), st.waitTickets.end(), ticket));
    if (pool_->closed_) {
        pool_->recompute();
        return false;
    }
    ++st.held;
    ++pool_->heldTotal_;
    // Taking a slot shrinks this lease's unmet demand; leftover
    // redistribution may now favour another lease's waiter, so wake
    // them to re-check.
    pool_->recompute();
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
        pool_->recompute();
    }
    pool_->cv_.notify_all();
}

unsigned
WorkerPool::Lease::held() const
{
    MutexLock lock(pool_->mutex_);
    return pool_->stateOf(*this).held;
}

unsigned
WorkerPool::Lease::target() const
{
    MutexLock lock(pool_->mutex_);
    return pool_->stateOf(*this).target;
}

// ---- Sub-batch splitting ---------------------------------------------

std::vector<std::pair<std::size_t, std::size_t>>
splitSubBatches(std::size_t total, std::size_t chunk)
{
    if (chunk == 0)
        chunk = 1;
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(total / chunk + 1);
    for (std::size_t first = 0; first < total; first += chunk)
        out.emplace_back(first, std::min(chunk, total - first));
    return out;
}

// ---- SweepRunner -----------------------------------------------------

SweepRunner::SweepRunner(unsigned workers)
    : workers_(resolveWorkers(workers))
{
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs, SweepControl *ctl,
                 WorkerPool::Lease *lease) const
{
    for (const SweepJob &job : jobs)
        IMPSIM_CHECK(job.traces != nullptr && job.mem != nullptr,
                     "SweepJob needs traces and a memory image");

    std::vector<SweepResult> results(jobs.size());
    for (SweepResult &r : results)
        r.ran = false;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0; // guarded by progressMutex
    Mutex progressMutex;

    auto worker = [&]() {
        for (;;) {
            if (ctl && ctl->cancelled())
                return;
            // The slot comes before the work item: a worker that
            // blocks here has claimed nothing, so the batch stays
            // cancellable and rebalanceable between simulations.
            if (lease && !lease->acquire())
                return;
            std::size_t i = next.fetch_add(1);
            if (i >= jobs.size() || (ctl && ctl->cancelled())) {
                if (lease)
                    lease->release();
                return;
            }
            const SweepJob &job = jobs[i];
            System sys(job.cfg, *job.traces, *job.mem);
            const auto t0 = std::chrono::steady_clock::now();
            SimStats stats = sys.run(job.limit);
            const std::chrono::duration<double, std::milli> runMs =
                std::chrono::steady_clock::now() - t0;
            results[i] =
                SweepResult{job.name, std::move(stats), true, runMs.count()};
            if (lease)
                lease->release();
            if (ctl && ctl->onProgress) {
                // Count and notify under one lock so done counts
                // arrive strictly monotone 1..N.
                MutexLock lock(progressMutex);
                ctl->onProgress(++done, jobs.size());
            }
        }
    };

    unsigned n = workers_;
    if (n > jobs.size())
        n = static_cast<unsigned>(jobs.size());
    if (n <= 1) {
        worker();
        return results;
    }

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace impsim
