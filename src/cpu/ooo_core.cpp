/**
 * @file
 * Out-of-order core implementation.
 */
#include "cpu/ooo_core.hpp"

#include <algorithm>

#include "common/intmath.hpp"
#include "common/logging.hpp"

namespace impsim {

OoOCore::OoOCore(const CoreParams &params, EventQueue &eq, MemPort &port,
                 Barrier *barrier, const CoreTrace &trace,
                 std::function<void()> on_finish)
    : params_(params), eq_(eq), port_(port), barrier_(barrier),
      trace_(trace), onFinish_(std::move(on_finish))
{
    // At most min(robEntries, trace length) entries are unretired at
    // once (each holds at least one ROB slot), so they never alias.
    std::uint64_t span =
        std::min<std::uint64_t>(params_.robEntries,
                                trace_.accesses.size()) + 1;
    window_.assign(std::size_t{1} << ceilLog2(span), kNoTick);
    windowMask_ = window_.size() - 1;
}

void
OoOCore::start()
{
    eq_.scheduleAfter(0, [this] { tryDispatch(); });
}

void
OoOCore::tryDispatch()
{
    if (done_ || issueScheduled_)
        return;
    if (idx_ >= trace_.accesses.size()) {
        finishIfDrained();
        return;
    }

    prefetchRecord(trace_, idx_);
    const MemAccess &a = trace_.accesses[idx_];

    if (a.hasBarrier() && !passedBarrier_) {
        if (waitingAtBarrier_)
            return; // Already registered; don't arrive twice.
        if (retired_ < idx_)
            return; // Drain the window first.
        IMPSIM_CHECK(barrier_, "trace has barriers but none provided");
        waitingAtBarrier_ = true;
        barrier_->arrive([this] {
            waitingAtBarrier_ = false;
            passedBarrier_ = true;
            if (fetchClock_ < eq_.now())
                fetchClock_ = eq_.now();
            tryDispatch();
        });
        return;
    }

    // ROB window: the access's instruction slot must be within
    // robEntries of the oldest unretired instruction. With an empty
    // window (retired_ == idx_) dispatch can always proceed.
    if (retired_ < idx_ &&
        instrAtIdx_ + a.gap - instrAtRetired_ >= params_.robEntries)
        return; // A completion will re-run dispatch.

    // Register dependence: the address producer must have completed.
    // One older than retired_ did, no later than now (file comment).
    Tick ready = fetchClock_ + a.gap + 1;
    if (a.dep != 0) {
        IMPSIM_CHECK(a.dep <= idx_, "dependence precedes the trace");
        std::size_t j = idx_ - a.dep;
        if (j >= retired_) {
            Tick produced = window_[j & windowMask_];
            if (produced == kNoTick)
                return; // Wait for the producer.
            if (produced > ready)
                ready = produced;
        }
    }

    // Structural limits.
    if (!a.isSwPrefetch()) {
        if (a.isWrite()) {
            if (storesOutstanding_ >= params_.storeBufferEntries)
                return;
        } else if (loadsOutstanding_ >= params_.maxOutstandingLoads) {
            return;
        }
    }

    issueAt(ready < eq_.now() ? eq_.now() : ready);
}

void
OoOCore::issueAt(Tick when)
{
    issueScheduled_ = true;
    if (when <= eq_.now()) {
        issueScheduled_ = false;
        doIssue();
    } else {
        eq_.schedule(when, [this] {
            issueScheduled_ = false;
            doIssue();
        });
    }
}

void
OoOCore::doIssue()
{
    std::size_t entry = idx_;
    const MemAccess &a = trace_.accesses[entry];
    Tick now = eq_.now();

    Tick &completion = window_[entry & windowMask_];
    stats_.instructions += std::uint64_t{a.gap} + 1;
    instrAtIdx_ += std::uint64_t{a.gap} + 1;
    fetchClock_ = now;
    ++idx_;
    passedBarrier_ = false;

    if (a.isSwPrefetch()) {
        stats_.swPrefetches += 1;
        port_.softwarePrefetch(a.addr, a.pc);
        completion = now;
        onComplete(now);
        return;
    }

    stats_.memAccesses += 1;
    if (a.isWrite()) {
        stats_.stores += 1;
        ++storesOutstanding_;
        // Stores retire at issue (store buffer); the slot frees when
        // the write completes in the memory system.
        completion = now;
        port_.demandAccess(a, [this] {
            --storesOutstanding_;
            tryDispatch();
        });
        onComplete(now);
        return;
    }

    stats_.loads += 1;
    ++loadsOutstanding_;
    // The slot may hold a retired entry's tick from a lap ago. It is
    // not reused before this load retires, which needs it completed.
    completion = kNoTick;
    port_.demandAccess(a, [this, entry, now] {
        Tick done = eq_.now();
        --loadsOutstanding_;
        stats_.loadLatencySum += done - now;
        stats_.loadLatencyCount += 1;
        window_[entry & windowMask_] = done;
        onComplete(done);
    });
    tryDispatch();
}

void
OoOCore::onComplete(Tick done)
{
    if (done > lastCompletion_)
        lastCompletion_ = done;
    while (retired_ < idx_ && window_[retired_ & windowMask_] != kNoTick) {
        instrAtRetired_ += std::uint64_t{trace_.accesses[retired_].gap} + 1;
        ++retired_;
    }
    tryDispatch();
}

void
OoOCore::finishIfDrained()
{
    if (done_ || retired_ < trace_.accesses.size())
        return;
    done_ = true;
    stats_.instructions += trace_.tailInstructions;
    Tick end = eq_.now();
    if (lastCompletion_ > end)
        end = lastCompletion_;
    stats_.finishTick = end + trace_.tailInstructions;
    if (onFinish_)
        onFinish_();
}

} // namespace impsim
