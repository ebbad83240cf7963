/**
 * @file
 * In-order core implementation.
 */
#include "cpu/inorder_core.hpp"

#include "common/logging.hpp"

namespace impsim {

InOrderCore::InOrderCore(const CoreParams &params, EventQueue &eq,
                         MemPort &port, Barrier *barrier,
                         const CoreTrace &trace,
                         std::function<void()> on_finish)
    : params_(params), eq_(eq), port_(port), barrier_(barrier),
      trace_(trace), onFinish_(std::move(on_finish))
{}

void
InOrderCore::start()
{
    eq_.scheduleAfter(0, [this] { advance(); });
}

void
InOrderCore::advance()
{
    if (idx_ >= trace_.accesses.size()) {
        if (storesOutstanding_ > 0)
            return; // Last store completion will re-enter advance().
        if (done_)
            return;
        done_ = true;
        stats_.instructions += trace_.tailInstructions;
        stats_.finishTick = eq_.now() + trace_.tailInstructions;
        if (onFinish_)
            onFinish_();
        return;
    }

    prefetchRecord(trace_, idx_);
    const MemAccess &a = trace_.accesses[idx_];

    if (a.hasBarrier() && !passedBarrier_) {
        if (waitingAtBarrier_)
            return; // A store completion re-entered advance().
        IMPSIM_CHECK(barrier_, "trace has barriers but none provided");
        waitingAtBarrier_ = true;
        barrier_->arrive([this] {
            waitingAtBarrier_ = false;
            passedBarrier_ = true;
            advance();
        });
        return;
    }

    if (a.gap > 0) {
        eq_.scheduleAfter(a.gap, [this] { issue(); });
    } else {
        issue();
    }
}

void
InOrderCore::issue()
{
    const MemAccess &a = trace_.accesses[idx_];

    if (a.isSwPrefetch()) {
        stats_.instructions += std::uint64_t{a.gap} + 1;
        stats_.swPrefetches += 1;
        port_.softwarePrefetch(a.addr, a.pc);
        completeEntry();
        eq_.scheduleAfter(1, [this] { advance(); });
        return;
    }

    if (a.isWrite()) {
        if (storesOutstanding_ >= params_.storeBufferEntries) {
            // Stall until a buffer slot frees; the completion callback
            // below re-runs issue() for this entry.
            waitingStoreSlot_ = true;
            return;
        }
        stats_.instructions += std::uint64_t{a.gap} + 1;
        stats_.memAccesses += 1;
        stats_.stores += 1;
        ++storesOutstanding_;
        port_.demandAccess(a, [this] {
            --storesOutstanding_;
            if (waitingStoreSlot_) {
                waitingStoreSlot_ = false;
                issue();
            } else if (idx_ >= trace_.accesses.size()) {
                advance(); // Possibly the last thing in flight.
            }
        });
        completeEntry();
        eq_.scheduleAfter(1, [this] { advance(); });
        return;
    }

    // Blocking load.
    stats_.instructions += std::uint64_t{a.gap} + 1;
    stats_.memAccesses += 1;
    stats_.loads += 1;
    Tick issued = eq_.now();
    AccessType type = a.type;
    port_.demandAccess(a, [this, issued, type] {
        Tick latency = eq_.now() - issued;
        stats_.loadLatencySum += latency;
        stats_.loadLatencyCount += 1;
        if (latency > params_.l1HitCycles) {
            stats_.stallCycles[static_cast<int>(type)] +=
                latency - params_.l1HitCycles;
        }
        completeEntry();
        advance();
    });
}

void
InOrderCore::completeEntry()
{
    ++idx_;
    passedBarrier_ = false;
}

} // namespace impsim
