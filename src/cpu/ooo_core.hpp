/**
 * @file
 * Out-of-order core limit model (paper §6.3.1, Fig 13).
 *
 * A ROB-window model in the style of limit studies: instructions
 * dispatch in program order at 1 instruction/cycle; a load issues as
 * soon as (a) its address-producing dependence has completed, (b) the
 * ROB window (32 entries, mimicking Silvermont/Knights Landing) has
 * room, and (c) an LSQ slot is free. Independent loads overlap; the
 * A[B[i]]-on-B[i] dependence chains are honoured via trace dep links.
 *
 * The core's state is O(ROB), not O(trace): at most robEntries entries
 * are ever dispatched but unretired, so completion ticks live in a
 * ring over that window, and the instruction counts the ROB check
 * needs are two running sums. A dependence producer older than the
 * oldest unretired entry needs no tick: it completed no later than
 * the current tick, so it cannot move the issue tick max(ready, now).
 */
#ifndef IMPSIM_CPU_OOO_CORE_HPP
#define IMPSIM_CPU_OOO_CORE_HPP

#include <functional>
#include <vector>

#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "cpu/barrier.hpp"
#include "cpu/core_iface.hpp"
#include "cpu/inorder_core.hpp" // CoreParams
#include "cpu/mem_port.hpp"
#include "cpu/trace.hpp"

namespace impsim {

/** Out-of-order core. */
class OoOCore final : public TraceCore
{
  public:
    OoOCore(const CoreParams &params, EventQueue &eq, MemPort &port,
            Barrier *barrier, const CoreTrace &trace,
            std::function<void()> on_finish);

    /** Schedules the first dispatch at the current tick. */
    void start() override;

    bool done() const override { return done_; }
    const CoreStats &stats() const override { return stats_; }

  private:
    void tryDispatch();
    void issueAt(Tick when);
    void doIssue();
    void onComplete(Tick done);
    void finishIfDrained();

    CoreParams params_;
    EventQueue &eq_;
    MemPort &port_;
    Barrier *barrier_;
    const CoreTrace &trace_;
    std::function<void()> onFinish_;

    std::size_t idx_ = 0;           ///< Next entry to dispatch.
    std::size_t retired_ = 0;       ///< Oldest incomplete entry.
    bool passedBarrier_ = false;
    bool waitingAtBarrier_ = false;
    bool issueScheduled_ = false;
    bool done_ = false;

    /** Fetch clock: tick entry idx_ leaves the front end. */
    Tick fetchClock_ = 0;
    std::uint32_t loadsOutstanding_ = 0;
    std::uint32_t storesOutstanding_ = 0;

    /** Completion tick of each entry in [retired_, idx_), at
     * entry & windowMask_ (kNoTick while in flight). */
    std::vector<Tick> window_;
    std::size_t windowMask_ = 0;
    /** Instructions before entry idx_ and before entry retired_. */
    std::uint64_t instrAtIdx_ = 0;
    std::uint64_t instrAtRetired_ = 0;
    Tick lastCompletion_ = 0;
    CoreStats stats_;
};

} // namespace impsim

#endif // IMPSIM_CPU_OOO_CORE_HPP
