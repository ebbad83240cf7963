/**
 * @file
 * The core-side memory interface.
 *
 * Cores issue demand accesses and software prefetches through this
 * port; the sim module's L1 controller implements it.
 */
#ifndef IMPSIM_CPU_MEM_PORT_HPP
#define IMPSIM_CPU_MEM_PORT_HPP

#include "common/access_type.hpp"
#include "common/event_queue.hpp"
#include "common/types.hpp"

namespace impsim {

struct MemAccess;

/** Abstract L1 port as seen by a core. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Issues a demand access at the current simulation tick.
     * @p done runs exactly once, at the tick the data is available,
     * so the queue's now() inside it is the completion tick. On an L1
     * hit the port schedules @p done itself as the completion event:
     * a core's capture (24 bytes at most) goes straight into an
     * event cell.
     */
    virtual void demandAccess(const MemAccess &access, EventFn done) = 0;

    /**
     * Issues a non-binding software prefetch (never blocks, no
     * completion callback).
     */
    virtual void softwarePrefetch(Addr addr, std::uint32_t pc) = 0;
};

} // namespace impsim

#endif // IMPSIM_CPU_MEM_PORT_HPP
