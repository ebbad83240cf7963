/**
 * @file
 * Per-core memory access traces.
 *
 * Workload kernels execute their algorithm and record every memory
 * access a real compiled binary would perform, compressing non-memory
 * instructions into a per-access `gap`. Register dependences that
 * matter for timing (the address of A[B[i]] depends on the load of
 * B[i]) are encoded as back-links for the out-of-order model.
 */
#ifndef IMPSIM_CPU_TRACE_HPP
#define IMPSIM_CPU_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/access_type.hpp"
#include "common/types.hpp"

namespace impsim {

/** MemAccess::flags bits. */
enum AccessFlags : std::uint8_t {
    kFlagWrite = 1,         ///< Store (loads otherwise).
    kFlagSwPrefetch = 2,    ///< Non-binding software prefetch.
    kFlagBarrierBefore = 4, ///< Synchronise before executing this.
};

/** One dynamic memory instruction. */
struct MemAccess
{
    Addr addr = 0;          ///< Virtual byte address.
    std::uint32_t pc = 0;   ///< Static instruction site id.
    std::uint32_t gap = 0;  ///< Non-memory instructions preceding this.
    std::uint32_t dep = 0;  ///< Back-distance to the access producing
                            ///< this address (0 = none).
    std::uint8_t size = 4;  ///< Access size in bytes.
    std::uint8_t flags = 0;
    AccessType type = AccessType::Other;

    bool isWrite() const { return flags & kFlagWrite; }
    bool isSwPrefetch() const { return flags & kFlagSwPrefetch; }
    bool hasBarrier() const { return flags & kFlagBarrierBefore; }
};

/** The full dynamic stream of one core. */
struct CoreTrace
{
    std::vector<MemAccess> accesses;
    /** Non-memory instructions after the last access. */
    std::uint64_t tailInstructions = 0;

    /** Total committed instructions (memory + compressed gaps). */
    std::uint64_t instructionCount() const;

    /** Number of barrier crossings encoded in this trace. */
    std::uint64_t barrierCount() const;
};

/**
 * Starts loading the record 8 past @p idx, if @p trace has one. A
 * core reads its trace front to back, one record per memory
 * instruction, and the test of each record's flags is otherwise the
 * in-order core's hottest load: the trace is far larger than any
 * cache, so a record read on demand waits for memory.
 */
inline void
prefetchRecord(const CoreTrace &trace, std::size_t idx)
{
    constexpr std::size_t kAhead = 8;
    if (idx + kAhead < trace.accesses.size())
        __builtin_prefetch(&trace.accesses[idx + kAhead]);
}

} // namespace impsim

#endif // IMPSIM_CPU_TRACE_HPP
