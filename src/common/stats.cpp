/**
 * @file
 * Statistics aggregation and derived-metric definitions.
 */
#include "common/stats.hpp"

namespace impsim {

namespace {

/** @p scale * @p num / @p den, or 0 when @p den is 0. */
double
ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0)
{
    return den == 0 ? 0.0
                    : scale * static_cast<double>(num) /
                          static_cast<double>(den);
}

} // namespace

double
CacheStats::coverage() const
{
    // Paper §6.1.1: misses captured by prefetches / overall misses.
    // A "captured" miss is a demand access that found its line already
    // prefetched (first touch) or in flight from a prefetch (late).
    std::uint64_t captured = prefUsefulFirstTouch + prefLate;
    return ratio(captured, captured + misses);
}

double
CacheStats::accuracy() const
{
    // Paper §6.1.1: prefetched lines later accessed / total prefetches.
    std::uint64_t used = prefUsefulFirstTouch + prefLate;
    return ratio(used, used + prefUnused);
}

double
TlbStats::l1Mpki(std::uint64_t instructions) const
{
    return ratio(l1Misses, instructions, 1000.0);
}

double
TlbStats::l2Mpki(std::uint64_t instructions) const
{
    return ratio(l2Misses, instructions, 1000.0);
}

double
TlbStats::avgWalkCycles() const
{
    return ratio(walkCycles, walks);
}

double
SimStats::ipc() const
{
    return ratio(core.instructions, cycles);
}

double
SimStats::avgLoadLatency() const
{
    return ratio(core.loadLatencySum, core.loadLatencyCount);
}

std::uint64_t
SimStats::l1MissOpportunities() const
{
    return l1.misses + l1.prefUsefulFirstTouch + l1.prefLate;
}

} // namespace impsim
