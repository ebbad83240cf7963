/**
 * @file
 * Prefetcher interfaces.
 *
 * A Prefetcher snoops its L1's access and miss streams (paper Fig 3)
 * and issues prefetches through the PrefetchHost services the cache
 * controller provides. The host also lets a prefetcher read resident
 * data values — the hardware analogue of IMP reading B[i] out of the
 * cache's data array.
 */
#ifndef IMPSIM_CORE_PREFETCHER_HPP
#define IMPSIM_CORE_PREFETCHER_HPP

#include <cstdint>

#include "common/types.hpp"

namespace impsim {

/** Pattern id used when a prefetch has no owning PT entry. */
inline constexpr std::uint16_t kNoPattern = 0xffff;

/**
 * Cache level a prefetcher instance is attached to. Engines see the
 * same PrefetchHost interface at every level; the level only matters
 * for picking level-appropriate knobs (an L2-attached engine trains on
 * the L1 miss stream, so its strides are line-granular).
 */
enum class AttachLevel : std::uint8_t {
    L1, ///< Snoops a core's full demand stream (paper default).
    L2, ///< Snoops a tile's L1-miss stream, fills the shared L2.
};

/** A prefetch the L1 controller should perform. */
struct PrefetchRequest
{
    Addr addr = 0;                      ///< Target byte address.
    std::uint32_t bytes = kLineSize;    ///< Footprint from addr.
    bool exclusive = false;             ///< Fetch in E (write predicted).
    bool indirect = false;              ///< For statistics.
    std::uint16_t patternId = kNoPattern;
};

/** Services the owning L1 controller offers its prefetcher. */
class PrefetchHost
{
  public:
    virtual ~PrefetchHost() = default;

    /** True if the line holding @p addr is resident (any state). */
    virtual bool linePresent(Addr addr) const = 0;

    /**
     * Issues a prefetch.
     * @return true if a fill was started, false if dropped (already
     *         resident, already in flight, or resource-limited).
     */
    virtual bool issuePrefetch(const PrefetchRequest &req) = 0;

    /**
     * Reads a little-endian value of @p bytes (<= 8) at @p addr, as the
     * hardware would from the cache data array. Callers should only
     * read locations that are resident or just filled.
     */
    virtual std::uint64_t readValue(Addr addr, std::uint32_t bytes) const = 0;

    /** Current simulation tick. */
    virtual Tick now() const = 0;
};

/** What a prefetcher observes about one demand access. */
struct AccessInfo
{
    Addr addr = 0;
    std::uint32_t pc = 0;
    std::uint8_t size = 4;
    bool write = false;
    bool l1Hit = false;
};

/** Base class for everything attached to an L1. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Every demand access, after hit/miss is known. */
    virtual void onAccess(const AccessInfo &info) = 0;

    /** Demand misses only (IPD candidate pairing). */
    virtual void onMiss(const AccessInfo &info) { (void)info; }

    /** A prefetch fill completed and the line is now resident. */
    virtual void
    onPrefetchFill(Addr line_addr, std::uint16_t pattern_id)
    {
        (void)line_addr;
        (void)pattern_id;
    }

    /** A line left the cache. */
    virtual void onEvict(Addr line_addr) { (void)line_addr; }
};

} // namespace impsim

#endif // IMPSIM_CORE_PREFETCHER_HPP
