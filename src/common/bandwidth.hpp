/**
 * @file
 * Order-robust bandwidth accounting.
 *
 * Transactions in this simulator compose their end-to-end timing at
 * launch, so a shared resource (NoC link, DRAM channel) sees claims
 * at non-monotonic timestamps. A plain busy-until register would
 * falsely serialise an early-time claim behind a far-future one; this
 * bucketed model instead tracks capacity per fixed-size time window,
 * so claims only contend with traffic in their own windows.
 */
#ifndef IMPSIM_COMMON_BANDWIDTH_HPP
#define IMPSIM_COMMON_BANDWIDTH_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace impsim {

/** Result of a bandwidth claim. */
struct BwGrant
{
    Tick start = 0;      ///< First unit granted at this tick.
    Tick finish = 0;     ///< Last unit granted at this tick.
    Tick queueDelay = 0; ///< start - requested time.
};

/**
 * An array of identical shared resources, each with fixed capacity
 * per cycle, backed by one contiguous ring of time windows.
 *
 * Time is split into buckets of `bucket_cycles`; each bucket holds
 * capacity_per_cycle * bucket_cycles units. A claim takes units from
 * the earliest buckets with spare capacity at or after its requested
 * tick. Buckets are kept in a ring indexed by absolute bucket number,
 * so far-future and past claims never collide (stale slots reset on
 * reuse).
 *
 * The array form exists for the NoC: a mesh has hundreds of directed
 * links claimed in per-hop succession, and one shared backing store
 * with shared parameters is far denser in cache than a vector of
 * independent objects.
 *
 * Layout: time-major. Ring position p of every resource is one
 * contiguous row, slot (p, res) at `p * count + res`, so the few
 * windows near the current tick — the only ones most claims touch —
 * are a few adjacent cache lines for the whole mesh. One 4 KiB ring
 * per resource would put every link's live window at the same L1 set
 * index, where 64 links evict each other. Each resource owns `slots`
 * windows either way: the layout decides where a window lives, never
 * a grant.
 */
class BandwidthArray
{
  public:
    /**
     * @param count           number of resources
     * @param units_per_cycle capacity (flits/cycle, bytes/cycle, ...)
     * @param bucket_cycles   window size; contention is resolved at
     *                        this granularity. Power of two: the
     *                        claim path runs per NoC hop, and
     *                        shift/mask there is measurably cheaper
     *                        than div/mod.
     * @param slots           ring size per resource (power of two);
     *                        horizon = slots*bucket_cycles, the
     *                        farthest a claim searches ahead
     */
    BandwidthArray(std::size_t count, double units_per_cycle,
                   std::uint32_t bucket_cycles = 32,
                   std::uint32_t slots = 512)
        : bucketShift_(ctz(bucket_cycles)), slotMask_(slots - 1),
          slots_(slots), count_(count),
          capacityPerBucket_(static_cast<std::uint64_t>(
              units_per_cycle * bucket_cycles)),
          ring_(count * slots, Slot{~std::uint32_t{0}, 0})
    {
        IMPSIM_CHECK((bucket_cycles & (bucket_cycles - 1)) == 0 &&
                         bucket_cycles != 0,
                     "bucket_cycles must be a power of two");
        IMPSIM_CHECK((slots & (slots - 1)) == 0 && slots != 0,
                     "slots must be a power of two");
        if (capacityPerBucket_ == 0)
            capacityPerBucket_ = 1;
        IMPSIM_CHECK(capacityPerBucket_ <= ~std::uint32_t{0},
                     "per-window capacity exceeds the 32-bit counter");
    }

    /**
     * Claims @p units on resource @p res starting no earlier than
     * @p t.
     */
    BwGrant
    claim(std::size_t res, Tick t, std::uint64_t units)
    {
        // Fast path: the request's own window has room for the whole
        // claim (the overwhelmingly common case on a non-saturated
        // link) — one slot probe, no search loop.
        std::uint64_t bucket = t >> bucketShift_;
        Slot &s = slot(res, bucket);
        if (s.bucket != static_cast<std::uint32_t>(bucket)) {
            s.bucket = static_cast<std::uint32_t>(bucket);
            s.used = 0;
        }
        if (s.used + units <= capacityPerBucket_) {
            s.used += static_cast<std::uint32_t>(units);
            return BwGrant{t, t, 0};
        }
        return claimSlow(res, t, units);
    }

    /** Window size in cycles (diagnostics). */
    std::uint64_t bucketCycles() const
    {
        return std::uint64_t{1} << bucketShift_;
    }

  private:
    /**
     * One ring window: absolute bucket number (truncated — a stale
     * slot can only masquerade as current after 2^32 buckets, i.e.
     * over 10^11 simulated cycles, far past any supported run) plus
     * units consumed. 8 bytes so a cache line covers 8 windows; the
     * claim path is the NoC's per-hop inner loop and is bound by
     * these loads.
     */
    struct Slot
    {
        std::uint32_t bucket;
        std::uint32_t used;
    };

    /** Resource @p res's ring slot for absolute bucket @p bucket. */
    Slot &
    slot(std::size_t res, std::uint64_t bucket)
    {
        return ring_[(bucket & slotMask_) * count_ + res];
    }

    BwGrant
    claimSlow(std::size_t res, Tick t, std::uint64_t units)
    {
        BwGrant g;
        std::uint64_t remaining = units;
        std::uint64_t bucket = t >> bucketShift_;
        bool first = true;
        // The search stays within one lap of the ring: window
        // bucket + slots_ would land on this claim's own first slot
        // and erase its record. A saturated resource's remainder is
        // forced through at the lap's last window instead (results
        // are already dominated by queueing and remain deterministic).
        const std::uint64_t limit = bucket + slots_ - 1;
        while (remaining > 0) {
            Slot &s = slot(res, bucket);
            if (s.bucket != static_cast<std::uint32_t>(bucket)) {
                s.bucket = static_cast<std::uint32_t>(bucket);
                s.used = 0;
            }
            std::uint64_t spare = capacityPerBucket_ > s.used
                                      ? capacityPerBucket_ - s.used
                                      : 0;
            if (spare == 0 && bucket < limit) {
                ++bucket;
                continue;
            }
            std::uint64_t take =
                bucket >= limit ? remaining : std::min(spare, remaining);
            s.used += static_cast<std::uint32_t>(take);
            remaining -= take;
            Tick bucket_start = bucket << bucketShift_;
            if (first) {
                g.start = std::max<Tick>(t, bucket_start);
                first = false;
            }
            g.finish = std::max<Tick>(g.start, bucket_start);
            if (remaining > 0)
                ++bucket;
        }
        g.queueDelay = g.start > t ? g.start - t : 0;
        return g;
    }

    static std::uint32_t
    ctz(std::uint32_t v)
    {
        return v == 0 ? 0 : __builtin_ctz(v);
    }

    std::uint32_t bucketShift_;
    std::uint32_t slotMask_;
    std::uint32_t slots_;
    std::size_t count_;
    std::uint64_t capacityPerBucket_;
    std::vector<Slot> ring_;
};

/**
 * One shared resource with fixed capacity per cycle — the
 * single-resource view of BandwidthArray (DRAM channels, tests).
 */
class BucketedBandwidth
{
  public:
    explicit BucketedBandwidth(double units_per_cycle,
                               std::uint32_t bucket_cycles = 32,
                               std::uint32_t slots = 512)
        : array_(1, units_per_cycle, bucket_cycles, slots)
    {}

    /** Claims @p units starting no earlier than @p t. */
    BwGrant
    claim(Tick t, std::uint64_t units)
    {
        return array_.claim(0, t, units);
    }

    /** Window size in cycles (diagnostics). */
    std::uint64_t bucketCycles() const { return array_.bucketCycles(); }

  private:
    BandwidthArray array_;
};

} // namespace impsim

#endif // IMPSIM_COMMON_BANDWIDTH_HPP
