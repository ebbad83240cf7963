/**
 * @file
 * Two-level TLB + radix page-table-walk model (docs/tlb.md).
 *
 * Per-core L1 DTLBs answer in zero cycles; misses arbitrate for the
 * single-ported shared L2 TLB and, on an L2 miss, launch a radix walk
 * whose PTE reads are issued as real memory accesses through the
 * requesting core's L1 (so walk traffic warms and pollutes the cache
 * hierarchy exactly like hardware page-table walkers do). A prefetch
 * whose target page is not resident in the issuing core's DTLB is
 * dropped.
 *
 * Everything here is deterministic: LRU recency is a monotonic use
 * counter and page-table nodes are laid out in first-walk order.
 */
#ifndef IMPSIM_CORE_TLB_HPP
#define IMPSIM_CORE_TLB_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace impsim {

/**
 * Cache-side port the page walker issues PTE reads through — one per
 * core, implemented by that core's L1 controller. A PTE read is real
 * traffic (L1 -> home L2 -> DRAM) but never trains prefetchers or
 * counts as a demand hit/miss.
 */
class TlbWalkPort
{
  public:
    virtual ~TlbWalkPort() = default;

    /** Reads the PTE line holding @p addr; @p done runs once, at
     *  data-ready (MemPort::demandAccess's completion contract). */
    virtual void walkAccess(Addr addr, EventFn done) = 0;
};

/** Set-associative, true-LRU, VPN-tagged TLB array. */
class TlbArray
{
  public:
    /** @p entries must be a multiple of @p ways with a power-of-two
     *  set count (TlbConfig::validate enforces this). */
    TlbArray(std::uint32_t entries, std::uint32_t ways);

    /** Probes for @p vpn, refreshing its recency on a hit. */
    bool lookup(std::uint64_t vpn);

    /** Probe without touching recency (prefetch-side peek). */
    bool present(std::uint64_t vpn) const;

    /** Installs @p vpn, evicting the set's LRU slot if full. */
    void insert(std::uint64_t vpn);

    std::uint32_t entries() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

  private:
    struct Slot
    {
        std::uint64_t vpn = 0;
        std::uint64_t use = 0; ///< Monotonic recency stamp.
        bool valid = false;
    };

    Slot *setBase(std::uint64_t vpn);
    const Slot *setBase(std::uint64_t vpn) const;

    std::vector<Slot> slots_;
    std::uint32_t ways_;
    std::uint64_t setMask_;
    std::uint64_t useClock_ = 0;
};

/**
 * Radix page table over the simulated 48-bit space: 512-entry (4 KiB)
 * nodes, 9 VPN bits per level, as many levels as kAddrBits needs for
 * the configured page size (4 for 4 KiB pages, 3 for 2 MiB).
 *
 * Nodes are materialised lazily in first-walk order from a bump
 * pointer high in the address space (above anything VirtAlloc hands
 * out), so PTE addresses are deterministic for a given access stream.
 */
class PageTable
{
  public:
    /** First byte of the page-table region (1 TiB below top of VA). */
    static constexpr Addr kNodeBase = (Addr{1} << kAddrBits) -
                                      (Addr{1} << 40);

    PageTable(std::uint32_t page_bits, std::uint32_t levels);

    /**
     * PTE addresses a walk of @p vaddr reads, root level first
     * (always exactly `levels` of them). Appends to @p out.
     */
    void walkPath(Addr vaddr, std::vector<Addr> &out);

    std::uint32_t levels() const { return levels_; }
    std::uint64_t nodesAllocated() const { return nodeCount_; }

    /** Total resident page-table bytes (4 KiB per node). */
    std::uint64_t footprintBytes() const { return nodeCount_ * 4096; }

  private:
    Addr nodeAddr(std::uint32_t level, std::uint64_t prefix);

    std::uint32_t pageBits_;
    std::uint32_t levels_;
    /** (level, VPN prefix) -> node base address. */
    FlatHashMap<std::uint64_t, Addr> nodes_;
    Addr nextNode_ = kNodeBase;
    std::uint64_t nodeCount_ = 0;
};

/**
 * The machine's MMU: per-core L1 DTLBs, one shared single-ported L2
 * TLB, and the page-table walker. Owned by MemHierarchy; only built
 * when tlb.enable is set (and neither magic nor perfect memory is on),
 * so a null Mmu* means translation is free.
 */
class Mmu
{
  public:
    Mmu(const SystemConfig &cfg, EventQueue &eq);

    /** Wires the per-core walk ports (must cover every core). */
    void connectWalkPorts(std::vector<TlbWalkPort *> ports);

    /**
     * Demand-side DTLB probe for core @p c. A hit costs nothing (the
     * lookup overlaps the L1 access, as on real pipelines); counted.
     */
    bool dtlbLookup(CoreId c, Addr vaddr);

    /**
     * Demand-side miss path: arbitrates for the L2 TLB and walks on an
     * L2 miss, issuing PTE reads through core @p c's walk port.
     * Coalesces with a walk already in flight for the page. Installs
     * the translation (L2 TLB + the waiting cores' DTLBs) and runs
     * @p done exactly once, at the ready tick.
     */
    void translateMiss(CoreId c, Addr vaddr, EventFn done);

    /**
     * Whether a prefetch from core @p c may issue to @p vaddr: true iff
     * its page is in the core's DTLB (docs/tlb.md). Peeks without
     * refreshing recency and never walks; counts pfSamePage or
     * pfCrossDropped.
     */
    bool prefetchPageResident(CoreId c, Addr vaddr);

    std::uint64_t vpnOf(Addr vaddr) const { return vaddr >> pageBits_; }

    TlbStats &stats() { return stats_; }
    const TlbStats &stats() const { return stats_; }

  private:
    struct Waiter
    {
        CoreId core;
        Tick enqueued; ///< For stall accounting.
        EventFn done;
    };

    struct Walk
    {
        Tick started = 0;
        std::uint32_t next = 0; ///< Index of the next PTE to read.
        std::vector<Addr> path;
        CoreId port = 0; ///< L1 the PTE reads are issued through.
        std::vector<Waiter> waiters;
    };

    /** Claims the single L2-TLB port; returns the data-ready tick. */
    Tick l2PortAccess();

    /** Next PTE read of @p vpn's walk, or its end, at now(). */
    void issueNextPte(std::uint64_t vpn);
    void finishWalk(std::uint64_t vpn);

    const TlbConfig &tcfg_;
    EventQueue &eq_;
    std::uint32_t pageBits_;
    std::vector<TlbArray> dtlb_; ///< One per core.
    TlbArray stlb_;              ///< Shared second level.
    PageTable pt_;
    std::vector<TlbWalkPort *> ports_;
    FlatHashMap<std::uint64_t, Walk> walks_; ///< In flight, by VPN.
    Tick l2NextFree_ = 0;                    ///< Port occupancy.
    TlbStats stats_;
};

} // namespace impsim

#endif // IMPSIM_CORE_TLB_HPP
