/**
 * @file
 * Private L1-D controller: the core's MemPort, the prefetcher's host,
 * and the coherence backdoor, in one place.
 *
 * Demand accesses look up the (optionally sectored) L1; misses launch
 * fill transactions whose end-to-end timing is composed through the
 * NoC, the home L2 slice, the directory and DRAM. Prefetches share
 * the same fill path. Completion installs the line, wakes merged
 * demands and notifies the prefetcher.
 */
#ifndef IMPSIM_SIM_L1_CONTROLLER_HPP
#define IMPSIM_SIM_L1_CONTROLLER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/sector_cache.hpp"
#include "common/flat_map.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/func_mem.hpp"
#include "common/stats.hpp"
#include "core/prefetcher.hpp"
#include "core/tlb.hpp"
#include "cpu/mem_port.hpp"
#include "cpu/trace.hpp"
#include "noc/mesh.hpp"
#include "sim/l2_controller.hpp"

namespace impsim {

class GhbPrefetcher;
class ImpPrefetcher;
class StreamPrefetcher;

/** The per-core L1 data cache controller. */
class L1Controller final : public MemPort,
                           public PrefetchHost,
                           public L1Backdoor,
                           public TlbWalkPort
{
  public:
    /** @param mmu translation model, or nullptr for free translation
     *        (the TLB model off, magic or perfect memory). */
    L1Controller(CoreId core, const SystemConfig &cfg, EventQueue &eq,
                 MeshNoc &noc, const FuncMem &mem,
                 std::vector<L2Controller *> l2s, Mmu *mmu = nullptr);

    /** Attaches (or replaces) the prefetcher snooping this cache. */
    void attachPrefetcher(std::unique_ptr<Prefetcher> pf);

    Prefetcher *prefetcher() { return prefetcher_.get(); }
    SectorCache &cache() { return cache_; }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    // ---- MemPort ----
    void demandAccess(const MemAccess &access, EventFn done) override;
    void softwarePrefetch(Addr addr, std::uint32_t pc) override;

    // ---- PrefetchHost ----
    bool linePresent(Addr addr) const override;
    bool issuePrefetch(const PrefetchRequest &req) override;
    std::uint64_t readValue(Addr addr, std::uint32_t bytes) const override;
    Tick now() const override { return eq_.now(); }

    // ---- L1Backdoor ----
    std::uint32_t backInvalidate(Addr line_addr) override;
    std::uint32_t downgrade(Addr line_addr) override;

    // ---- TlbWalkPort ----
    void walkAccess(Addr addr, EventFn done) override;

  private:
    struct Waiter
    {
        MemAccess access;
        EventFn done;
    };

    struct PendingFill
    {
        std::uint32_t mask = 0; ///< L1 sectors being fetched.
        bool exclusive = false;
        bool isPrefetch = false;
        bool indirect = false;
        std::uint16_t patternId = kNoPattern;
        bool invalidated = false;   ///< Back-invalidated in flight.
        bool demandMerged = false;  ///< A demand is waiting on it.
        Tick completion = 0;
        std::vector<Waiter> waiters;
    };

    /**
     * demandAccess body, re-entered by retries and replays: everything
     * counted once per architectural access lives in demandAccess.
     * Takes @p done by reference, like perfectAccess: the core has just
     * written its capture, and copying those bytes this soon stalls on
     * store forwarding. Its one move, into an event cell or a waiter,
     * comes after the lookup.
     * @param notify whether this pass may notify the prefetchers —
     *        false for replays whose first pass already observed the
     *        access (retries pass true: their first pass stayed
     *        silent)
     */
    void demandAccessImpl(const MemAccess &access, EventFn &&done,
                          bool notify = true);

    /** Requested-sector mask for an access, clipped to its line. */
    std::uint32_t maskFor(Addr addr, std::uint32_t size) const;

    /** Home tile of a line (line-interleaved L2 slices). */
    CoreId homeOf(Addr line_addr) const;

    /**
     * Starts a fill transaction.
     * @param origin demand access behind the fill (forwarded to the L2
     *               for L2-level prefetcher training); null for
     *               prefetch fills
     * @return the new pending entry (valid until the next pending_
     *         insertion), or nullptr if a fill is already in flight
     */
    PendingFill *launchFill(Addr line_addr, std::uint32_t mask,
                            bool exclusive, bool is_prefetch,
                            bool indirect, std::uint16_t pattern_id,
                            const MemAccess *origin = nullptr);

    /** The TLB page-crossing gate (cold: only when the MMU is on). */
    bool issuePrefetchGated(const PrefetchRequest &req);
    /** issuePrefetch body, after the TLB page-crossing gate. */
    bool issuePrefetchNow(const PrefetchRequest &req);
    /** DTLB-miss continuation (cold: only when the MMU is on). */
    void demandAccessTlbMiss(const MemAccess &access, EventFn done);

    void completeFill(Addr line_addr);
    void perfectAccess(const MemAccess &access, EventFn &&done);
    void evictFrame(CacheLine &frame);
    void applyWrite(Addr addr, std::uint32_t size);
    void finishDemand(const MemAccess &access, EventFn &done);

    /**
     * The engine's concrete type, resolved once at attach so the
     * per-access notification is a switch with direct calls into the
     * final engine classes instead of a virtual dispatch. Composite
     * ('+'-composed) and unknown engines take the virtual fallback.
     */
    enum class PfKind : std::uint8_t { None, Imp, Stream, Ghb, Other };

    void notifyAccess(const AccessInfo &info);
    void notifyMiss(const AccessInfo &info);

    CoreId core_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    MeshNoc &noc_;
    const FuncMem &mem_;
    std::vector<L2Controller *> l2s_;
    Mmu *mmu_; ///< Null = translation is free.
    SectorCache cache_;
    std::unique_ptr<Prefetcher> prefetcher_;
    PfKind pfKind_ = PfKind::None;
    ImpPrefetcher *pfImp_ = nullptr;
    StreamPrefetcher *pfStream_ = nullptr;
    GhbPrefetcher *pfGhb_ = nullptr;
    FlatHashMap<Addr, PendingFill> pending_;
    std::uint32_t prefetchesInFlight_ = 0;
    CacheStats stats_;
};

} // namespace impsim

#endif // IMPSIM_SIM_L1_CONTROLLER_HPP
