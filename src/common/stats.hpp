/**
 * @file
 * Simulation statistics.
 *
 * Plain counter structs, aggregated into SimStats at end of run. All
 * derived metrics the paper reports (coverage, accuracy, normalised
 * latency, traffic) are computed here so benches and tests share one
 * definition.
 *
 * Each struct lists its counters in forEachCounter(f), which calls
 * f(name, member pointer, Merge rule) once per field, in field order.
 * merge() and the text report loop over those lists, so a field is
 * named only where it is declared and in its row.
 */
#ifndef IMPSIM_COMMON_STATS_HPP
#define IMPSIM_COMMON_STATS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/access_type.hpp"
#include "common/types.hpp"

namespace impsim {

/** How merge() combines one counter of two structs. */
enum class Merge
{
    Sum, ///< Add; arrays add element by element.
    Max, ///< Keep the larger value; for a bool, true if either is.
};

/** Combines counter @p from into @p into by @p rule. */
template <typename T>
void
mergeCounter(T &into, const T &from, Merge rule)
{
    if constexpr (std::is_same_v<T, bool>) {
        into = into || from;
    } else if constexpr (std::is_integral_v<T>) {
        into = rule == Merge::Sum ? into + from : std::max(into, from);
    } else {
        for (std::size_t i = 0; i < into.size(); ++i)
            mergeCounter(into[i], from[i], rule);
    }
}

/** Merges every counter of @p from into @p into, row by row. */
template <typename S>
void
mergeCounters(S &into, const S &from)
{
    S::forEachCounter([&](const char *, auto member, Merge rule) {
        mergeCounter(into.*member, from.*member, rule);
    });
}

/** Per-core execution counters. */
struct CoreStats
{
    std::uint64_t instructions = 0;   ///< Committed (incl. non-memory).
    std::uint64_t memAccesses = 0;    ///< Loads + stores.
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t swPrefetches = 0;   ///< Software prefetch instructions.
    Tick finishTick = 0;              ///< Cycle the core retired its trace.
    /** Load-stall cycles attributed to the blocking access's label. */
    std::array<std::uint64_t, kNumAccessTypes> stallCycles{};
    /** Sum / count of demand load latencies (cycles). */
    std::uint64_t loadLatencySum = 0;
    std::uint64_t loadLatencyCount = 0;

    template <typename F>
    static void forEachCounter(F &&f)
    {
        using S = CoreStats;
        f("instructions", &S::instructions, Merge::Sum);
        f("memAccesses", &S::memAccesses, Merge::Sum);
        f("loads", &S::loads, Merge::Sum);
        f("stores", &S::stores, Merge::Sum);
        f("swPrefetches", &S::swPrefetches, Merge::Sum);
        f("finishTick", &S::finishTick, Merge::Max);
        f("stallCycles", &S::stallCycles, Merge::Sum);
        f("loadLatencySum", &S::loadLatencySum, Merge::Sum);
        f("loadLatencyCount", &S::loadLatencyCount, Merge::Sum);
    }

    void merge(const CoreStats &o) { mergeCounters(*this, o); }
};

/**
 * Per-L1 cache + prefetcher effectiveness counters.
 *
 * Field order is the access pattern: the counters bumped on *every*
 * demand access (accessesByType, hits, misses, missesByType — 64
 * bytes together) fill the first cache line of the 64-byte-aligned
 * struct, so the common hit path dirties exactly one line. Fill,
 * eviction and prefetch bookkeeping follow in miss-path order.
 */
struct alignas(64) CacheStats
{
    // -- touched every demand access (one cache line) --
    std::array<std::uint64_t, kNumAccessTypes> accessesByType{};
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          ///< True misses (no prefetch help).
    /** Demand misses by ground-truth label (Fig 1). */
    std::array<std::uint64_t, kNumAccessTypes> missesByType{};

    // -- miss/fill path --
    std::uint64_t sectorMisses = 0;    ///< Line present, sector invalid.
    std::uint64_t demandMerges = 0;    ///< Merged into a demand fill.
    std::uint64_t retries = 0;         ///< Replayed after an unusable fill.
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    // Prefetch effectiveness (Table 3).
    std::uint64_t prefIssued = 0;       ///< Prefetch data fills requested.
    std::uint64_t prefIssuedIndirect = 0;
    std::uint64_t prefIssuedStream = 0;
    /** Exclusivity-only upgrade prefetches: no data moved, so they
     *  count neither as issues nor against coverage/accuracy. */
    std::uint64_t prefUpgrades = 0;
    std::uint64_t prefUsefulFirstTouch = 0; ///< Demand hit a prefetched line.
    std::uint64_t prefLate = 0;         ///< Demand merged into inflight pf.
    std::uint64_t prefUnused = 0;       ///< Prefetched line evicted untouched.

    template <typename F>
    static void forEachCounter(F &&f)
    {
        using S = CacheStats;
        f("accessesByType", &S::accessesByType, Merge::Sum);
        f("hits", &S::hits, Merge::Sum);
        f("misses", &S::misses, Merge::Sum);
        f("missesByType", &S::missesByType, Merge::Sum);
        f("sectorMisses", &S::sectorMisses, Merge::Sum);
        f("demandMerges", &S::demandMerges, Merge::Sum);
        f("retries", &S::retries, Merge::Sum);
        f("evictions", &S::evictions, Merge::Sum);
        f("writebacks", &S::writebacks, Merge::Sum);
        f("prefIssued", &S::prefIssued, Merge::Sum);
        f("prefIssuedIndirect", &S::prefIssuedIndirect, Merge::Sum);
        f("prefIssuedStream", &S::prefIssuedStream, Merge::Sum);
        f("prefUpgrades", &S::prefUpgrades, Merge::Sum);
        f("prefUsefulFirstTouch", &S::prefUsefulFirstTouch, Merge::Sum);
        f("prefLate", &S::prefLate, Merge::Sum);
        f("prefUnused", &S::prefUnused, Merge::Sum);
    }

    void merge(const CacheStats &o) { mergeCounters(*this, o); }

    /** Fraction of would-be misses covered by prefetching. */
    double coverage() const;
    /** Fraction of prefetched lines that were demanded before eviction. */
    double accuracy() const;
};

/**
 * TLB + page-walk counters (docs/tlb.md). `enabled` records whether
 * the model ran at all, so reports can omit the section and CSV
 * schemas stay unchanged for TLB-off runs.
 */
struct TlbStats
{
    bool enabled = false;
    // -- demand translation --
    std::uint64_t l1Hits = 0;       ///< Per-core DTLB hits (free).
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;       ///< Shared L2 TLB hits.
    std::uint64_t l2Misses = 0;
    std::uint64_t walks = 0;        ///< Page walks launched.
    std::uint64_t walkJoins = 0;    ///< Misses merged onto a walk in flight.
    std::uint64_t walkAccesses = 0; ///< PTE reads issued into the caches.
    std::uint64_t walkCycles = 0;   ///< Sum of walk start->done latency.
    std::uint64_t stallCycles = 0;  ///< Demand cycles spent waiting.
    // -- page-crossing prefetch outcomes --
    std::uint64_t pfSamePage = 0;     ///< Prefetch page already in DTLB.
    std::uint64_t pfCrossDropped = 0; ///< Page not in DTLB: dropped.

    template <typename F>
    static void forEachCounter(F &&f)
    {
        using S = TlbStats;
        f("enabled", &S::enabled, Merge::Max);
        f("l1Hits", &S::l1Hits, Merge::Sum);
        f("l1Misses", &S::l1Misses, Merge::Sum);
        f("l2Hits", &S::l2Hits, Merge::Sum);
        f("l2Misses", &S::l2Misses, Merge::Sum);
        f("walks", &S::walks, Merge::Sum);
        f("walkJoins", &S::walkJoins, Merge::Sum);
        f("walkAccesses", &S::walkAccesses, Merge::Sum);
        f("walkCycles", &S::walkCycles, Merge::Sum);
        f("stallCycles", &S::stallCycles, Merge::Sum);
        f("pfSamePage", &S::pfSamePage, Merge::Sum);
        f("pfCrossDropped", &S::pfCrossDropped, Merge::Sum);
    }

    void merge(const TlbStats &o) { mergeCounters(*this, o); }

    std::uint64_t lookups() const { return l1Hits + l1Misses; }
    /** Misses per `per` instructions (callers pass committed count). */
    double l1Mpki(std::uint64_t instructions) const;
    double l2Mpki(std::uint64_t instructions) const;
    /** Mean cycles from walk launch to last PTE fill. */
    double avgWalkCycles() const;
};

/** NoC counters. */
struct NocStats
{
    std::uint64_t messages = 0;
    std::uint64_t flits = 0;
    std::uint64_t flitHops = 0;   ///< Sum over messages of flits * hops.
    std::uint64_t bytes = 0;      ///< Payload + header bytes.
    std::uint64_t queueCycles = 0; ///< Total link queueing delay.

    template <typename F>
    static void forEachCounter(F &&f)
    {
        using S = NocStats;
        f("messages", &S::messages, Merge::Sum);
        f("flits", &S::flits, Merge::Sum);
        f("flitHops", &S::flitHops, Merge::Sum);
        f("bytes", &S::bytes, Merge::Sum);
        f("queueCycles", &S::queueCycles, Merge::Sum);
    }

    void merge(const NocStats &o) { mergeCounters(*this, o); }
};

/** DRAM counters. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t queueCycles = 0;

    template <typename F>
    static void forEachCounter(F &&f)
    {
        using S = DramStats;
        f("reads", &S::reads, Merge::Sum);
        f("writes", &S::writes, Merge::Sum);
        f("bytesRead", &S::bytesRead, Merge::Sum);
        f("bytesWritten", &S::bytesWritten, Merge::Sum);
        f("rowHits", &S::rowHits, Merge::Sum);
        f("rowMisses", &S::rowMisses, Merge::Sum);
        f("queueCycles", &S::queueCycles, Merge::Sum);
    }

    void merge(const DramStats &o) { mergeCounters(*this, o); }

    std::uint64_t bytes() const { return bytesRead + bytesWritten; }
};

/** Whole-run snapshot: aggregate plus per-core detail. */
struct SimStats
{
    Tick cycles = 0;          ///< Max finish tick over cores.
    CoreStats core;           ///< Aggregated over cores.
    CacheStats l1;            ///< Aggregated over L1s.
    CacheStats l2;            ///< Aggregated over L2 slices.
    NocStats noc;
    DramStats dram;
    TlbStats tlb;             ///< enabled=false when the model is off.
    std::vector<CoreStats> perCore;

    /** Aggregate instructions / cycle over the whole machine. */
    double ipc() const;
    /** Average demand load latency in cycles. */
    double avgLoadLatency() const;
    /** Total L1 demand misses incl. prefetch-covered ones. */
    std::uint64_t l1MissOpportunities() const;
};

} // namespace impsim

#endif // IMPSIM_COMMON_STATS_HPP
