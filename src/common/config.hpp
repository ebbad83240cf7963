/**
 * @file
 * System and prefetcher configuration (Tables 1 and 2 of the paper).
 */
#ifndef IMPSIM_COMMON_CONFIG_HPP
#define IMPSIM_COMMON_CONFIG_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace impsim {

/** Which core timing model drives each tile (paper §6.3.1). */
enum class CoreModel : std::uint8_t {
    InOrder,    ///< Single-issue, blocking loads (Table 1 default).
    OutOfOrder, ///< 32-entry-ROB limit model (Fig 13).
};

/** Main-memory timing model (paper §5.1). */
enum class DramModelKind : std::uint8_t {
    Simple, ///< Fixed 100 ns latency + 10 GB/s per controller.
    Ddr3,   ///< DRAMSim-style 10-10-10-24 bank timing.
};

/** Where partial (sub-cacheline) accesses are allowed (paper §4). */
enum class PartialMode : std::uint8_t {
    Off,        ///< Full 64 B lines everywhere.
    NocOnly,    ///< Partial L1<->L2 transfers; DRAM moves full lines.
    NocAndDram, ///< Partial transfers end to end (32 B DRAM minimum).
};

/** IMP parameters (Table 2). */
struct ImpConfig
{
    /** Prefetch Table entries. */
    std::uint32_t ptEntries = 16;
    /** Indirect Pattern Detector entries. */
    std::uint32_t ipdEntries = 4;
    /** BaseAddr candidates remembered per shift per IPD entry. */
    std::uint32_t baseAddrSlots = 4;
    /** Candidate shift values; -3 encodes the 1/8 bit-vector Coeff. */
    std::array<std::int8_t, 4> shifts{2, 3, 4, -3};
    /** Max indirect prefetch distance (elements ahead). */
    std::uint32_t maxPrefetchDistance = 16;
    /** Max multi-way indirections per stream. */
    std::uint32_t maxIndirectWays = 2;
    /** Max multi-level indirections per way. */
    std::uint32_t maxIndirectLevels = 2;
    /** Stream hits before stream prefetching starts. */
    std::uint32_t streamThreshold = 2;
    /** Indirect hit_cnt value that arms indirect prefetching. */
    std::uint32_t indirectThreshold = 2;
    /** Saturation value of the indirect confidence counter. */
    std::uint32_t indirectCounterMax = 8;
    /** Initial back-off (index accesses) after a failed detection. */
    std::uint32_t backoffInitial = 4;
    /** Cap for the exponential detection back-off. */
    std::uint32_t backoffMax = 256;
    /** Enable the nested-loop PC resynchronisation (§3.3.1). */
    bool pcResync = true;
    /** Enable multi-way / multi-level detection (§3.3.2). */
    bool secondaryIndirection = true;
};

/** Granularity Predictor parameters (Table 2). */
struct GpConfig
{
    /** Sampled prefetched lines tracked per pattern. */
    std::uint32_t samples = 4;
    /** L1 sector size in bytes. */
    std::uint32_t l1SectorBytes = 8;
    /** L2 sector size in bytes. */
    std::uint32_t l2SectorBytes = 32;
    /** Minimum DRAM burst in bytes (§4.1: one commercial part does 32). */
    std::uint32_t dramMinBytes = 32;
};

/** Stream prefetcher knobs shared by Baseline and IMP's stream table. */
struct StreamConfig
{
    /** Lines fetched ahead of a confirmed stream. */
    std::uint32_t prefetchDegree = 4;
    /** Max absolute element stride accepted as a stream, in bytes. */
    std::uint32_t maxStrideBytes = 8;
};

/** GHB correlation prefetcher knobs (comparison only, §5.4). */
struct GhbConfig
{
    std::uint32_t historyEntries = 256;
    std::uint32_t indexEntries = 64;
    std::uint32_t degree = 2;
};

/** Two-level TLB + page-table-walk model (docs/tlb.md). Default off:
 *  with enable=false nothing translates and output is bit-identical
 *  to a build without the model. */
struct TlbConfig
{
    bool enable = false;
    /** Per-core L1 DTLB geometry (lookup is free on a hit). */
    std::uint32_t l1Entries = 64;
    std::uint32_t l1Ways = 4;
    /** Shared, single-ported L2 TLB geometry and access latency. */
    std::uint32_t l2Entries = 1024;
    std::uint32_t l2Ways = 8;
    std::uint32_t l2LatencyCycles = 9;
    /** Page size: 4096 or 2097152 (2 MiB large pages). */
    std::uint64_t pageBytes = 4096;

    /** log2(pageBytes). */
    std::uint32_t pageBits() const;
    /** Radix levels to map kAddrBits with 512-entry (9-bit) nodes. */
    std::uint32_t walkLevels() const;
};

/**
 * Full machine description, defaulting to Table 1 at 64 cores.
 *
 * The single deliberate deviation from Table 1 is l2CapacityScale: our
 * synthetic inputs are ~32x smaller than the paper's, so the L2 is
 * scaled by the same factor to preserve the working-set:cache ratio
 * (see DESIGN.md §2).
 */
struct SystemConfig
{
    // --- Cores -----------------------------------------------------
    std::uint32_t numCores = 64;
    CoreModel coreModel = CoreModel::InOrder;
    std::uint32_t robEntries = 32;
    std::uint32_t maxOutstandingLoads = 8; ///< OoO model LSQ bound.
    std::uint32_t storeBufferEntries = 8;

    // --- Memory subsystem (Table 1) ---------------------------------
    std::uint32_t l1SizeBytes = 32 * 1024;
    std::uint32_t l1Ways = 4;
    std::uint32_t l1LatencyCycles = 1;
    std::uint32_t l2Ways = 8;
    std::uint32_t l2LatencyCycles = 8;
    /** Table 1: per-tile slice = 2/sqrt(N) MB, scaled (see above). */
    double l2CapacityScale = 1.0 / 32.0;
    std::uint32_t directoryLatencyCycles = 2;
    std::uint32_t ackwisePointers = 4;

    // --- NoC (Table 1) ----------------------------------------------
    std::uint32_t hopCycles = 2;   ///< 1 router + 1 link per hop.
    std::uint32_t flitBytes = 8;   ///< 64-bit flits.
    std::uint32_t headerFlits = 1; ///< Header per message.

    // --- DRAM (Table 1) ---------------------------------------------
    DramModelKind dramModel = DramModelKind::Simple;
    std::uint32_t dramLatencyCycles = 100; ///< 100 ns at 1 GHz.
    double dramBytesPerCycle = 10.0;       ///< 10 GB/s per controller.
    std::uint32_t dramBanksPerRank = 8;
    std::uint32_t dramRowBytes = 2048;
    // DDR3 10-10-10-24 in memory-bus cycles, scaled to core cycles.
    std::uint32_t tCas = 10, tRcd = 10, tRp = 10, tRas = 24;
    /** Static controller/PHY overhead added by the DDR3 model, so its
     *  end-to-end latency matches the simple model's 100 ns. */
    std::uint32_t dramControllerCycles = 60;

    // --- Prefetching -------------------------------------------------
    /**
     * Prefetcher spec for the L1-attached engine on every core ("imp",
     * "stream+ghb", "none", ...). Blank segments are ignored; a
     * whole-blank spec means no engine, like "none".
     */
    std::string prefetcherSpec = "stream";
    /**
     * Per-core overrides for heterogeneous machines: core c uses
     * corePrefetcherSpecs[c] when that entry exists and is non-empty.
     * Shorter vectors leave the remaining cores on prefetcherSpec.
     */
    std::vector<std::string> corePrefetcherSpecs;
    /**
     * Prefetcher spec for the L2-attached engine on every tile. The
     * default "none" leaves the L2 unprefetched (the paper's setup).
     */
    std::string l2PrefetcherSpec = "none";
    /**
     * Per-tile L2 overrides, same fall-through semantics as
     * corePrefetcherSpecs.
     */
    std::vector<std::string> l2SlicePrefetcherSpecs;
    ImpConfig imp;
    StreamConfig stream;
    /**
     * Stream knobs for L2-attached engines. The L2 trains on the L1
     * miss stream, so a sequential scan appears once per line: strides
     * are line-granular, not element-granular.
     */
    StreamConfig l2Stream{4, kLineSize};
    GhbConfig ghb;
    PartialMode partial = PartialMode::Off;
    GpConfig gp;

    // --- Address translation ------------------------------------------
    /** TLB + page-walk model; tlb.enable=false (default) is free. */
    TlbConfig tlb;

    // --- Idealisation -------------------------------------------------
    /** Ideal config: every access hits L1 in l1LatencyCycles. */
    bool magicMemory = false;
    /**
     * PerfPref config (§5.4): every access is prefetched "several
     * thousand cycles" early, so demand latency is hidden up to
     * perfectLeadCycles of memory-system backlog, but the traffic is
     * real — performance is bandwidth-bound only.
     */
    bool perfectMemory = false;
    std::uint32_t perfectLeadCycles = 3000;

    // --- Derived quantities -------------------------------------------
    /** Mesh edge length; numCores must be a perfect square. */
    std::uint32_t meshDim() const;
    /** Number of memory controllers: sqrt(N) (bandwidth ~ sqrt(N)). */
    std::uint32_t numMemControllers() const;
    /** L2 slice capacity per tile in bytes, after scaling. */
    std::uint32_t l2SliceBytes() const;
    /** Sectors per L1 line under the current GP config. */
    std::uint32_t l1Sectors() const { return kLineSize / gp.l1SectorBytes; }
    /** Sectors per L2 line under the current GP config. */
    std::uint32_t l2Sectors() const { return kLineSize / gp.l2SectorBytes; }

    /**
     * L1 prefetcher spec for core @p c: per-core override, else the
     * global spec string.
     */
    std::string effectivePrefetcherSpec(CoreId c) const;

    /**
     * L2 prefetcher spec for tile @p t: per-tile override, else the
     * global L2 spec string.
     */
    std::string effectiveL2PrefetcherSpec(CoreId t) const;

    /** Terminates with a message if the configuration is inconsistent. */
    void validate() const;
};

} // namespace impsim

#endif // IMPSIM_COMMON_CONFIG_HPP
