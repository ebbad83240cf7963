/**
 * @file
 * IMP's Prefetch Table (paper §3.2.3, Figs 5 and 6).
 *
 * Each entry combines a Stream Table part (pc, last address, stride,
 * hit count — a conventional PC-keyed stream prefetcher) with an
 * Indirect Table part (enable, shift, BaseAddr, last index, confidence
 * counter) plus the linkage fields of Fig 6 for multi-way and
 * multi-level secondary indirections.
 */
#ifndef IMPSIM_CORE_PREFETCH_TABLE_HPP
#define IMPSIM_CORE_PREFETCH_TABLE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace impsim {

class Ipd;

/** Secondary-indirection role of a PT entry (Fig 6). */
enum class IndType : std::uint8_t {
    None = 0,       ///< Indirect part inactive.
    Primary = 1,    ///< Root of an indirection tree.
    SecondWay = 2,  ///< Shares the parent's index value.
    SecondLevel = 3,///< Indexes with the parent's loaded value.
};

/** Sentinel for "no linked entry". */
inline constexpr std::int16_t kNoEntry = -1;

/** One Prefetch Table entry. */
struct PtEntry
{
    // ---- Stream Table part (Fig 5 left) ----
    bool valid = false;
    bool secondary = false;  ///< Dedicated to a secondary indirection:
                             ///< no stream part of its own.
    std::uint32_t pc = 0;
    Addr lastAddr = 0;
    std::int32_t stride = 0; ///< Bytes per element; sign = direction.
    std::uint32_t streamHits = 0;
    Addr nextPrefetchLine = 0; ///< Stream-prefetch frontier.
    std::uint64_t lru = 0;

    // ---- Indirect Table part (Fig 5 right) ----
    bool indEnable = false;
    std::int8_t shift = 0;
    Addr baseAddr = 0;
    std::uint64_t index = 0;   ///< Last observed index value.
    bool indexValid = false;   ///< index awaiting its indirect match.
    Addr indexAddr = 0;        ///< Where the index was read from.
    std::uint32_t indHits = 0; ///< Saturating confidence counter.
    std::uint32_t distance = 1;///< Current prefetch distance (ramps).
    std::uint8_t elemSize = 0; ///< Index element size from the access
                               ///< itself; line-granular hosts (L2
                               ///< attach) cannot derive it from the
                               ///< observed stride.

    // ---- Secondary indirection links (Fig 6) ----
    IndType indType = IndType::None;
    std::int16_t nextWay = kNoEntry;
    std::int16_t nextLevel = kNoEntry;
    std::int16_t prev = kNoEntry;
    std::uint8_t waysUsed = 1;   ///< Indirect ways rooted here.
    std::uint8_t levelsUsed = 1; ///< Indirect levels rooted here.

    // ---- Read/write predictor (§3.2.3) ----
    std::uint8_t writeCtr = 0; ///< 2-bit saturating counter.

    // ---- IPD back-off state (§3.2.2) ----
    std::uint32_t backoff = 0;     ///< Next back-off duration.
    std::uint32_t backoffLeft = 0; ///< Index accesses until retry.

    /** Element size of the index stream in bytes. */
    std::uint32_t
    elemBytes() const
    {
        std::int32_t s = stride < 0 ? -stride : stride;
        return s == 0 ? 4u : static_cast<std::uint32_t>(s > 8 ? 8 : s);
    }
};

/** Result of feeding one access to the stream tables. */
struct StreamObservation
{
    std::int16_t entry = kNoEntry; ///< PT entry for this PC.
    bool streamHit = false;        ///< Followed the established stride.
    bool confirmed = false;        ///< Stream hit count over threshold.
    bool resynced = false;         ///< Nested-loop position update.
};

/**
 * The Prefetch Table: fixed-size, LRU-allocated.
 */
class PrefetchTable
{
  public:
    /**
     * @param ipd the detector whose entries are keyed by this table's
     *            ids (IMP's); every id the table hands out again drops
     *            them, so a detection started for an evicted stream
     *            cannot land on the new one. nullptr: none (the stream
     *            engine).
     */
    PrefetchTable(const ImpConfig &cfg, const StreamConfig &stream_cfg,
                  Ipd *ipd = nullptr);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

    PtEntry &at(std::int16_t id) { return entries_[id]; }
    const PtEntry &at(std::int16_t id) const { return entries_[id]; }

    /**
     * Feeds a demand access to the stream-table halves: finds or
     * allocates the PC's entry, detects stride continuation, applies
     * the §3.3.1 nested-loop resync when the position jumps.
     *
     * Always inlined into its two callers (the IMP and stream
     * engines, on every access they observe): called out of line,
     * GCC assembles the 6-byte result with byte stores and returns it
     * by reloading the same bytes as a 4- and a 2-byte load, which
     * cannot be store-forwarded and stalls each call. Inlined, the
     * fields stay in registers. A plain `inline` is not enough: GCC
     * 12 at -O2 with LTO still emits it out of line.
     */
    StreamObservation observe(std::uint32_t pc, Addr addr);

    /**
     * Allocates an entry for a secondary indirection (evicting the LRU
     * non-secondary, non-enabled candidate). Returns kNoEntry if
     * nothing suitable is free.
     */
    std::int16_t allocSecondary(std::int16_t parent, IndType type);

    /** Releases @p id and unlinks it from its tree. */
    void release(std::int16_t id);

    /** Iterates valid entries. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].valid)
                fn(static_cast<std::int16_t>(i), entries_[i]);
        }
    }

  private:
    std::int16_t findByPc(std::uint32_t pc) const;
    std::int16_t allocate(std::uint32_t pc, Addr addr);
    void clearEntry(PtEntry &e);
    /** Clears frame @p id for a new stream, IPD entries included. */
    PtEntry &reuse(std::int16_t id);

    ImpConfig cfg_;
    StreamConfig streamCfg_;
    std::vector<PtEntry> entries_;
    std::uint64_t lruClock_ = 0;
    /**
     * Direct-mapped pc -> entry hints accelerating findByPc (the CAM
     * probe every observed access performs). Hints may be stale —
     * they are verified against the entry and fall back to the full
     * scan — so eviction needs no bookkeeping. Primary PCs are unique
     * in the table, making the hinted result identical to the scan's.
     */
    mutable std::array<std::int16_t, 256> pcHint_;
    /**
     * The constructor's @p ipd. Not used before the first allocation,
     * so its owner may construct it after this table.
     */
    Ipd *ipd_;
};

[[gnu::always_inline]] inline StreamObservation
PrefetchTable::observe(std::uint32_t pc, Addr addr)
{
    StreamObservation obs;
    std::int16_t id = findByPc(pc);
    if (id == kNoEntry) {
        obs.entry = allocate(pc, addr);
        return obs;
    }

    PtEntry &e = entries_[id];
    e.lru = ++lruClock_;
    obs.entry = id;

    std::int64_t delta = static_cast<std::int64_t>(addr) -
                         static_cast<std::int64_t>(e.lastAddr);
    std::int64_t max_stride = streamCfg_.maxStrideBytes;

    if (delta == 0)
        return obs; // Same element re-read; no state change.

    if (e.stride == 0) {
        // Learning: accept any small nonzero stride.
        if (delta >= -max_stride && delta <= max_stride) {
            e.stride = static_cast<std::int32_t>(delta);
            e.streamHits = 1;
            obs.streamHit = true;
        } else {
            e.lastAddr = addr;
            return obs;
        }
        e.lastAddr = addr;
        obs.confirmed = e.streamHits >= cfg_.streamThreshold;
        return obs;
    }

    if (delta == e.stride) {
        // Cap low enough that a stream-turned-random PC decays out of
        // confirmed state quickly under the resync penalty.
        if (e.streamHits < 64)
            ++e.streamHits;
        e.lastAddr = addr;
        obs.streamHit = true;
        obs.confirmed = e.streamHits >= cfg_.streamThreshold;
        return obs;
    }

    // Discontinuity. §3.3.1: with PC resync the entry keeps its learnt
    // stride and indirect pattern and just moves its position (the
    // next outer-loop iteration); without it, the pattern re-learns
    // from scratch. The hit count decays on every jump so that a PC
    // making *random* accesses (which occasionally luck into a stride
    // match) loses stream status, while genuine nested loops — several
    // stride hits between jumps — stay confirmed.
    if (cfg_.pcResync) {
        e.lastAddr = addr;
        e.streamHits = e.streamHits >= 2 ? e.streamHits - 2 : 0;
        obs.resynced = true;
        obs.confirmed = e.streamHits >= cfg_.streamThreshold;
        if (obs.confirmed)
            e.nextPrefetchLine = lineOf(addr) + 1;
    } else {
        e.lastAddr = addr;
        e.stride = 0;
        e.streamHits = 0;
        e.indEnable = false;
        e.indexValid = false;
        if (e.nextWay != kNoEntry) {
            release(e.nextWay);
            e.nextWay = kNoEntry;
        }
        if (e.nextLevel != kNoEntry) {
            release(e.nextLevel);
            e.nextLevel = kNoEntry;
        }
    }
    return obs;
}

} // namespace impsim

#endif // IMPSIM_CORE_PREFETCH_TABLE_HPP
