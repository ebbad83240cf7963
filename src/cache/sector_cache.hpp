/**
 * @file
 * Sectored set-associative cache model (paper §4.1, Fig 7).
 *
 * Every line carries a valid bit per sector; a conventional cache is
 * the special case of one sector per line. The model tracks tags,
 * coherence state, per-sector valid/dirty masks and LRU order; data
 * contents live in FuncMem.
 */
#ifndef IMPSIM_CACHE_SECTOR_CACHE_HPP
#define IMPSIM_CACHE_SECTOR_CACHE_HPP

#include <cstdint>
#include <vector>

#include "common/intmath.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace impsim {

/** MESI-style line state (directory uses the same encoding). */
enum class CState : std::uint8_t {
    I = 0, ///< Invalid.
    S = 1, ///< Shared, clean.
    E = 2, ///< Exclusive, clean.
    M = 3, ///< Modified.
};

/** One cache tag entry. Field order packs it into 32 bytes — tag
 *  arrays are walked on every access, and two entries per cache line
 *  beats the naive 40-byte layout's 1.6. */
struct CacheLine
{
    Addr lineAddr = kNoAddr;     ///< Line-aligned address (tag);
                                 ///< kNoAddr whenever invalid.
    std::uint64_t lastUse = 0;   ///< LRU timestamp.
    std::uint32_t validMask = 0; ///< Per-sector valid bits.
    std::uint32_t dirtyMask = 0; ///< Per-sector dirty bits.
    CState state = CState::I;
    bool prefetched = false;     ///< Brought in by a prefetch...
    bool touched = false;        ///< ...and since hit by a demand access.

    bool valid() const { return state != CState::I; }
};

/**
 * Computes the sector mask covering [addr, addr+size) within its line.
 * @param sector_bytes sector size (a power of two dividing the line
 *        size, so the sector index is a shift, not a division).
 */
inline std::uint32_t
sectorMask(Addr addr, std::uint32_t size, std::uint32_t sector_bytes)
{
    IMPSIM_CHECK(size > 0 && size <= kLineSize, "bad access size");
    std::uint32_t off = lineOffset(addr);
    std::uint32_t shift = floorLog2(sector_bytes);
    std::uint32_t first = off >> shift;
    std::uint32_t last = (off + size - 1) >> shift;
    IMPSIM_CHECK(last < 32, "sector index overflow");
    // A run of (last - first + 1) ones starting at bit `first`.
    return ((2u << (last - first)) - 1u) << first;
}

/**
 * sectorMask() with @p size first clipped to the end of addr's line
 * (no split accesses) — the request-mask idiom both cache controllers
 * use.
 */
inline std::uint32_t
sectorMaskClipped(Addr addr, std::uint32_t size,
                  std::uint32_t sector_bytes)
{
    std::uint32_t off = lineOffset(addr);
    if (off + size > kLineSize)
        size = kLineSize - off;
    return sectorMask(addr, size, sector_bytes);
}

/** Mask with the low @p n bits set (n = sectors per line). */
constexpr std::uint32_t
fullMask(std::uint32_t n)
{
    return n >= 32 ? ~0u : ((1u << n) - 1);
}

/**
 * Set-associative sectored cache with true-LRU replacement.
 *
 * The cache is a passive structure: controllers decide when to fill,
 * evict and write back; this class only answers lookups and picks
 * victims.
 */
class SectorCache
{
  public:
    /**
     * @param size_bytes     total capacity
     * @param ways           associativity
     * @param sector_bytes   sector granularity (== line size when the
     *                       cache is not sectored)
     */
    SectorCache(std::uint32_t size_bytes, std::uint32_t ways,
                std::uint32_t sector_bytes = kLineSize);

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t sectorBytes() const { return sectorBytes_; }
    std::uint32_t sectorsPerLine() const { return sectorsPerLine_; }

    /** Full valid mask for this cache's sector count. */
    std::uint32_t allSectors() const { return fullMask(sectorsPerLine_); }

    /** Set index for @p line_addr. */
    std::uint32_t
    setOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(lineOf(line_addr)) &
               (numSets_ - 1);
    }

    /**
     * Finds the line holding @p line_addr. Inline: this is the single
     * most-called function in a simulation (every demand access,
     * prefetch probe and coherence action starts with a tag lookup).
     * It compares tags only: an invalid frame's tag is kNoAddr (from
     * construction and from invalidate()), which no line-aligned
     * address equals, so no valid() test is needed.
     * @return mutable pointer, or nullptr on tag miss. Does not update
     *         LRU state; call touch() on a real access.
     */
    CacheLine *
    find(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        CacheLine *base = &frames_[std::size_t{setOf(line_addr)} * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].lineAddr == line_addr)
                return &base[w];
        }
        return nullptr;
    }
    const CacheLine *
    find(Addr line_addr) const
    {
        return const_cast<SectorCache *>(this)->find(line_addr);
    }

    /** Marks @p line most recently used. */
    void touch(CacheLine &line) { line.lastUse = ++useClock_; }

    /**
     * Chooses a victim frame in the set of @p line_addr: an invalid
     * frame if one exists, else the LRU line. Never returns nullptr.
     */
    CacheLine *victim(Addr line_addr);

    /**
     * Installs @p line_addr into @p frame (caller must have handled the
     * previous occupant). Initialises state/masks and LRU position.
     */
    void fill(CacheLine &frame, Addr line_addr, CState state,
              std::uint32_t valid_mask, bool prefetched);

    /** Invalidates a line (keeps LRU slot reusable). */
    void invalidate(CacheLine &line);

    /** Number of valid lines currently resident (for tests). */
    std::uint32_t residentLines() const;

    /** Iterates all valid lines (test/inspection helper). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &l : frames_) {
            if (l.valid())
                fn(l);
        }
    }

  private:
    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint32_t sectorBytes_;
    std::uint32_t sectorsPerLine_;
    std::uint64_t useClock_ = 0;
    std::vector<CacheLine> frames_; ///< numSets_ * ways_, set-major.
};

} // namespace impsim

#endif // IMPSIM_CACHE_SECTOR_CACHE_HPP
