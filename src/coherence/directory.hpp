/**
 * @file
 * ACKwise-4 limited-pointer directory (paper §5, Table 1).
 *
 * The directory is embedded in each L2 slice and tracks, per resident
 * line, up to `ackwisePointers` sharers precisely. When more cores
 * share a line the entry degrades to broadcast mode: it keeps an exact
 * sharer *count* (so acknowledgements can be counted — the "ACKwise"
 * idea) but forgets identities, and invalidations are broadcast.
 *
 * This class is a pure protocol state machine. It owns no timing; the
 * L2 controller turns the returned actions into NoC messages.
 */
#ifndef IMPSIM_COHERENCE_DIRECTORY_HPP
#define IMPSIM_COHERENCE_DIRECTORY_HPP

#include <cstdint>
#include "common/flat_map.hpp"
#include <vector>

#include "common/types.hpp"

namespace impsim {

/** Sentinel for "no core". */
inline constexpr CoreId kNoCore = ~CoreId{0};

/** Directory sharing states. */
enum class DirState : std::uint8_t {
    Uncached,  ///< No L1 holds the line.
    Shared,    ///< One or more L1s hold it read-only.
    Exclusive, ///< A single L1 holds it in E or M.
};

/**
 * Per-line directory entry. Core ids are stored in 16 bits (the
 * machine tops out at 256 tiles) so the entry packs into 14 bytes:
 * the directory map is probed on every fill and eviction, and its
 * footprint — not its arithmetic — is what shows up in profiles.
 */
struct DirEntry
{
    /** 16-bit "no core" sentinel for the packed fields. */
    static constexpr std::uint16_t kNone = 0xFFFF;

    DirState state = DirState::Uncached;
    bool broadcast = false;        ///< Pointer overflow occurred.
    std::uint16_t sharerCount = 0; ///< Exact count, even in broadcast.
    /** Precise sharer pointers (valid when !broadcast). */
    std::uint16_t pointers[4] = {kNone, kNone, kNone, kNone};
    std::uint16_t owner = kNone;   ///< Valid in Exclusive state.
};

/** What the L2 controller must do to satisfy a request. */
struct DirAction
{
    /** State to grant the requester (S, E-as-exclusive or M). */
    bool grantExclusive = false;
    /** Owner whose copy must be fetched/downgraded first. */
    CoreId downgrade = kNoCore;
    /** Precise cores to invalidate (requester never included). */
    std::vector<CoreId> invalidate;
    /** True: invalidate by broadcast to all cores except requester. */
    bool broadcastInvalidate = false;
};

/**
 * Directory for one L2 slice.
 */
class Directory
{
  public:
    /**
     * @param max_pointers ACKwise pointer budget (4 in the paper)
     * @param num_cores    cores in the machine (broadcast fan-out)
     */
    Directory(std::uint32_t max_pointers, std::uint32_t num_cores);

    /**
     * Read request from @p req. Grants E when the line was uncached
     * (silent-upgrade-friendly, like MESI), else S.
     */
    DirAction onGetS(Addr line, CoreId req);

    /** Write (or upgrade) request from @p req; grants M. */
    DirAction onGetX(Addr line, CoreId req);

    /**
     * L1 eviction notification. Dirty data handling is the caller's
     * job; this only updates sharing state.
     */
    void onEvict(Addr line, CoreId core);

    /** Current entry (read-only inspection; Uncached default). */
    DirEntry peek(Addr line) const;

    /** Number of lines with directory state (for tests). */
    std::size_t trackedLines() const { return entries_.size(); }

  private:
    DirEntry &entry(Addr line);
    void addSharer(DirEntry &e, CoreId core);
    void dropEntryIfIdle(Addr line);

    std::uint32_t maxPointers_;
    std::uint32_t numCores_;
    FlatHashMap<Addr, DirEntry> entries_;
};

} // namespace impsim

#endif // IMPSIM_COHERENCE_DIRECTORY_HPP
