/**
 * @file
 * 2-D mesh network-on-chip with X-Y routing (Table 1).
 *
 * Messages are modeled analytically: a message of F flits crossing a
 * link occupies it for F cycles; the head flit pays the 2-cycle hop
 * latency per hop plus any queueing where a link is still busy, and
 * the tail trails the head by F-1 cycles (wormhole approximation).
 * This keeps the bandwidth bottleneck of the paper (§2.2) while
 * running orders of magnitude faster than flit-level simulation.
 */
#ifndef IMPSIM_NOC_MESH_HPP
#define IMPSIM_NOC_MESH_HPP

#include <cstdint>
#include <vector>

#include "common/bandwidth.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace impsim {

/** 2-D mesh coordinate. */
struct MeshCoord
{
    std::uint32_t x = 0;
    std::uint32_t y = 0;

    bool
    operator==(const MeshCoord &o) const
    {
        return x == o.x && y == o.y;
    }
};

/**
 * The mesh interconnect. Tiles are numbered row-major:
 * tile = y * dim + x.
 */
class MeshNoc
{
  public:
    /**
     * @param dim         mesh edge length (dim*dim tiles)
     * @param hop_cycles  per-hop latency (router + link)
     * @param flit_bytes  flit width in bytes
     * @param header_flits flits of header per message
     */
    MeshNoc(std::uint32_t dim, std::uint32_t hop_cycles,
            std::uint32_t flit_bytes, std::uint32_t header_flits);

    std::uint32_t dim() const { return dim_; }

    /** Coordinate of @p tile. */
    MeshCoord coordOf(CoreId tile) const { return coords_[tile]; }

    /** Tile id at @p c. */
    CoreId tileAt(MeshCoord c) const;

    /** Manhattan hop count between two tiles. */
    std::uint32_t hopCount(CoreId src, CoreId dst) const;

    /** Number of flits for @p payload_bytes of data (plus header). */
    std::uint32_t flitsFor(std::uint32_t payload_bytes) const;

    /**
     * Sends a message and returns the tick its tail arrives at @p dst.
     *
     * Mutates per-link busy-until state (contention) and traffic
     * statistics. src == dst is a tile-local transfer: zero latency,
     * no traffic counted.
     *
     * @param payload_bytes data carried (0 for pure control).
     */
    Tick send(CoreId src, CoreId dst, std::uint32_t payload_bytes,
              Tick when);

    /**
     * Latency-only variant: computes the arrival tick without claiming
     * bandwidth. No configuration uses it; tests take it as the
     * contention-free reference for send().
     */
    Tick sendUncontended(CoreId src, CoreId dst,
                         std::uint32_t payload_bytes, Tick when) const;

    NocStats &stats() { return stats_; }
    const NocStats &stats() const { return stats_; }

  private:
    /** Output directions per router. */
    enum Dir : std::uint32_t { East = 0, West = 1, North = 2, South = 3 };

    /** Link register index for @p tile output in direction @p d. */
    std::size_t linkIndex(CoreId tile, Dir d) const;

    std::uint32_t dim_;
    std::uint32_t hopCycles_;
    std::uint32_t flitBytes_;
    std::uint32_t headerFlits_;
    /** coordOf() by tile: send() needs both ends' coordinates, and a
     *  table load is cheaper than the two divisions per tile. */
    std::vector<MeshCoord> coords_;
    /** 1 flit/cycle of capacity per directed link, one shared ring. */
    BandwidthArray links_;
    NocStats stats_;
};

} // namespace impsim

#endif // IMPSIM_NOC_MESH_HPP
