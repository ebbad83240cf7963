/**
 * @file
 * Mesh NoC implementation.
 */
#include "noc/mesh.hpp"

#include "common/intmath.hpp"
#include "common/logging.hpp"

namespace impsim {

MeshNoc::MeshNoc(std::uint32_t dim, std::uint32_t hop_cycles,
                 std::uint32_t flit_bytes, std::uint32_t header_flits)
    : dim_(dim), hopCycles_(hop_cycles), flitBytes_(flit_bytes),
      headerFlits_(header_flits),
      links_(std::size_t{dim} * dim * 4, 1.0 /* flit per cycle */)
{
    IMPSIM_CHECK(dim_ > 0, "mesh dimension must be positive");
    coords_.reserve(std::size_t{dim_} * dim_);
    for (std::uint32_t y = 0; y < dim_; ++y)
        for (std::uint32_t x = 0; x < dim_; ++x)
            coords_.push_back(MeshCoord{x, y});
}

CoreId
MeshNoc::tileAt(MeshCoord c) const
{
    return c.y * dim_ + c.x;
}

std::uint32_t
MeshNoc::hopCount(CoreId src, CoreId dst) const
{
    MeshCoord a = coordOf(src), b = coordOf(dst);
    auto d = [](std::uint32_t x, std::uint32_t y) {
        return x > y ? x - y : y - x;
    };
    return d(a.x, b.x) + d(a.y, b.y);
}

std::uint32_t
MeshNoc::flitsFor(std::uint32_t payload_bytes) const
{
    return headerFlits_ +
           static_cast<std::uint32_t>(ceilDiv(payload_bytes, flitBytes_));
}

std::size_t
MeshNoc::linkIndex(CoreId tile, Dir d) const
{
    return std::size_t{tile} * 4 + d;
}

Tick
MeshNoc::send(CoreId src, CoreId dst, std::uint32_t payload_bytes,
              Tick when)
{
    if (src == dst)
        return when;

    std::uint32_t flits = flitsFor(payload_bytes);

    // Walk the X-Y route (deterministic, deadlock-free on a mesh) and
    // claim each link as it is crossed — one fused pass, no route
    // materialisation. This is the hottest function in whole-system
    // runs: every L1<->L2 and L2<->MC message lands here.
    MeshCoord cur = coordOf(src);
    MeshCoord end = coordOf(dst);
    CoreId tile = src; // Tracked incrementally: ±1 / ±dim per hop.
    Tick head = when;
    Tick queued = 0;
    std::uint32_t hops = 0;
    auto hop = [&](Dir d) {
        BwGrant g = links_.claim(linkIndex(tile, d), head, flits);
        queued += g.queueDelay;
        head = g.start + hopCycles_; // Head flit advances one hop.
        ++hops;
    };
    while (cur.x != end.x) {
        bool east = cur.x < end.x;
        hop(east ? East : West);
        cur.x += east ? 1 : -1;
        tile += east ? 1 : -1;
    }
    while (cur.y != end.y) {
        bool south = cur.y < end.y;
        hop(south ? South : North);
        cur.y += south ? 1 : -1;
        tile += south ? dim_ : -static_cast<std::int32_t>(dim_);
    }
    Tick tail = head + (flits - 1);

    stats_.queueCycles += queued;
    stats_.messages += 1;
    stats_.flits += flits;
    stats_.flitHops += std::uint64_t{flits} * hops;
    stats_.bytes += std::uint64_t{flits} * flitBytes_;
    return tail;
}

Tick
MeshNoc::sendUncontended(CoreId src, CoreId dst,
                         std::uint32_t payload_bytes, Tick when) const
{
    if (src == dst)
        return when;
    std::uint32_t flits = flitsFor(payload_bytes);
    std::uint32_t hops = hopCount(src, dst);
    return when + Tick{hops} * hopCycles_ + (flits - 1);
}

} // namespace impsim
