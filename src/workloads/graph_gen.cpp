/**
 * @file
 * Graph generators.
 */
#include "workloads/graph_gen.hpp"

#include <algorithm>

#include "common/intmath.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace impsim {

namespace {

Csr
edgesToCsr(std::uint32_t num_vertices,
           std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
{
    Csr g;
    g.numRows = num_vertices;
    g.numCols = num_vertices;
    g.rowPtr.assign(std::size_t{num_vertices} + 1, 0);
    for (const auto &[src, dst] : edges) {
        (void)dst;
        ++g.rowPtr[src + 1];
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        g.rowPtr[v + 1] += g.rowPtr[v];
    g.col.resize(edges.size());
    std::vector<std::uint32_t> cursor(g.rowPtr.begin(),
                                      g.rowPtr.end() - 1);
    for (const auto &[src, dst] : edges)
        g.col[cursor[src]++] = dst;
    g.sortRows();
    return g;
}

} // namespace

Csr
makeRmatGraph(std::uint32_t num_vertices, std::uint32_t num_edges,
              std::uint64_t seed, const RmatParams &p)
{
    IMPSIM_CHECK(isPow2(num_vertices), "RMAT needs power-of-two vertices");
    Rng rng(seed);
    int levels = floorLog2(num_vertices);
    // Quadrant thresholds a <= ab <= abc (RmatParams' precondition).
    // A draw picks quadrant 0..3 = (src bit, dst bit) = 00, 01, 10,
    // 11: src is set past ab, and dst flips at each threshold passed,
    // so both bits are compares instead of an unpredictable branch.
    const double ab = p.a + p.b;
    const double abc = ab + p.c;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(num_edges);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (int l = 0; l < levels; ++l) {
            double r = rng.uniform();
            std::uint32_t sbit = r >= ab;
            std::uint32_t dbit = (r >= p.a) ^ sbit ^ (r >= abc);
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        edges.emplace_back(src, dst);
    }
    return edgesToCsr(num_vertices, edges);
}

Csr
makeUniformGraph(std::uint32_t num_vertices, std::uint32_t num_edges,
                 std::uint64_t seed)
{
    IMPSIM_CHECK(num_vertices > 0, "graph needs vertices");
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(num_edges);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
        edges.emplace_back(
            static_cast<std::uint32_t>(rng.below(num_vertices)),
            static_cast<std::uint32_t>(rng.below(num_vertices)));
    }
    return edgesToCsr(num_vertices, edges);
}

} // namespace impsim
