/**
 * @file
 * Synthetic graph generation.
 *
 * RMAT (Graph500-style, a=0.57 b=0.19 c=0.19 d=0.05) produces the
 * power-law degree distributions the paper's graph workloads run on;
 * a uniform generator is provided for tests and comparisons.
 */
#ifndef IMPSIM_WORKLOADS_GRAPH_GEN_HPP
#define IMPSIM_WORKLOADS_GRAPH_GEN_HPP

#include <cstdint>

#include "workloads/csr.hpp"

namespace impsim {

/**
 * RMAT parameters: the probabilities of the four quadrants a level
 * recurses into. Every probability must be non-negative and
 * a + b + c <= 1 (d = 1 - a - b - c); the generator's branch-free
 * quadrant selection relies on a <= a+b <= a+b+c.
 */
struct RmatParams
{
    double a = 0.57, b = 0.19, c = 0.19;
};

/**
 * Generates an RMAT graph in CSR form.
 * @param num_vertices power of two
 * @param num_edges    directed edges (duplicates allowed, as in
 *                     Graph500 input)
 */
Csr makeRmatGraph(std::uint32_t num_vertices, std::uint32_t num_edges,
                  std::uint64_t seed, const RmatParams &p = {});

/** Uniform random graph (Erdos-Renyi style) in CSR form. */
Csr makeUniformGraph(std::uint32_t num_vertices, std::uint32_t num_edges,
                     std::uint64_t seed);

} // namespace impsim

#endif // IMPSIM_WORKLOADS_GRAPH_GEN_HPP
