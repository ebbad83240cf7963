/**
 * @file
 * Triangle counting kernel (paper §5.3): per source vertex, the local
 * neighborhood is marked in a per-core bit vector, then neighbors'
 * neighbor lists are intersected against it. Bit-vector accesses are
 * the Coeff = 1/8 (shift -3) pattern of Table 2.
 */
#include "workloads/apps/app_common.hpp"
#include "workloads/graph_gen.hpp"

namespace impsim {

Workload
makeTriCount(const WorkloadParams &p)
{
    const std::uint32_t vertices =
        pow2Floor(scaled(1u << 18, p.scale, 4096));
    const std::uint32_t edges = vertices * 4;
    const std::uint32_t sources = scaled(1536, p.scale, 64);
    Csr g = makeRmatGraph(vertices, edges, p.seed);

    TraceBuilder tb(p.numCores);
    Addr row_ptr = tb.putArray("row_ptr", g.rowPtr);
    Addr col = tb.putArray("col_idx", g.col);
    // One V-bit vector per core (thread-private in the real code).
    std::vector<Addr> bitvec(p.numCores);
    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        bitvec[c] = tb.allocArray("bitvec" + std::to_string(c),
                                  vertices / 8);
    }

    enum : std::uint32_t {
        kPcRowPtrU = 0x5300,
        kPcColU,
        kPcBitSet,
        kPcRowPtrV,
        kPcColV,
        kPcBitTest,
        kPcBitClear,
        kPcColPf,
        kPcPf,
    };

    // Spread sources over the graph deterministically.
    auto sourceVertex = [vertices](std::uint32_t s) {
        return static_cast<std::uint32_t>((std::uint64_t{s} * 2654435761u) %
                                          vertices);
    };
    // Accesses the loop below emits for source u, counted from the
    // degrees alone so each core's trace is allocated once: 1 + 4 per
    // neighbour v of u (mark and clear), plus 1 + 2 per neighbour of
    // v (intersect), plus 2 per software prefetch, which fires at each
    // even k with k + distance < ve.
    auto accessesFor = [&g, &p](std::uint32_t u) {
        std::uint32_t ub = g.rowPtr[u], ue = g.rowPtr[u + 1];
        std::uint64_t n = 1 + 4ull * (ue - ub);
        for (std::uint32_t j = ub; j < ue; ++j) {
            std::uint32_t v = g.col[j];
            std::uint32_t vb = g.rowPtr[v], ve = g.rowPtr[v + 1];
            n += 1 + 2ull * (ve - vb);
            if (p.swPrefetch && ve - vb > kSwPrefetchDistance) {
                // Even k in [vb, ve - distance).
                std::uint32_t hi = ve - kSwPrefetchDistance;
                n += 2ull * ((hi + 1) / 2 - (vb + 1) / 2);
            }
        }
        return n;
    };

    for (std::uint32_t c = 0; c < p.numCores; ++c) {
        Range r = coreSlice(sources, p.numCores, c);
        std::uint64_t core_accesses = 0;
        for (std::uint32_t s = r.begin; s < r.end; ++s)
            core_accesses += accessesFor(sourceVertex(s));
        tb.reserve(c, core_accesses);
        for (std::uint32_t s = r.begin; s < r.end; ++s) {
            std::uint32_t u = sourceVertex(s);
            std::uint32_t ub = g.rowPtr[u], ue = g.rowPtr[u + 1];
            tb.load(c, kPcRowPtrU, row_ptr + (u + 1) * 4ull, 4,
                    AccessType::Other, 4);

            // Mark N(u) in the bit vector (indirect writes).
            for (std::uint32_t j = ub; j < ue; ++j) {
                std::size_t cp = tb.load(c, kPcColU, col + j * 4ull, 4,
                                         AccessType::Stream, 1);
                std::size_t here = tb.position(c);
                tb.store(c, kPcBitSet, bitvec[c] + (g.col[j] >> 3), 1,
                         AccessType::Indirect, 1,
                         static_cast<std::uint32_t>(here - cp));
            }
            // Intersect each neighbor's list against the bit vector.
            for (std::uint32_t j = ub; j < ue; ++j) {
                std::uint32_t v = g.col[j];
                std::uint32_t vb = g.rowPtr[v], ve = g.rowPtr[v + 1];
                tb.load(c, kPcRowPtrV, row_ptr + (v + 1) * 4ull, 4,
                        AccessType::Other, 2);
                for (std::uint32_t k = vb; k < ve; ++k) {
                    std::size_t cp =
                        tb.load(c, kPcColV, col + k * 4ull, 4,
                                AccessType::Stream, 1);
                    // Unrolled-loop prefetch insertion (Mowry):
                    // amortise over two iterations of the tiny body.
                    if (p.swPrefetch && k % 2 == 0 &&
                        k + kSwPrefetchDistance < ve) {
                        std::uint32_t kd = k + kSwPrefetchDistance;
                        tb.load(c, kPcColPf, col + kd * 4ull, 4,
                                AccessType::Stream, 1);
                        tb.swPrefetch(c, kPcPf,
                                      bitvec[c] + (g.col[kd] >> 3), 1);
                    }
                    std::size_t here = tb.position(c);
                    tb.load(c, kPcBitTest,
                            bitvec[c] + (g.col[k] >> 3), 1,
                            AccessType::Indirect, 2,
                            static_cast<std::uint32_t>(here - cp));
                }
            }
            // Clear the marks (indirect writes again).
            for (std::uint32_t j = ub; j < ue; ++j) {
                std::size_t cp = tb.load(c, kPcColU, col + j * 4ull, 4,
                                         AccessType::Stream, 1);
                std::size_t here = tb.position(c);
                tb.store(c, kPcBitClear, bitvec[c] + (g.col[j] >> 3), 1,
                         AccessType::Indirect, 1,
                         static_cast<std::uint32_t>(here - cp));
            }
        }
        tb.tail(c, 16);
    }

    Workload w;
    w.name = "tri_count";
    w.traces = tb.take();
    w.mem = tb.memPtr();
    return w;
}

} // namespace impsim
