/**
 * @file
 * Ablation: where in the hierarchy to attach IMP — at the L1 (the
 * paper's setup), at the L2 (training on the L1 miss stream, filling
 * the shared slices), or at both. Runs the graph/sparse workloads at
 * 64 cores with no other prefetching, normalised to the no-prefetch
 * machine, and reports each level's prefetch activity (grid:
 * examples/configs/ablation_attach.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("ablation_attach.imp.ini");

    banner("Ablation: IMP attach level (64 cores, vs no prefetching)",
           "the paper attaches IMP at the L1; its design targets any "
           "level of the hierarchy");
    header({"L1", "L2", "L1+L2", "L2cov", "L2acc"});
    // The indirect-heavy graph/sparse apps (streaming is the control).
    for (AppId app : {AppId::Graph500, AppId::Pagerank, AppId::Spmv,
                      AppId::Symgs, AppId::TriCount}) {
        auto attach = [&](const char *l1, const char *l2) -> const SimStats & {
            return grid.at(app, std::string("NoPref/64c/l1=") + l1 + "/l2=" +
                                 l2);
        };
        double off = static_cast<double>(attach("none", "none").cycles);
        const SimStats &l2only = attach("none", "imp");
        auto speedup = [&](const char *l1, const char *l2) {
            return off / static_cast<double>(attach(l1, l2).cycles);
        };
        row(appName(app),
            {speedup("imp", "none"), speedup("none", "imp"),
             speedup("imp", "imp"), l2only.l2.coverage(),
             l2only.l2.accuracy()});
    }
    return 0;
}
