/**
 * @file
 * Fig 16: sensitivity to the maximum indirect prefetch distance
 * (4/8/16/32) at 64 cores, normalised to the default of 16 (grid:
 * examples/configs/fig16.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig16.imp.ini");

    banner("Figure 16: max prefetch distance sensitivity (64 cores, "
           "vs dist=16)",
           "long-stream apps (pagerank/graph500/spmv) like larger "
           "distances; short-loop apps (tri_count) can lose");
    header({"d=4", "d=8", "d=16", "d=32"});
    for (AppId app : paperApps()) {
        auto cycles = [&](const char *d) {
            return static_cast<double>(
                grid.at(app, std::string("IMP/64c/distance=") + d).cycles);
        };
        double ref = cycles("16");
        row(appName(app), {ref / cycles("4"), ref / cycles("8"), 1.0,
                           ref / cycles("32")});
    }
    return 0;
}
