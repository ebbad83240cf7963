/**
 * @file
 * Fig 12: NoC and DRAM traffic of partial cacheline accessing
 * normalised to full cacheline accessing (64 cores; grid:
 * examples/configs/fig12.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig12.imp.ini");

    banner("Figure 12: traffic with partial accessing, normalised to "
           "full lines (64 cores)",
           "average NoC -16.7%, DRAM -7.5%; pagerank largest "
           "(-39%/-28%)");
    header({"noc", "dram"});
    std::vector<double> noc_all, dram_all;
    for (AppId app : paperApps()) {
        const SimStats &full = grid.at(app, "IMP/64c");
        const SimStats &part = grid.at(app, "Partial-NoC+DRAM/64c");
        double n = static_cast<double>(part.noc.bytes) /
                   static_cast<double>(full.noc.bytes);
        double d = static_cast<double>(part.dram.bytes()) /
                   static_cast<double>(full.dram.bytes());
        noc_all.push_back(n);
        dram_all.push_back(d);
        row(appName(app), {n, d});
    }
    row("geomean", {geomean(noc_all), geomean(dram_all)});
    return 0;
}
