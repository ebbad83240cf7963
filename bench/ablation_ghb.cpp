/**
 * @file
 * §5.4 ablation: a Global History Buffer correlation prefetcher on
 * top of the stream prefetcher provides no benefit on these
 * workloads and wastes traffic, while IMP does not (grid:
 * examples/configs/ablation_ghb.imp.ini).
 */
#include "harness.hpp"

#include <cstdio>

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("ablation_ghb.imp.ini");

    banner("Ablation (§5.4): GHB correlation prefetching vs IMP "
           "(64 cores)",
           "GHB cannot capture first-visit indirect patterns and adds "
           "useless traffic");
    header({"GHB.spdup", "IMP.spdup", "GHB.noc", "GHB.dram"});
    std::vector<double> ghb_gain, imp_gain;
    for (AppId app : paperApps()) {
        const SimStats &base = grid.at(app, "Base/64c");
        const SimStats &ghb = grid.at(app, "GHB/64c");
        const SimStats &imp = grid.at(app, "IMP/64c");
        double g = static_cast<double>(base.cycles) /
                   static_cast<double>(ghb.cycles);
        double i = static_cast<double>(base.cycles) /
                   static_cast<double>(imp.cycles);
        ghb_gain.push_back(g);
        imp_gain.push_back(i);
        row(appName(app),
            {g, i,
             static_cast<double>(ghb.noc.bytes) /
                 static_cast<double>(base.noc.bytes),
             static_cast<double>(ghb.dram.bytes()) /
                 static_cast<double>(base.dram.bytes())});
    }
    std::printf("geomean speedup: GHB %.3fx vs IMP %.3fx\n",
                geomean(ghb_gain), geomean(imp_gain));
    return 0;
}
