/**
 * @file
 * Fig 15: sensitivity to IPD size (2/4/8 entries) at 64 cores,
 * normalised to the default of 4 (grid: examples/configs/fig15.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig15.imp.ini");

    banner("Figure 15: IPD size sensitivity (64 cores, vs IPD=4)",
           "flat except symgs (frequent redetections): 4 beats 2 by "
           "~3.5%");
    header({"IPD=2", "IPD=4", "IPD=8"});
    for (AppId app : paperApps()) {
        auto cycles = [&](const char *ipd) {
            return static_cast<double>(
                grid.at(app, std::string("IMP/64c/ipd=") + ipd).cycles);
        };
        double ref = cycles("4");
        row(appName(app), {ref / cycles("2"), 1.0, ref / cycles("8")});
    }
    return 0;
}
