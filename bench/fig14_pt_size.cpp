/**
 * @file
 * Fig 14: sensitivity to Prefetch Table size (8/16/32 entries) at 64
 * cores, normalised to the default of 16 (grid:
 * examples/configs/fig14.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig14.imp.ini");

    banner("Figure 14: PT size sensitivity (64 cores, vs PT=16)",
           "mostly flat; tri_count and lsh benefit from 16 over 8");
    header({"PT=8", "PT=16", "PT=32"});
    for (AppId app : paperApps()) {
        auto cycles = [&](const char *pt) {
            return static_cast<double>(
                grid.at(app, std::string("IMP/64c/pt=") + pt).cycles);
        };
        double ref = cycles("16");
        row(appName(app), {ref / cycles("8"), 1.0, ref / cycles("32")});
    }
    return 0;
}
