/**
 * @file
 * Fig 10: instruction overhead of software prefetching at 64 cores,
 * normalised to Baseline (grid: examples/configs/fig10.imp.ini).
 */
#include "harness.hpp"

#include <cstdio>

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig10.imp.ini");

    banner("Figure 10: instruction count normalised to Base (64 cores)",
           "SW prefetching costs ~29% more instructions than IMP on "
           "average (up to 2x)");
    header({"Base", "IMP", "SWPref"});
    std::vector<double> over;
    for (AppId app : paperApps()) {
        double base = static_cast<double>(
            grid.at(app, "Base/64c").core.instructions);
        double imp =
            static_cast<double>(grid.at(app, "IMP/64c").core.instructions);
        double sw = static_cast<double>(
            grid.at(app, "SWPref/64c").core.instructions);
        over.push_back(sw / imp);
        row(appName(app), {1.0, imp / base, sw / base});
    }
    std::printf("SWPref instructions vs IMP: geomean %.2fx\n",
                geomean(over));
    return 0;
}
