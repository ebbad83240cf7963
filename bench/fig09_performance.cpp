/**
 * @file
 * Fig 9 (a/b/c): performance of Base / IMP / SWPref normalised to
 * Perfect Prefetching at 16, 64 and 256 cores (grid:
 * examples/configs/fig09.imp.ini).
 */
#include "harness.hpp"

#include <cstdio>

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig09.imp.ini");

    for (std::uint32_t cores : {16u, 64u, 256u}) {
        banner("Figure 9: normalised throughput vs PerfPref (" +
                   std::to_string(cores) + " cores)",
               "IMP: 74%/56%/33% average speedup over Base at "
               "16/64/256 cores");
        header({"PerfPref", "Base", "IMP", "SWPref"});
        std::vector<double> speedups;
        for (AppId app : paperApps()) {
            double base = normThroughput(grid, app, "Base", cores);
            double imp = normThroughput(grid, app, "IMP", cores);
            double sw = normThroughput(grid, app, "SWPref", cores);
            speedups.push_back(imp / base);
            row(appName(app), {1.0, base, imp, sw});
        }
        double g = geomean(speedups);
        std::printf("IMP speedup over Base: geomean %.2fx "
                    "(+%.0f%%)\n",
                    g, (g - 1.0) * 100.0);
    }
    return 0;
}
