/**
 * @file
 * Fig 11 (a/b/c): IMP with partial cacheline accessing (NoC-only and
 * NoC+DRAM) vs plain IMP and Ideal, normalised to PerfPref, at 16,
 * 64 and 256 cores (grid: examples/configs/fig11.imp.ini).
 */
#include "harness.hpp"

#include <cstdio>

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig11.imp.ini");

    for (std::uint32_t cores : {16u, 64u, 256u}) {
        banner("Figure 11: partial cacheline accessing (" +
                   std::to_string(cores) + " cores, vs PerfPref)",
               "partial NoC+DRAM adds 9.5%/9.4%/6.9% over IMP at "
               "16/64/256 cores; hurts tri_count/graph500/lsh/symgs "
               "at DRAM");
        header({"IMP", "Part.NoC", "Part.N+D", "Ideal"});
        std::vector<double> gain;
        for (AppId app : paperApps()) {
            double imp = normThroughput(grid, app, "IMP", cores);
            double pn = normThroughput(grid, app, "Partial-NoC", cores);
            double pd = normThroughput(grid, app, "Partial-NoC+DRAM", cores);
            double ideal = normThroughput(grid, app, "Ideal", cores);
            gain.push_back(pd / imp);
            row(appName(app), {imp, pn, pd, ideal});
        }
        std::printf("Partial NoC+DRAM vs IMP: geomean %.3fx\n",
                    geomean(gain));
    }
    return 0;
}
