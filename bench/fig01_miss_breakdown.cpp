/**
 * @file
 * Fig 1: L1 cache-miss breakdown by access type (indirect / stream /
 * other) on the 64-core baseline (grid: examples/configs/fig01.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig01.imp.ini");

    banner("Figure 1: cache miss breakdown (Base, 64 cores)",
           "indirect accesses cause ~60% of L1 misses on average");
    header({"indirect", "stream", "other"});
    std::vector<double> ind_all;
    for (AppId app : paperApps()) {
        const SimStats &s = grid.at(app, "Base/64c");
        double total = static_cast<double>(s.l1.misses);
        if (total == 0)
            total = 1;
        double ind =
            s.l1.missesByType[static_cast<int>(AccessType::Indirect)] /
            total;
        double str =
            s.l1.missesByType[static_cast<int>(AccessType::Stream)] /
            total;
        double oth =
            s.l1.missesByType[static_cast<int>(AccessType::Other)] /
            total;
        ind_all.push_back(ind);
        row(appName(app), {ind, str, oth});
    }
    double avg = 0;
    for (double v : ind_all)
        avg += v;
    avg /= static_cast<double>(ind_all.size());
    row("avg(indirect)", {avg});
    return 0;
}
