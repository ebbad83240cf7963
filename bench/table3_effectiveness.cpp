/**
 * @file
 * Table 3: prefetch coverage, accuracy and normalised memory latency
 * for the streaming prefetcher alone vs streaming + IMP (64 cores;
 * grid: examples/configs/table3.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("table3.imp.ini");

    banner("Table 3: prefetcher effectiveness (64 cores)",
           "stream alone: cov 0.28 / acc 0.79 / lat 3.64; "
           "stream+IMP: cov 0.85 / acc 0.85 / lat 2.15 (averages)");
    header({"cov.str", "acc.str", "lat.str", "cov.imp", "acc.imp",
            "lat.imp"});
    std::vector<double> cs, as, ls, ci, ai, li;
    for (AppId app : paperApps()) {
        const SimStats &base = grid.at(app, "Base/64c");
        const SimStats &imp = grid.at(app, "IMP/64c");
        const SimStats &pp = grid.at(app, "PerfPref/64c");
        double lat_ref = pp.avgLoadLatency();
        double lat_b = base.avgLoadLatency() / lat_ref;
        double lat_i = imp.avgLoadLatency() / lat_ref;
        cs.push_back(base.l1.coverage());
        as.push_back(base.l1.accuracy());
        ls.push_back(lat_b);
        ci.push_back(imp.l1.coverage());
        ai.push_back(imp.l1.accuracy());
        li.push_back(lat_i);
        row(appName(app), {base.l1.coverage(), base.l1.accuracy(),
                           lat_b, imp.l1.coverage(), imp.l1.accuracy(),
                           lat_i});
    }
    auto avg = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    row("average", {avg(cs), avg(as), avg(ls), avg(ci), avg(ai),
                    avg(li)});
    return 0;
}
