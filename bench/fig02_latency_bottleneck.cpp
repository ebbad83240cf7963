/**
 * @file
 * Fig 2: runtime normalised to Ideal, split into stall cycles from
 * indirect accesses vs everything else, plus the PerfPref bound
 * (grid: examples/configs/fig02.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig02.imp.ini");

    banner("Figure 2: runtime normalised to Ideal (64 cores)",
           "indirect stalls dominate; PerfPref ~1.8x Ideal on average "
           "(bandwidth bound)");
    header({"norm.rt", "indirect", "other", "PerfPref"});
    std::vector<double> pp_all;
    for (AppId app : paperApps()) {
        double ideal =
            static_cast<double>(grid.at(app, "Ideal/64c").cycles);
        const SimStats &base = grid.at(app, "Base/64c");
        double norm = static_cast<double>(base.cycles) / ideal;
        // Split the excess over Ideal by stall attribution.
        double ind_stall = static_cast<double>(
            base.core.stallCycles[static_cast<int>(
                AccessType::Indirect)]);
        double tot_stall = ind_stall;
        for (int t = 0; t < kNumAccessTypes; ++t)
            if (t != static_cast<int>(AccessType::Indirect))
                tot_stall +=
                    static_cast<double>(base.core.stallCycles[t]);
        double excess = norm - 1.0;
        double ind_part =
            tot_stall > 0 ? excess * ind_stall / tot_stall : 0.0;
        double pp =
            static_cast<double>(grid.at(app, "PerfPref/64c").cycles) / ideal;
        pp_all.push_back(pp);
        row(appName(app), {norm, 1.0 + ind_part, norm - 1.0 - ind_part,
                           pp});
    }
    row("avg(PerfPref)", {geomean(pp_all)});
    return 0;
}
