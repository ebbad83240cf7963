/**
 * @file
 * Fig 13: IMP and partial accessing on in-order vs out-of-order
 * cores (pagerank and sgd, 64 cores), normalised to the out-of-order
 * baseline (grid: examples/configs/fig13.imp.ini).
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

int
main()
{
    Grid grid = Grid::load("fig13.imp.ini");

    banner("Figure 13: in-order vs out-of-order cores (64 cores, "
           "normalised to Base_ooo)",
           "OoO helps but IMP still provides large gains on top "
           "(20%/37% avg for IMP/partial on OoO)");
    header({"Base_io", "Base_ooo", "IMP_io", "IMP_ooo", "Part_io",
            "Part_ooo"});
    for (AppId app : {AppId::Pagerank, AppId::Sgd}) {
        double ref = static_cast<double>(grid.at(app, "Base/64c/ooo").cycles);
        auto thr = [&](const std::string &run) {
            return ref / static_cast<double>(grid.at(app, run).cycles);
        };
        row(appName(app),
            {thr("Base/64c"), thr("Base/64c/ooo"), thr("IMP/64c"),
             thr("IMP/64c/ooo"), thr("Partial-NoC+DRAM/64c"),
             thr("Partial-NoC+DRAM/64c/ooo")});
    }
    return 0;
}
