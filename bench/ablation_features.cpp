/**
 * @file
 * Design-choice ablations for the §3.3 optimisations: nested-loop PC
 * resynchronisation and multi-way/multi-level secondary indirections,
 * plus the IPD back-off. The runs are built in code: each knockout
 * changes one knob of full IMP, and "no back-off" (an initial
 * back-off of 0) is below what a config may set.
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

namespace {

struct Knockout
{
    const char *tag;
    void (*apply)(ImpConfig &imp);
};

const Knockout kKnockouts[] = {
    {"full", [](ImpConfig &) {}},
    {"noresync", [](ImpConfig &imp) { imp.pcResync = false; }},
    {"nosecondary",
     [](ImpConfig &imp) { imp.secondaryIndirection = false; }},
    {"nobackoff", [](ImpConfig &imp) { imp.backoffInitial = 0; }},
};

} // namespace

int
main()
{
    // Apps chosen per feature: nested loops (spmv, symgs), multi-way
    // (pagerank), multi-level (lsh), short loops (tri_count).
    const AppId kApps[] = {AppId::Spmv, AppId::Symgs, AppId::Pagerank,
                           AppId::Lsh, AppId::TriCount};

    Experiment exp;
    for (AppId app : kApps) {
        for (const Knockout &k : kKnockouts) {
            ExperimentRun r = presetRun(app, ConfigPreset::Imp, 64);
            k.apply(r.cfg.imp);
            r.label += std::string("/") + k.tag;
            exp.runs.push_back(std::move(r));
        }
    }
    Grid grid(exp);

    banner("Ablation (§3.3): IMP feature knockouts (64 cores, "
           "throughput vs full IMP)",
           "PC resync matters for nested loops; secondary "
           "indirections for pagerank (multi-way) and lsh "
           "(multi-level)");
    header({"full", "no-resync", "no-second", "no-backoff"});
    for (AppId app : kApps) {
        auto cycles = [&](const char *tag) {
            return static_cast<double>(
                grid.at(app, std::string("IMP/64c/") + tag).cycles);
        };
        double ref = cycles("full");
        row(appName(app), {1.0, ref / cycles("noresync"),
                           ref / cycles("nosecondary"),
                           ref / cycles("nobackoff")});
    }
    return 0;
}
