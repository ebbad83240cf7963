/**
 * @file
 * TLB panel (docs/tlb.md): what turning on the virtual-memory model
 * costs IMP, at 64 cores, across page sizes. Columns are absolute IPC
 * and IMP L1 coverage for translation-off, 4 KiB pages and 2 MiB
 * pages; the paper's figures all assume free translation, so "off" is
 * the reference the other columns discount. The runs are built in
 * code: "off" plus two page sizes is not a product of config keys.
 */
#include "harness.hpp"

using namespace impsim;
using namespace impsim::bench;

namespace {

struct Variant
{
    const char *tag;
    /** 0 means translation off. */
    std::uint64_t pageBytes;
};

const Variant kVariants[] = {
    {"tlb-off", 0}, {"tlb-4k", 4096}, {"tlb-2m", std::uint64_t{2} << 20}};

} // namespace

int
main()
{
    Experiment exp;
    for (AppId app : paperApps()) {
        for (const Variant &v : kVariants) {
            ExperimentRun r = presetRun(app, ConfigPreset::Imp, 64);
            if (v.pageBytes != 0) {
                r.cfg.tlb.enable = true;
                r.cfg.tlb.pageBytes = v.pageBytes;
            }
            r.label += std::string("/") + v.tag;
            exp.runs.push_back(std::move(r));
        }
    }
    Grid grid(exp);

    banner("TLB panel: IMP under virtual memory (64 cores; IPC and "
           "L1 coverage, translation off vs 4 KiB vs 2 MiB pages)",
           "huge pages recover most of the 4 KiB translation cost; "
           "coverage moves little because dropped page-crossers are "
           "a thin tail of IMP's issue stream");
    header({"ipc", "ipc-4k", "ipc-2m", "cov", "cov-4k", "cov-2m"});
    for (AppId app : paperApps()) {
        const SimStats &off = grid.at(app, "IMP/64c/tlb-off");
        const SimStats &p4k = grid.at(app, "IMP/64c/tlb-4k");
        const SimStats &p2m = grid.at(app, "IMP/64c/tlb-2m");
        row(appName(app),
            {off.ipc(), p4k.ipc(), p2m.ipc(), off.l1.coverage(),
             p4k.l1.coverage(), p2m.l1.coverage()});
    }
    return 0;
}
