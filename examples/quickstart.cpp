/**
 * @file
 * Quickstart: build a 16-core machine, run SpMV under the paper's
 * main configurations, and print the speedups IMP delivers.
 *
 * Usage: quickstart [scale]   (default scale 0.25 for a fast demo)
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

using namespace impsim;

int
main(int argc, char **argv)
{
    double scale = argc > 1 ? std::atof(argv[1]) : 0.25;
    const std::uint32_t cores = 16;

    std::printf("impsim quickstart: SpMV on a %u-core mesh "
                "(scale %.2f)\n\n",
                cores, scale);

    const ConfigPreset presets[] = {
        ConfigPreset::Ideal,         ConfigPreset::PerfectPref,
        ConfigPreset::Baseline,      ConfigPreset::SwPref,
        ConfigPreset::Imp,           ConfigPreset::ImpPartialNocDram,
    };

    // Base runs after Ideal and PerfPref, so every speedup is printed
    // once all rows have run.
    std::vector<SimStats> stats;
    double base_cycles = 0.0;
    for (ConfigPreset p : presets) {
        WorkloadParams wp;
        wp.numCores = cores;
        wp.scale = scale;
        wp.swPrefetch = presetWantsSwPrefetch(p);
        Workload w = makeWorkload(AppId::Spmv, wp);

        SystemConfig cfg = makePreset(p, cores);
        System sys(cfg, w.traces, *w.mem);
        stats.push_back(sys.run());
        if (p == ConfigPreset::Baseline)
            base_cycles = static_cast<double>(stats.back().cycles);
    }

    std::printf("%-18s %12s %8s %10s %10s\n", "config", "cycles", "IPC",
                "L1 miss%", "speedup");
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const SimStats &s = stats[i];
        double miss_pct =
            100.0 * static_cast<double>(s.l1MissOpportunities()) /
            static_cast<double>(s.l1.hits + s.l1.misses + 1);
        std::printf("%-18s %12llu %8.3f %9.1f%% %9.2fx\n",
                    presetName(presets[i]),
                    static_cast<unsigned long long>(s.cycles), s.ipc(),
                    miss_pct, base_cycles / static_cast<double>(s.cycles));
    }
    std::printf("\nIMP should recover most of the Base->PerfPref gap "
                "(paper Fig 9).\n");
    return 0;
}
