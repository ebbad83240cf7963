/**
 * @file
 * Standalone simulator-speed harness (docs/perf.md).
 *
 * Times the perf grids and writes machine-readable JSON, so a PR can
 * record its `BENCH_<n>.json` with:
 *
 *   ./build/perf_harness --grid pinned,fig9,smoke --reps 3 \
 *       --json BENCH_7.json
 *
 * Usage:
 *   perf_harness [--json FILE] [--grid NAME[,NAME...]] [--reps N]
 *
 * Grid NAME is the experiment config examples/configs/perf_NAME.imp.ini:
 * pinned (8 apps x {Base, IMP} x {1,16} cores), fig9 (the 16-core
 * Fig 9 panel), smoke (CI-sized subset). Default: pinned,fig9. Each
 * grid is simulated through simulateRuns() on this thread, every run
 * --reps times in a row; a run keeps its fastest System::run() time,
 * and a repetition that simulates different cycles aborts. Bad
 * arguments exit 1 before the first simulation.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/config_file.hpp"
#include "common/logging.hpp"
#include "sim/experiment_runner.hpp"

using namespace impsim;

namespace {

/** A grid bound from its config file, not yet simulated. */
struct Grid
{
    std::string name;
    Experiment exp;
};

/** Timing and simulated fingerprint of one run. */
struct RunTiming
{
    std::string label;       ///< The binder's "app/preset/Nc".
    double simulateMs = 0;   ///< Best-of-reps System::run wall time.
    std::uint64_t simCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0; ///< Architectural memory accesses.
};

/** Timing of one grid. */
struct GridTiming
{
    std::string name;
    double workloadMs = 0; ///< Building the grid's workloads, once.
    double simulateMs = 0; ///< Sum of per-run best-of-reps sim time.
    std::vector<RunTiming> runs;
};

[[noreturn]] void
fail(const std::string &why)
{
    std::fprintf(stderr, "perf_harness: %s\n", why.c_str());
    std::exit(1);
}

/** --reps: a positive decimal integer. */
int
parseReps(const std::string &v)
{
    // Nine digits cannot overflow an int.
    if (!v.empty() && v.size() <= 9 &&
        v.find_first_not_of("0123456789") == std::string::npos) {
        int reps = std::stoi(v);
        if (reps > 0)
            return reps;
    }
    fail("--reps needs a positive integer, got '" + v + "'");
}

/** Binds examples/configs/perf_@p name.imp.ini, or exits. */
Grid
bindGrid(const std::string &name)
{
    const std::string path = IMPSIM_SOURCE_DIR "/examples/configs/perf_" +
                             name + ".imp.ini";
    try {
        return Grid{name, bindExperiment(ConfigFile::parseFile(path))};
    } catch (const ConfigError &e) {
        fail("grid '" + name + "': " + e.what());
    }
}

/**
 * Simulates @p grid through one simulateRuns() call with one worker,
 * which runs the batch on this thread so timings are not polluted by
 * scheduler noise. Each run index appears @p reps times in a row, so
 * every workload is built once and a run's repetitions run back to
 * back.
 */
GridTiming
timeGrid(const Grid &grid, int reps)
{
    const std::vector<ExperimentRun> &runs = grid.exp.runs;
    const std::size_t n = static_cast<std::size_t>(reps);
    std::vector<std::size_t> indices;
    indices.reserve(runs.size() * n);
    for (std::size_t i = 0; i < runs.size(); ++i)
        indices.insert(indices.end(), n, i);
    ExperimentRunOptions opt;
    opt.jobs = 1;
    std::vector<SimStats> stats;
    SimulateTimes times;
    // Nothing can cancel the batch, so it always completes.
    simulateRuns(grid.exp, indices, opt, stats, &times);

    GridTiming g;
    g.name = grid.name;
    g.workloadMs = times.workloadMs;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::size_t first = i * n;
        RunTiming run{runs[i].label, times.runMs[first],
                      stats[first].cycles, stats[first].core.instructions,
                      stats[first].core.memAccesses};
        for (std::size_t k = first + 1; k < first + n; ++k) {
            // The guardrail the whole perf effort leans on: faster
            // must never mean different.
            IMPSIM_CHECK(run.simCycles == stats[k].cycles,
                         "perf rep changed simulated cycles");
            run.simulateMs = std::min(run.simulateMs, times.runMs[k]);
        }
        g.simulateMs += run.simulateMs;
        g.runs.push_back(std::move(run));
    }
    return g;
}

std::uint64_t
totalOf(const GridTiming &g, std::uint64_t RunTiming::*field)
{
    std::uint64_t n = 0;
    for (const RunTiming &r : g.runs)
        n += r.*field;
    return n;
}

/** @p count per wall-second of @p g's simulate phase. */
double
perSec(const GridTiming &g, double count)
{
    return g.simulateMs > 0 ? 1000.0 * count / g.simulateMs : 0.0;
}

void
jsonNum(std::ostream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    os << buf;
}

/** Writes schema "impsim-perf-v1" (docs/perf.md). */
void
writeJson(std::ostream &os, const std::vector<GridTiming> &grids)
{
    os << "{\n  \"schema\": \"impsim-perf-v1\",\n  \"grids\": [";
    bool first_grid = true;
    for (const GridTiming &g : grids) {
        const std::uint64_t cycles = totalOf(g, &RunTiming::simCycles);
        os << (first_grid ? "\n" : ",\n");
        first_grid = false;
        os << "    {\n      \"name\": \"" << g.name << "\",\n";
        os << "      \"sims\": " << g.runs.size() << ",\n";
        os << "      \"phases\": {\"workload_ms\": ";
        jsonNum(os, g.workloadMs);
        os << ", \"simulate_ms\": ";
        jsonNum(os, g.simulateMs);
        os << "},\n";
        os << "      \"sims_per_sec\": ";
        jsonNum(os, perSec(g, static_cast<double>(g.runs.size())));
        os << ",\n      \"sim_cycles\": " << cycles;
        os << ",\n      \"sim_cycles_per_sec\": ";
        jsonNum(os, perSec(g, static_cast<double>(cycles)));
        os << ",\n      \"accesses\": " << totalOf(g, &RunTiming::accesses);
        os << ",\n      \"runs\": [";
        bool first_run = true;
        for (const RunTiming &run : g.runs) {
            os << (first_run ? "\n" : ",\n");
            first_run = false;
            os << "        {\"label\": \"" << run.label
               << "\", \"simulate_ms\": ";
            jsonNum(os, run.simulateMs);
            os << ", \"sim_cycles\": " << run.simCycles
               << ", \"instructions\": " << run.instructions
               << ", \"accesses\": " << run.accesses << "}";
        }
        os << "\n      ]\n    }";
    }
    os << "\n  ]\n}\n";
}

/** One summary line per grid. */
void
writeSummary(const std::vector<GridTiming> &grids)
{
    for (const GridTiming &g : grids) {
        std::printf("%-8s %3zu sims  %9.1f ms sim (+%.1f ms workload)"
                    "  %6.2f sims/s  %8.2f Mcycles/s\n",
                    g.name.c_str(), g.runs.size(), g.simulateMs,
                    g.workloadMs,
                    perSec(g, static_cast<double>(g.runs.size())),
                    perSec(g, static_cast<double>(
                                  totalOf(g, &RunTiming::simCycles))) /
                        1e6);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string grids_arg = "pinned,fig9";
    int reps = 1;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fail(a + " needs a value");
            return argv[++i];
        };
        if (a == "--json")
            json_path = next();
        else if (a == "--grid")
            grids_arg = next();
        else if (a == "--reps")
            reps = parseReps(next());
        else {
            std::fprintf(stderr,
                         "usage: perf_harness [--json FILE] "
                         "[--grid pinned|fig9|smoke[,...]] [--reps N]\n");
            return 1;
        }
    }

    // Every grid binds and the JSON file opens before the first
    // simulation, so a typo costs no grid's worth of runs.
    std::vector<Grid> grids;
    for (const std::string &name : splitCommaList(grids_arg))
        grids.push_back(bindGrid(name));
    std::ofstream json;
    if (!json_path.empty()) {
        json.open(json_path);
        if (!json)
            fail("cannot write '" + json_path + "'");
    }

    std::vector<GridTiming> timed;
    for (const Grid &g : grids)
        timed.push_back(timeGrid(g, reps));
    writeSummary(timed);
    if (!json_path.empty()) {
        writeJson(json, timed);
        json.close();
        if (!json)
            fail("write error on '" + json_path + "'");
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
