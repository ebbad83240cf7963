/**
 * @file
 * The perf grids and the perf_harness binary (docs/perf.md).
 *
 * Each examples/configs/perf_<grid>.imp.ini must bind to exactly the
 * runs the grids had when they were loops in code: BENCH_<n>.json
 * files compare runs by label and simulated cycles, so a drifted grid
 * would read as a behaviour change. The reference below is that code;
 * the tests only bind, they do not simulate.
 *
 * The harness must reject bad arguments before its first simulation,
 * with exit status 1 and a one-line reason.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/config_file.hpp"
#include "sim/presets.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

const char *const kGrids[] = {"pinned", "fig9", "smoke"};

/** One point of a reference grid. */
struct Point
{
    AppId app;
    ConfigPreset preset;
    std::uint32_t cores;
    double scale;
};

/** The grids as the harness built them in code, in run order. */
std::vector<Point>
gridPoints(const std::string &grid)
{
    std::vector<Point> pts;
    if (grid == "pinned") {
        for (AppId app : kAllApps) {
            for (ConfigPreset p :
                 {ConfigPreset::Baseline, ConfigPreset::Imp}) {
                for (std::uint32_t cores : {1u, 16u})
                    pts.push_back(Point{app, p, cores, 1.0});
            }
        }
    } else if (grid == "fig9") {
        for (AppId app : kPaperApps) {
            for (ConfigPreset p :
                 {ConfigPreset::PerfectPref, ConfigPreset::Baseline,
                  ConfigPreset::Imp, ConfigPreset::SwPref})
                pts.push_back(Point{app, p, 16, 1.0});
        }
    } else if (grid == "smoke") {
        for (AppId app : {AppId::Pagerank, AppId::Graph500, AppId::Spmv,
                          AppId::Streaming}) {
            for (ConfigPreset p :
                 {ConfigPreset::Baseline, ConfigPreset::Imp}) {
                for (std::uint32_t cores : {1u, 16u})
                    pts.push_back(Point{app, p, cores, 0.25});
            }
        }
    }
    return pts;
}

ConfigFile
gridFile(const std::string &grid)
{
    return ConfigFile::parseFile(IMPSIM_SOURCE_DIR
                                 "/examples/configs/perf_" +
                                 grid + ".imp.ini");
}

TEST(PerfGrids, ConfigFilesSetOnlyGridKeys)
{
    // Every other field of a run's machine is then its preset's
    // default, as it was in the reference grids.
    for (const char *grid : kGrids) {
        const ConfigFile file = gridFile(grid);
        for (const ConfigSection &sec : file.sections()) {
            for (const ConfigEntry &e : sec.entries) {
                EXPECT_TRUE(e.key == "app" || e.key == "preset" ||
                            e.key == "cores" || e.key == "scale")
                    << grid << ": [" << sec.name << "] " << e.key;
            }
        }
    }
}

TEST(PerfGrids, ConfigFilesBindTheReferenceRunsInOrder)
{
    for (const char *grid : kGrids) {
        SCOPED_TRACE(grid);
        const std::vector<Point> want = gridPoints(grid);
        const Experiment exp = bindExperiment(gridFile(grid));
        ASSERT_EQ(exp.runs.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE("run " + std::to_string(i));
            const Point &pt = want[i];
            const ExperimentRun &r = exp.runs[i];
            EXPECT_EQ(r.label, std::string(appName(pt.app)) + "/" +
                                   presetName(pt.preset) + "/" +
                                   std::to_string(pt.cores) + "c");
            EXPECT_EQ(r.app, pt.app);
            EXPECT_EQ(r.cfg.numCores, pt.cores);
            EXPECT_EQ(r.scale, pt.scale);
            EXPECT_EQ(r.seed, 42u);
            EXPECT_EQ(r.swPrefetch, presetWantsSwPrefetch(pt.preset));
            EXPECT_TRUE(r.tracePath.empty());
            // What the preset sets, on the in-order core it assumes.
            const SystemConfig ref = makePreset(pt.preset, pt.cores);
            EXPECT_EQ(r.cfg.coreModel, ref.coreModel);
            EXPECT_EQ(r.cfg.prefetcherSpec, ref.prefetcherSpec);
            EXPECT_EQ(r.cfg.l2PrefetcherSpec, ref.l2PrefetcherSpec);
            EXPECT_EQ(r.cfg.partial, ref.partial);
            EXPECT_EQ(r.cfg.magicMemory, ref.magicMemory);
            EXPECT_EQ(r.cfg.perfectMemory, ref.perfectMemory);
        }
    }
}

struct HarnessResult
{
    /** Exit status; -1 if the process did not exit normally. */
    int status = -1;
    std::string out;
    std::string err;
};

/** Runs perf_harness with @p args, capturing stdout and stderr. */
HarnessResult
runHarness(const std::string &args)
{
    const std::string outPath =
        "/tmp/impsim_perf_harness_out_" + std::to_string(::getpid());
    const std::string cmd = "'" IMPSIM_PERF_HARNESS_BIN "' " + args +
                            " 2>&1 >'" + outPath + "'";
    HarnessResult r;
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        r.err.append(buf, n);
    int st = ::pclose(pipe);
    if (st != -1 && WIFEXITED(st))
        r.status = WEXITSTATUS(st);
    std::ifstream in(outPath);
    std::ostringstream os;
    os << in.rdbuf();
    r.out = os.str();
    std::remove(outPath.c_str());
    return r;
}

TEST(PerfHarness, BadArgumentsFailBeforeTheFirstSimulation)
{
    // Each case names the smoke grid first, so a harness that checked
    // late would print smoke's summary line before failing.
    for (const char *bad :
         {"--grid smoke --reps banana", "--grid smoke --reps 0",
          "--grid smoke --reps -3", "--grid smoke --reps 2x",
          "--grid smoke --reps 99999999999", "--grid smoke --reps",
          "--grid smoke,bogus", "--grid smoke,",
          "--grid smoke --json /nonexistent/dir/perf.json",
          "--grid smoke --frobnicate"}) {
        SCOPED_TRACE(bad);
        HarnessResult r = runHarness(bad);
        EXPECT_EQ(r.status, 1) << r.err;
        EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1)
            << r.err;
        EXPECT_EQ(r.out, "");
    }
}

} // namespace
} // namespace impsim
