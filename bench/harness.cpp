/**
 * @file
 * Bench harness implementation.
 */
#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "common/logging.hpp"
#include "sim/experiment_runner.hpp"

namespace impsim::bench {

namespace {

/** IMPSIM_BENCH_SCALE, or 1.0 (evaluation size) when unset. */
double
benchScale()
{
    const char *env = std::getenv("IMPSIM_BENCH_SCALE");
    if (!env)
        return 1.0;
    char *end = nullptr;
    double scale = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(scale > 0.0)) {
        std::fprintf(stderr,
                     "IMPSIM_BENCH_SCALE must be a positive number, "
                     "got '%s'\n",
                     env);
        std::exit(1);
    }
    return scale;
}

/** IMPSIM_BENCH_JOBS, or 0 (hardware concurrency) when unset. */
unsigned
benchJobs()
{
    const char *env = std::getenv("IMPSIM_BENCH_JOBS");
    if (!env)
        return 0;
    std::string v = env;
    bool ok = !v.empty() &&
              v.find_first_not_of("0123456789") == std::string::npos;
    if (ok) {
        try {
            unsigned long ul = std::stoul(v);
            if (ul <= std::numeric_limits<unsigned>::max())
                return static_cast<unsigned>(ul);
        } catch (const std::exception &) {
        }
    }
    std::fprintf(stderr,
                 "IMPSIM_BENCH_JOBS must be a non-negative integer "
                 "(<= %u), got '%s'\n",
                 std::numeric_limits<unsigned>::max(), env);
    std::exit(1);
}

} // namespace

const std::vector<AppId> &
paperApps()
{
    static const std::vector<AppId> apps(kPaperApps.begin(),
                                         kPaperApps.end());
    return apps;
}

ExperimentRun
presetRun(AppId app, ConfigPreset preset, std::uint32_t cores)
{
    ExperimentRun r;
    r.label = std::string(appName(app)) + "/" + presetName(preset) + "/" +
              std::to_string(cores) + "c";
    r.cfg = makePreset(preset, cores);
    r.app = app;
    r.scale = benchScale();
    r.swPrefetch = presetWantsSwPrefetch(preset);
    return r;
}

Grid
Grid::load(const std::string &config)
{
    // %.17g round-trips the double exactly, so the grid runs at the
    // same scale as presetRun()'s runs.
    char scale[40];
    std::snprintf(scale, sizeof(scale), "scale=%.17g", benchScale());
    CliOverrides cli;
    cli.settings.push_back(scale);
    try {
        return Grid(bindExperiment(
            ConfigFile::parseFile(IMPSIM_SOURCE_DIR "/examples/configs/" +
                                  config),
            cli));
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    }
}

Grid::Grid(const Experiment &exp)
{
    std::vector<std::size_t> all(exp.runs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    ExperimentRunOptions opt;
    opt.jobs = benchJobs();
    std::vector<SimStats> stats;
    // Nothing can cancel the batch, so it always completes.
    simulateRuns(exp, all, opt, stats);
    for (std::size_t i = 0; i < all.size(); ++i) {
        bool fresh =
            stats_.emplace(exp.runs[i].label, std::move(stats[i])).second;
        IMPSIM_CHECK(fresh, "bench grid repeats a run label");
    }
}

const SimStats &
Grid::at(AppId app, const std::string &rest) const
{
    const std::string label = std::string(appName(app)) + "/" + rest;
    auto it = stats_.find(label);
    if (it == stats_.end()) {
        std::fprintf(stderr, "bench grid has no run '%s'\n", label.c_str());
        std::exit(1);
    }
    return it->second;
}

double
normThroughput(const Grid &grid, AppId app, const std::string &preset,
               std::uint32_t cores)
{
    const std::string at = "/" + std::to_string(cores) + "c";
    return static_cast<double>(grid.at(app, "PerfPref" + at).cycles) /
           static_cast<double>(grid.at(app, preset + at).cycles);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

void
banner(const std::string &title, const std::string &paper_note)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    if (!paper_note.empty())
        std::printf("paper: %s\n", paper_note.c_str());
    std::printf("================================================"
                "============================\n");
}

void
header(const std::vector<std::string> &cols)
{
    std::printf("%-12s", "app");
    for (const auto &c : cols)
        std::printf(" %10s", c.c_str());
    std::printf("\n");
}

void
row(const std::string &label, const std::vector<double> &cells, int prec)
{
    std::printf("%-12s", label.c_str());
    for (double v : cells)
        std::printf(" %10.*f", prec, v);
    std::printf("\n");
}

} // namespace impsim::bench
