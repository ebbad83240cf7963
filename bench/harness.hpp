/**
 * @file
 * Shared figure-bench harness: binds a figure's grid, simulates it
 * through simulateRuns() — the one code path every front end shares —
 * and prints paper-style tables. Every bench binary regenerates one
 * table or figure of the paper and keeps only its normalisation and
 * table code.
 *
 * IMPSIM_BENCH_SCALE shrinks inputs (0.05 is a good smoke value; it
 * is the --scale override of a config grid), and IMPSIM_BENCH_JOBS
 * caps simulateRuns()' worker threads (default: hardware
 * concurrency).
 */
#ifndef IMPSIM_BENCH_HARNESS_HPP
#define IMPSIM_BENCH_HARNESS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config_file.hpp"
#include "common/stats.hpp"
#include "sim/presets.hpp"

namespace impsim::bench {

/** The seven evaluated applications, in figure order. */
const std::vector<AppId> &paperApps();

/**
 * One run built in code, for grids that are not a product of config
 * keys: @p preset on @p cores in-order cores at the bench scale,
 * labelled "app/preset/Nc" like the binder labels it.
 */
ExperimentRun presetRun(AppId app, ConfigPreset preset,
                        std::uint32_t cores);

/** The simulated statistics of one figure's grid, by run label. */
class Grid
{
  public:
    /**
     * Binds the shipped experiment config examples/configs/@p config
     * at the bench scale and simulates every run. Config errors
     * terminate with the file:line diagnostic.
     */
    static Grid load(const std::string &config);

    /** Simulates every run of @p exp (labels must be unique). */
    explicit Grid(const Experiment &exp);

    /** The run labelled "<app>/<rest>"; exits if the grid lacks it. */
    const SimStats &at(AppId app, const std::string &rest) const;

  private:
    std::map<std::string, SimStats> stats_;
};

/**
 * cycles(PerfPref) / cycles(@p preset) at @p cores: Fig 9/11's
 * normalisation.
 */
double normThroughput(const Grid &grid, AppId app, const std::string &preset,
                      std::uint32_t cores);

/** Geometric mean. */
double geomean(const std::vector<double> &v);

// ---- Table formatting -------------------------------------------------

/** Prints the figure/table banner. */
void banner(const std::string &title, const std::string &paper_note);

/** Prints a header row: "app" followed by column names. */
void header(const std::vector<std::string> &cols);

/** Prints one row: label + numeric cells. */
void row(const std::string &label, const std::vector<double> &cells,
         int prec = 2);

} // namespace impsim::bench

#endif // IMPSIM_BENCH_HARNESS_HPP
