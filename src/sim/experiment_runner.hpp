/**
 * @file
 * Executes a bound Experiment: its runs' statistics, report or CSV.
 *
 * simulateRuns() is the only code that turns an Experiment into
 * simulations. Every front end goes through it: `impsim_cli` flag mode
 * and `--config`, the job server (local pool and fabric worker
 * alike), the bench_* figure binaries and the tests. Their outputs
 * are therefore bit-identical by construction: one expanded run
 * prints the full report (unless forced to CSV), several fan out over
 * a SweepRunner and print one CSV row per run, in sweep order.
 */
#ifndef IMPSIM_SIM_EXPERIMENT_RUNNER_HPP
#define IMPSIM_SIM_EXPERIMENT_RUNNER_HPP

#include <iosfwd>

#include "common/config_file.hpp"
#include "sim/sweep_runner.hpp"

namespace impsim {

/** How to execute one Experiment. */
struct ExperimentRunOptions
{
    /** Force CSV output even for a single expanded run. */
    bool csv = false;
    /** SweepRunner worker count; 0 = hardware. */
    unsigned jobs = 0;
    /** Cancellation + progress hooks; nullptr = not cancellable. */
    SweepControl *control = nullptr;
    /**
     * Leased WorkerPool slice gating every simulation (single-run
     * reports included), so concurrent experiments share one slot
     * budget; nullptr = ungated.
     */
    WorkerPool::Lease *lease = nullptr;
};

/** The workload parameters (inputs, trace file) of run @p r. */
WorkloadParams workloadParams(const ExperimentRun &r);

/**
 * Simulates the runs of @p exp named by @p indices (each <
 * exp.runs.size()); stats[i] receives run indices[i]'s statistics.
 * Workloads are built once per distinct (app, cores, swpf, scale,
 * seed, trace path) among those runs. opt.csv is ignored.
 *
 * @return false iff cancelled through opt.control (or the pool
 *         closed) before every indexed run finished; @p stats is
 *         unspecified then.
 */
bool simulateRuns(const Experiment &exp,
                  const std::vector<std::size_t> &indices,
                  const ExperimentRunOptions &opt,
                  std::vector<SimStats> &stats);

/**
 * Runs every expanded run of @p exp and writes the report (single
 * run) or CSV header + rows (sweep) to @p os.
 *
 * @return false iff the experiment was cancelled through
 *         opt.control before completing — nothing is written to
 *         @p os in that case.
 */
bool runExperiment(const Experiment &exp, std::ostream &os,
                   const ExperimentRunOptions &opt = {});

/**
 * Runs only the runs of @p exp named by @p indices and returns the
 * output bytes per run: rows[i] holds exactly what run indices[i]
 * contributes to the full experiment's output — one CSV row normally,
 * or the whole report for a single-run report experiment
 * (exp.runs.size() == 1 and !opt.csv). Concatenating csvHeader(exp)
 * with every run's row in run order is therefore byte-identical to
 * runExperiment() on the whole experiment — the splice the job
 * server assembles results with (docs/job_server.md).
 *
 * @return false iff cancelled through opt.control (or the pool
 *         closed) before every indexed run finished; @p rows is
 *         unspecified then.
 */
bool runExperimentRuns(const Experiment &exp,
                       const std::vector<std::size_t> &indices,
                       const ExperimentRunOptions &opt,
                       std::vector<std::string> &rows);

/**
 * The CSV header runExperiment() writes ahead of @p exp's rows: the
 * TLB column group is present iff some run has the TLB model enabled
 * (experimentUsesTlb), so spliced worker rows line up.
 */
std::string csvHeader(const Experiment &exp);

/** True iff any run of @p exp has cfg.tlb.enable set. */
bool experimentUsesTlb(const Experiment &exp);

} // namespace impsim

#endif // IMPSIM_SIM_EXPERIMENT_RUNNER_HPP
