/**
 * @file
 * Experiment execution shared by every front end (experiment_runner.hpp).
 */
#include "sim/experiment_runner.hpp"

#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "sim/report.hpp"
#include "workloads/workload.hpp"

namespace impsim {

WorkloadParams
workloadParams(const ExperimentRun &r)
{
    WorkloadParams params;
    params.numCores = r.cfg.numCores;
    params.swPrefetch = r.swPrefetch;
    params.scale = r.scale;
    params.seed = r.seed;
    params.tracePath = r.tracePath;
    return params;
}

bool
simulateRuns(const Experiment &exp, const std::vector<std::size_t> &indices,
             const ExperimentRunOptions &opt, std::vector<SimStats> &stats)
{
    stats.clear();
    SweepControl *ctl = opt.control;
    if (ctl && ctl->cancelled())
        return false;

    // One workload per distinct (app, cores, swpf, scale, seed,
    // trace): runs share trace generation, whether the whole grid or
    // a leased slice of it executes here.
    using Key = std::tuple<AppId, std::uint32_t, bool, double,
                           std::uint64_t, std::string>;
    std::map<Key, std::unique_ptr<Workload>> workloads;
    std::vector<SweepJob> sweep;
    sweep.reserve(indices.size());
    for (std::size_t idx : indices) {
        IMPSIM_CHECK(idx < exp.runs.size(),
                     "experiment run index out of range");
        const ExperimentRun &r = exp.runs[idx];
        auto &w = workloads[Key{r.app, r.cfg.numCores, r.swPrefetch,
                                r.scale, r.seed, r.tracePath}];
        if (!w)
            w = std::make_unique<Workload>(
                makeWorkload(r.app, workloadParams(r)));
        sweep.push_back(SweepJob{r.label, r.cfg, &w->traces, w->mem.get()});
    }
    if (ctl && ctl->cancelled())
        return false;

    // A one-job batch runs on this thread, with the same lease,
    // cancel and progress steps as any other.
    std::vector<SweepResult> results =
        SweepRunner(opt.jobs).run(sweep, ctl, opt.lease);
    if (ctl && ctl->cancelled())
        return false;
    // A batch can also come back short because the pool closed under
    // it (server shutdown); partial results must never pass as
    // success.
    stats.reserve(results.size());
    for (SweepResult &r : results) {
        if (!r.ran)
            return false;
        stats.push_back(std::move(r.stats));
    }
    return true;
}

bool
runExperimentRuns(const Experiment &exp,
                  const std::vector<std::size_t> &indices,
                  const ExperimentRunOptions &opt,
                  std::vector<std::string> &rows)
{
    rows.assign(indices.size(), std::string());
    std::vector<SimStats> stats;
    if (!simulateRuns(exp, indices, opt, stats))
        return false;
    // Row shape is a whole-experiment property, not a per-run one:
    // a worker leasing TLB-off runs out of a mixed sweep must still
    // emit the widened rows the coordinator's header promises.
    const bool report = exp.runs.size() == 1 && !opt.csv;
    const bool with_tlb = experimentUsesTlb(exp);
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::string &label = exp.runs[indices[i]].label;
        std::ostringstream os;
        if (report)
            writeReport(os, label, stats[i]);
        else
            writeCsvRow(os, label, stats[i], with_tlb);
        rows[i] = os.str();
    }
    return true;
}

bool
runExperiment(const Experiment &exp, std::ostream &os,
              const ExperimentRunOptions &opt)
{
    std::vector<std::size_t> all(exp.runs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::string> rows;
    if (!runExperimentRuns(exp, all, opt, rows))
        return false;
    if (exp.runs.size() != 1 || opt.csv)
        os << csvHeader(exp);
    for (const std::string &row : rows)
        os << row;
    return true;
}

std::string
csvHeader(const Experiment &exp)
{
    std::ostringstream os;
    writeCsvHeader(os, experimentUsesTlb(exp));
    return os.str();
}

bool
experimentUsesTlb(const Experiment &exp)
{
    for (const ExperimentRun &r : exp.runs) {
        if (r.cfg.tlb.enable)
            return true;
    }
    return false;
}

} // namespace impsim
