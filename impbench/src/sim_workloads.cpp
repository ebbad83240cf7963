/**
 * @file
 * The simulation workloads: fig9_16c, uniproc_ooo and tlb_replay.
 *
 * One pass is what a user's `impsim_cli --config` run does, spelled out
 * as calls into the library's public functions so each can be timed:
 * ConfigFile::parseString + bindExperiment, makeWorkload (generation,
 * or trace decode for "trace:" apps), System::System, System::run and
 * writeCsvRow. Every pass starts from the config text with empty
 * workload caches, exactly like a fresh command.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include <sys/stat.h>

#include "bench.hpp"
#include "common/config_file.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "workloads/trace_io.hpp"

namespace impbench {

namespace {

using namespace impsim;

/** Apps the tlb_replay workload records and replays. */
const char *const kReplayApps[] = {"pagerank", "graph500", "spmv", "sgd"};

/** A grid: config text plus the name its diagnostics cite. */
struct Grid
{
    std::string text;
    std::string origin;
};

/**
 * Input scale of every simulation workload: a quarter, as in
 * perf_harness's smoke grid. A pass then takes a few seconds at most,
 * so a run holds many passes and the fastest of them is steady on a
 * busy host.
 */
std::string
scaleText(bool tiny)
{
    return tiny ? "0.01" : "0.25";
}

Grid
fig9Grid(bool tiny)
{
    return {"[system]\ncores = " + std::string(tiny ? "4" : "16") +
                "\nscale = " + scaleText(tiny) +
                "\n\n[sweep]\n"
                "app    = [pagerank, tri_count, graph500, sgd, lsh, spmv,"
                " symgs]\n"
                "preset = [PerfPref, Base, IMP, SWPref]\n",
            "<fig9_16c>"};
}

Grid
uniprocGrid(bool tiny)
{
    return {"[system]\ncores = 1\ncore_model = \"ooo\"\nscale = " +
                scaleText(tiny) +
                "\n\n[sweep]\n"
                "app    = [pagerank, tri_count, graph500, sgd, lsh, spmv,"
                " symgs, streaming]\n"
                "preset = [Base]\n",
            "<uniproc_ooo>"};
}

/** The TLB-on {Base, IMP} grid over @p apps (names or trace specs). */
Grid
tlbGrid(const std::string &apps, bool tiny, const std::string &origin)
{
    return {"[system]\ncores = " + std::string(tiny ? "4" : "16") +
                "\nscale = " + scaleText(tiny) +
                "\n\n[tlb]\nenable = true\npage_bytes = 4096\n\n"
                "[sweep]\napp    = [" +
                apps + "]\npreset = [Base, IMP]\n",
            origin};
}

std::string
tracePathFor(const Options &opt, const char *app)
{
    return opt.workDir + "/" + app + ".imptrace";
}

Experiment
bind(const Grid &g, std::uint64_t seed)
{
    CliOverrides cli;
    cli.seed = seed;
    return bindExperiment(ConfigFile::parseString(g.text, g.origin), cli);
}

/** Workloads of one pass, keyed like runExperiment's cache. */
using WorkloadKey = std::tuple<AppId, std::uint32_t, bool, double,
                               std::uint64_t, std::string>;
using WorkloadCache = std::map<WorkloadKey, std::unique_ptr<Workload>>;

/** Where a pass's time and simulated work went. */
struct PassResult
{
    bool complete = true;
    double wallS = 0;
    double bindMs = 0;
    double genMs = 0;
    double decodeMs = 0;
    double buildMs = 0;
    double runMs = 0;
    double emitMs = 0;
    std::uint64_t decodeBytes = 0;
    /** CSV rows (no newline), indexed by run. */
    std::vector<std::string> rows;
    /** Per run: workload (when first built), build, run and emit. */
    std::vector<double> simMs;
    /** Per run: System::run alone. */
    std::vector<double> simRunMs;
    SimCounts counts;
};

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** "IMP" for a label like "spmv/IMP/16c". */
std::string
presetOf(const std::string &label)
{
    std::size_t a = label.find('/');
    std::size_t b = label.find('/', a + 1);
    return a == std::string::npos ? "" : label.substr(a + 1, b - a - 1);
}

/** The workload for run @p r, built into @p cache on first use. */
Workload &
workloadFor(const ExperimentRun &r, WorkloadCache &cache, PassResult &p,
            Tracer &tr, std::uint64_t run, std::uint64_t parent)
{
    auto &slot = cache[WorkloadKey{r.app, r.cfg.numCores, r.swPrefetch,
                                   r.scale, r.seed, r.tracePath}];
    if (!slot) {
        WorkloadParams params;
        params.numCores = r.cfg.numCores;
        params.swPrefetch = r.swPrefetch;
        params.scale = r.scale;
        params.seed = r.seed;
        params.tracePath = r.tracePath;
        Clock::time_point t0 = Clock::now();
        slot = std::make_unique<Workload>(makeWorkload(r.app, params));
        Clock::time_point t1 = Clock::now();
        bool decode = r.app == AppId::Trace;
        (decode ? p.decodeMs : p.genMs) += msBetween(t0, t1);
        if (decode)
            p.decodeBytes += fileBytes(r.tracePath);
        tr.record(decode ? "trace_io.decode" : "workloads.gen", run, parent,
                  t0, t1);
    }
    return *slot;
}

/**
 * One end-to-end pass over @p g. Before each simulation after the
 * first, @p stop_before(i) may end the pass early (complete = false).
 * @p cache is cleared first and left holding this pass's workloads.
 */
PassResult
runPass(const Grid &g, std::uint64_t seed, WorkloadCache &cache, Tracer &tr,
        std::uint64_t &next_run,
        const std::function<bool(std::size_t)> &stop_before)
{
    cache.clear();
    PassResult p;
    Clock::time_point t0 = Clock::now();
    std::uint64_t pass_span = tr.open("pass", 0, 0, t0);
    Experiment exp = bind(g, seed);
    Clock::time_point t1 = Clock::now();
    p.bindMs = msBetween(t0, t1);
    tr.record("config_file.bind", 0, pass_span, t0, t1);
    bool with_tlb = experimentUsesTlb(exp);

    for (std::size_t i = 0; i < exp.runs.size(); ++i) {
        if (i > 0 && stop_before(i)) {
            p.complete = false;
            break;
        }
        const ExperimentRun &r = exp.runs[i];
        std::uint64_t run = next_run++;
        Clock::time_point s0 = Clock::now();
        std::uint64_t sim_span = tr.open("sim", run, pass_span, s0);
        Workload &w = workloadFor(r, cache, p, tr, run, sim_span);

        Clock::time_point b0 = Clock::now();
        System sys(r.cfg, w.traces, *w.mem);
        Clock::time_point b1 = Clock::now();
        SimStats st = sys.run();
        Clock::time_point r1 = Clock::now();
        std::ostringstream os;
        writeCsvRow(os, r.label, st, with_tlb);
        std::string row = os.str();
        Clock::time_point e1 = Clock::now();

        tr.record("system.build", run, sim_span, b0, b1);
        tr.record("system.run", run, sim_span, b1, r1);
        tr.record("report.emit", run, sim_span, r1, e1);
        tr.close(sim_span, e1);
        p.buildMs += msBetween(b0, b1);
        p.runMs += msBetween(b1, r1);
        p.emitMs += msBetween(r1, e1);
        p.simMs.push_back(msBetween(s0, e1));
        p.simRunMs.push_back(msBetween(b1, r1));
        if (!row.empty() && row.back() == '\n')
            row.pop_back();
        p.rows.push_back(std::move(row));
        p.counts.add(st, sys.eventQueue().executed(),
                     presetOf(r.label) == "IMP");
    }
    Clock::time_point end = Clock::now();
    tr.close(pass_span, end);
    p.wallS = secondsBetween(t0, end);
    return p;
}

/**
 * Set-up only: bind, build every workload, construct every System and
 * drop it unrun. Returns seconds spent before System::run would start.
 */
double
setupOnce(const Grid &g, std::uint64_t seed)
{
    Clock::time_point t0 = Clock::now();
    Experiment exp = bind(g, seed);
    double setup_s = secondsBetween(t0, Clock::now());
    WorkloadCache cache;
    PassResult scratch;
    Tracer off(false);
    for (const ExperimentRun &r : exp.runs) {
        Workload &w = workloadFor(r, cache, scratch, off, 0, 0);
        Clock::time_point b0 = Clock::now();
        System sys(r.cfg, w.traces, *w.mem);
        // The teardown at scope exit is not set-up.
        setup_s += secondsBetween(b0, Clock::now());
    }
    return setup_s + 1e-3 * (scratch.genMs + scratch.decodeMs);
}

/** CSV rows (header dropped) of runExperiment on @p exp. */
std::vector<std::string>
referenceRows(const Experiment &exp)
{
    std::ostringstream os;
    ExperimentRunOptions ro;
    ro.csv = true;
    ro.jobs = 1;
    if (!runExperiment(exp, os, ro))
        throw std::runtime_error("reference runExperiment did not finish");
    std::vector<std::string> lines = splitLines(os.str());
    if (!lines.empty())
        lines.erase(lines.begin());
    return lines;
}

/**
 * Geomean over apps of Base cycles / IMP cycles, from rows labelled
 * "<app>/<preset>/..."; 0 when no app has both.
 */
double
impSpeedup(const std::vector<std::string> &rows)
{
    std::map<std::string, std::map<std::string, double>> cycles;
    for (const std::string &row : rows) {
        std::string label = row.substr(0, row.find(','));
        std::string body = rowBody(row);
        double c = std::atof(body.c_str() + 1);
        cycles[label.substr(0, label.find('/'))][presetOf(label)] = c;
    }
    double log_sum = 0;
    int n = 0;
    for (auto &app : cycles) {
        auto base = app.second.find("Base");
        auto imp = app.second.find("IMP");
        if (base == app.second.end() || imp == app.second.end() ||
            imp->second <= 0)
            continue;
        log_sum += std::log(base->second / imp->second);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

/** The expected rows every pass is checked against. */
class Expectation
{
  public:
    /**
     * @param rows     expected rows, or empty to adopt the first pass
     * @param labelled compare labels too (false: bodies only)
     */
    Expectation(std::vector<std::string> rows, bool labelled, bool inject)
        : rows_(std::move(rows)), labelled_(labelled), inject_(inject)
    {
        corrupt();
    }

    /** Checks @p p's rows; each simulation is one operation. */
    void
    check(const PassResult &p, Checks &checks)
    {
        if (rows_.empty()) {
            // No pinned reference at this seed: the first pass becomes
            // the reference that every repeat must reproduce exactly.
            rows_ = p.rows;
            corrupt();
        }
        for (std::size_t i = 0; i < p.rows.size(); ++i) {
            std::string why;
            if (i >= rows_.size()) {
                why = "no expected row for run " + std::to_string(i);
            } else {
                const std::string &want = rows_[i];
                const std::string &got = p.rows[i];
                bool same = labelled_ ? want == got
                                      : rowBody(want) == rowBody(got);
                if (!same)
                    why = "row " + std::to_string(i) + " differs: got '" +
                          got + "', expected '" + want + "'";
            }
            checks.record(why);
        }
    }

  private:
    void
    corrupt()
    {
        if (inject_ && !rows_.empty()) {
            rows_[0] += "0";
            inject_ = false;
        }
    }

    std::vector<std::string> rows_;
    bool labelled_;
    bool inject_;
};

/** Records the tlb_replay input traces; returns the replay grid. */
Grid
recordReplayInputs(const Options &opt)
{
    std::string apps;
    for (const char *name : kReplayApps) {
        AppId app{};
        parseAppName(name, app);
        WorkloadParams params;
        params.numCores = opt.tiny ? 4 : 16;
        params.scale = std::stod(scaleText(opt.tiny));
        params.seed = opt.seed;
        Workload w = makeWorkload(app, params);
        std::string path = tracePathFor(opt, name);
        recordTrace(path, w.traces, *w.mem);
        apps += std::string(apps.empty() ? "" : ", ") + "\"trace:" + path +
                "\"";
    }
    return tlbGrid(apps, opt.tiny, "<tlb_replay>");
}

void
removeReplayInputs(const Options &opt)
{
    for (const char *name : kReplayApps)
        std::remove(tracePathFor(opt, name).c_str());
}

} // namespace

Outcome
runSimWorkload(const Options &opt)
{
    Outcome out;
    bool replay = opt.workload == "tlb_replay";
    Grid grid;
    std::vector<std::string> expected;
    bool labelled = true;

    if (replay) {
        // Inputs arrive through trace decode; the same generated grid
        // gives the rows they must reproduce, apart from the label.
        grid = recordReplayInputs(opt);
        std::string apps;
        for (const char *name : kReplayApps)
            apps += std::string(apps.empty() ? "" : ", ") + name;
        expected = referenceRows(
            bind(tlbGrid(apps, opt.tiny, "<tlb_reference>"), opt.seed));
        labelled = false;
    } else {
        grid = opt.workload == "fig9_16c" ? fig9Grid(opt.tiny)
                                          : uniprocGrid(opt.tiny);
        std::string pinned =
            std::string(kExpectedDir) + "/" + opt.workload + ".seed42.csv";
        if (opt.tiny) {
            // Tiny inputs have no pinned rows; the library's own
            // runExperiment path is the reference instead.
            expected = referenceRows(bind(grid, opt.seed));
        } else if (opt.seed == 42 && !opt.writeExpected) {
            std::string text;
            if (!readFile(pinned, text))
                throw std::runtime_error("cannot read pinned rows " +
                                         pinned);
            expected = splitLines(text);
        }
    }
    Expectation expect(expected, labelled, opt.injectBadRow);

    WorkloadCache cache;
    std::uint64_t next_run = 1;
    Tracer spans(opt.trace);
    Tracer off(false);
    auto never = [](std::size_t) { return false; };
    std::vector<std::string> first_rows;

    if (!opt.trace) {
        std::vector<double> walls, setups;
        // Per grid point, the fastest of its repetitions.
        std::vector<double> best_ms, best_run_ms;
        std::uint64_t pass_instructions = 0;
        Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds));
        // Whole passes until the deadline, then stop between
        // simulations — but only once one pass is complete and at
        // least one simulation has been repeated.
        for (int pass = 0;; ++pass) {
            auto stop = [&](std::size_t) {
                return pass >= 1 && Clock::now() >= deadline;
            };
            PassResult p = runPass(grid, opt.seed, cache, off, next_run, stop);
            expect.check(p, out.checks);
            if (pass == 0) {
                first_rows = p.rows;
                pass_instructions = p.counts.instructions;
                best_ms = p.simMs;
                best_run_ms = p.simRunMs;
            }
            for (std::size_t i = 0; i < p.simMs.size(); ++i) {
                best_ms[i] = std::min(best_ms[i], p.simMs[i]);
                best_run_ms[i] = std::min(best_run_ms[i], p.simRunMs[i]);
            }
            if (p.complete) {
                walls.push_back(p.wallS);
                setups.push_back(1e-3 * (p.bindMs + p.genMs + p.decodeMs +
                                         p.buildMs));
            }
            if (pass >= 1 && Clock::now() >= deadline)
                break;
        }
        // Every complete pass set up once; a grid too long to repeat
        // within the window sets up again, unrun, for at least 3.
        // The last pass's workloads go first, so they do not add to
        // the peak resident set.
        cache.clear();
        while (setups.size() < 3)
            setups.push_back(setupOnce(grid, opt.seed));
        std::cout << "complete passes (s):";
        for (double w : walls)
            std::cout << " " << w;
        std::cout << "\n";
        // Each time is the fastest of its repetitions: the host's
        // neighbours only ever slow a pass down, so the fastest one is
        // the steadiest estimate of what the code costs. A job is one
        // simulation of the grid (a sweep point, as SweepJobs runs
        // them), so jobs_per_s is sims_per_sec of the fastest pass.
        double run_ms = 0;
        for (double ms : best_run_ms)
            run_ms += ms;
        out.e2e.wallS = *std::min_element(walls.begin(), walls.end());
        out.e2e.setupS = *std::min_element(setups.begin(), setups.end());
        out.e2e.simMips = run_ms > 0 ? 1e-3 * pass_instructions / run_ms : 0;
        out.e2e.jobP50Ms = quantile(best_ms, 0.5);
        out.e2e.jobP90Ms = quantile(best_ms, 0.9);
        out.e2e.jobsPerS = static_cast<double>(best_ms.size()) / out.e2e.wallS;
    } else {
        // Untraced and traced whole passes alternate, so the tracing
        // overhead is measured under the same conditions.
        std::vector<double> untraced, traced;
        std::vector<PassResult> traced_passes;
        Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds));
        for (int pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
            bool on = pass % 2 == 1;
            PassResult p = runPass(grid, opt.seed, cache, on ? spans : off,
                                   next_run, never);
            expect.check(p, out.checks);
            if (pass == 0)
                first_rows = p.rows;
            (on ? traced : untraced).push_back(p.wallS);
            if (on)
                traced_passes.push_back(std::move(p));
        }
        PerLayer &l = out.layers;
        auto med = [&](double PassResult::*field) {
            std::vector<double> v;
            for (const PassResult &p : traced_passes)
                v.push_back(p.*field);
            return median(v);
        };
        l.bindMs = med(&PassResult::bindMs);
        l.genMs = med(&PassResult::genMs);
        l.decodeMs = med(&PassResult::decodeMs);
        l.buildMs = med(&PassResult::buildMs);
        l.runMs = med(&PassResult::runMs);
        l.emitMs = med(&PassResult::emitMs);
        double run_ns = 0, events = 0, dec_ms = 0, dec_bytes = 0;
        for (const PassResult &p : traced_passes) {
            run_ns += 1e6 * p.runMs;
            events += static_cast<double>(p.counts.events);
            dec_ms += p.decodeMs;
            dec_bytes += static_cast<double>(p.decodeBytes);
        }
        l.nsPerEvent = events > 0 ? run_ns / events : 0;
        l.decodeMbS = dec_ms > 0 ? dec_bytes / dec_ms / 1e3 : 0;
        l.counts = traced_passes.front().counts;
        l.tracedWallS = median(traced);
        l.untracedWallS = median(untraced);
        l.impSpeedup = impSpeedup(first_rows);

        // Unit costs over this workload's own streams: the workloads
        // the last pass built are still in the cache.
        std::vector<const Workload *> ws;
        for (const auto &entry : cache)
            ws.push_back(entry.second.get());
        l.unit = measureUnitCosts(ws, bind(grid, opt.seed).runs.front().cfg,
                                  opt.tiny);
        spans.write(opt.spansOut);
    }

    if (opt.writeExpected && !opt.tiny && !replay) {
        std::string path = std::string(kExpectedDir) + "/" + opt.workload +
                           ".seed" +
                           std::to_string(opt.seed) + ".csv";
        std::ofstream os(path);
        for (const std::string &row : first_rows)
            os << row << "\n";
        std::cout << "wrote " << path << "\n";
    }
    if (opt.workload == "fig9_16c") {
        double s = impSpeedup(first_rows);
        std::printf("reported simulated output (not a gated metric): IMP "
                    "geomean speedup over Base, 7 apps, %s cores, scale "
                    "%s = %.3fx (%+.0f%%); the paper reports +74%% at 16 "
                    "cores (bench/fig09_performance.cpp). Beyond this "
                    "figure the model is unvalidated against hardware.\n",
                    opt.tiny ? "4" : "16", scaleText(opt.tiny).c_str(), s,
                    100.0 * (s - 1));
    }
    if (replay)
        removeReplayInputs(opt);
    out.e2e.peakRssMib = peakRssMib();
    return out;
}

} // namespace impbench
