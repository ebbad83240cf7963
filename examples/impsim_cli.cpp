/**
 * @file
 * Command-line runner: one simulation (full report), a parallel sweep
 * over several presets (CSV, one row per preset), a declarative
 * experiment loaded from a config file (--config), or the same config
 * submitted to a running job server (--submit).
 *
 * Usage:
 *   impsim_cli [--config FILE] [--check] [--app NAME]
 *              [--preset NAME[,NAME...]] [--cores N] [--scale F]
 *              [--ooo] [--csv] [--pt N] [--ipd N] [--distance N]
 *              [--seed N] [--jobs N] [--prefetcher SPEC[,SPEC...]]
 *              [--l2-prefetcher SPEC[,SPEC...]]
 *   impsim_cli --submit FILE --server ADDR [--priority N]
 *              [override flags as above]
 *   impsim_cli --fetch ID --server ADDR
 *   impsim_cli --list --server ADDR
 *   impsim_cli --record-trace FILE [--app NAME] [--cores N]
 *              [--scale F] [--seed N] [--preset NAME]
 *
 * Flags accept both "--flag value" and "--flag=value".
 *
 * --app also accepts "trace:<path>": instead of generating a kernel,
 * the run replays a trace recorded with --record-trace (format spec
 * in docs/traces.md). The path is relative to the working directory
 * in flag mode, and to the config file's directory inside a config.
 *
 * --record-trace FILE builds the workload of the single flag-mode run
 * and writes it as an IMPTRACE file instead of simulating —
 * ".gz"/".xz" suffixes compress through gzip/xz. Replaying the file
 * reproduces the recorded run bit-exactly. --preset only picks the
 * software-prefetch flavor here (SWPref records the sw-prefetch
 * variant). A write error, a compressor that fails or exits early
 * included, prints the trace diagnostic and exits 1.
 *
 * Simulator speed is timed by bench/perf_harness over the
 * examples/configs/perf_*.imp.ini grids (docs/perf.md), not here.
 *
 * --submit FILE sends the config to an `impsim_serve` instance at
 * --server ADDR (a Unix socket path, or "tcp:HOST:PORT") and streams
 * the result back; the output is bit-identical to running
 * `impsim_cli --config FILE` in-process with the same flags, because
 * both ends execute the same experiment runner. Override flags are
 * forwarded with the submission (docs/job_server.md). --priority N
 * (1..100, default 1) jumps the queue ahead of lower-priority jobs
 * and weights the server's worker-pool share while running.
 *
 * --fetch ID re-reads a finished job's stored result — the exact
 * bytes the original RESULT stream carried — so a client that
 * disconnected mid-job (or the next morning) loses nothing. --list
 * prints every job the server knows, live and archived.
 *
 * --config FILE loads a declarative experiment (sections [system],
 * [imp], [gp], [stream], [ghb], [prefetch], [sweep]; reference in
 * docs/config_format.md). Precedence, lowest to highest: the preset's
 * defaults, then file keys, then CLI flags. A flag that overrides a
 * swept key collapses that sweep axis — e.g. --app spmv on a config
 * sweeping seven apps pins the app and keeps the other axes. With
 * --config, --preset takes a single name (declare a preset axis in
 * [sweep] for lists). --check parses, binds and expands the file,
 * prints the run count and exits without simulating.
 *
 * --prefetcher overrides the L1 engine with a registry spec:
 *   stack := name ('+' name)*       e.g. "imp", "stream+ghb"
 * A comma-separated list assigns stacks to cores round-robin
 * (heterogeneous machines): "imp,stream" alternates IMP and stream
 * across the tiles. --l2-prefetcher does the same for the L2-attached
 * engines (per tile); the default is no L2 prefetching.
 *
 * Without --config, the flags bind a made-up config whose only line
 * is `[sweep] preset = [<--preset list, default IMP>]`, with every
 * other flag applied as an override and diagnostics citing
 * "<command line>". Flag mode and config-driven sweeps therefore
 * behave identically: one run prints the full report, several run in
 * parallel and print CSV rows in sweep order, and single-preset-axis
 * configs are bit-identical (labels included) to the equivalent
 * --preset list.
 *
 * Examples:
 *   impsim_cli --config examples/configs/fig09.imp.ini --csv
 *   impsim_cli --config examples/configs/fig09.imp.ini \
 *       --app spmv --cores 16 --scale 0.05 --csv
 *   impsim_cli --config examples/configs/hetero.imp.ini --check
 *   impsim_cli --app spmv --preset IMP --cores 64
 *   impsim_cli --app pagerank --preset Base,IMP,GHB --cores 16
 *   impsim_cli --app lsh --preset IMP --prefetcher=stream+ghb
 *   impsim_cli --app graph500 --prefetcher=none --l2-prefetcher=imp
 */
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/config_file.hpp"
#include "server/client.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace impsim;

namespace {

std::uint64_t
parseUint(const std::string &flag, const std::string &value,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    // stoull would wrap "-4" to a huge value; reject signs up front.
    if (!value.empty() && value.find_first_not_of("0123456789") ==
                              std::string::npos) {
        try {
            std::uint64_t v = std::stoull(value);
            if (v <= max)
                return v;
            std::fprintf(stderr, "%s value '%s' is out of range (max %llu)\n",
                         flag.c_str(), value.c_str(),
                         static_cast<unsigned long long>(max));
            std::exit(1);
        } catch (const std::exception &) {
        }
    }
    std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n",
                 flag.c_str(), value.c_str());
    std::exit(1);
}

std::uint32_t
parseU32(const std::string &flag, const std::string &value)
{
    return static_cast<std::uint32_t>(parseUint(
        flag, value, std::numeric_limits<std::uint32_t>::max()));
}

/** The config key impsim_cli flag @p flag overrides, or nullptr. */
const ConfigKey *
findFlag(const std::string &flag)
{
    for (const ConfigKey &k : configKeys()) {
        if (k.flag && flag == k.flag)
            return &k;
    }
    return nullptr;
}

/**
 * The made-up config flag mode binds: a preset axis over the --preset
 * list. Names are quoted, so any flag text stays one list item and
 * reaches the binder's unknown-preset diagnostic as typed.
 */
ConfigFile
flagModeConfig(const std::string &presets)
{
    std::string items;
    for (const std::string &name : splitCommaList(presets)) {
        std::string quoted = "\"";
        for (char ch : name) {
            if (ch == '"' || ch == '\\')
                quoted += '\\';
            quoted += ch;
        }
        items += (items.empty() ? "" : ", ") + quoted + "\"";
    }
    return ConfigFile::parseString("[sweep]\npreset = [" + items + "]\n",
                                   "<command line>");
}

/** Writes the workload of @p exp's single run to @p path. */
int
recordFlagTrace(const Experiment &exp, const std::string &path)
{
    if (exp.runs.size() != 1) {
        std::fprintf(stderr, "--record-trace takes a single --preset "
                             "(it only picks the sw-prefetch flavor)\n");
        return 1;
    }
    const ExperimentRun &r = exp.runs[0];
    try {
        Workload w = makeWorkload(r.app, workloadParams(r));
        TraceWriteStats st = recordTrace(path, w.traces, *w.mem);
        std::printf("wrote %s: %llu records, %llu memory chunks "
                    "(%llu bytes before compression)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(st.recordCount),
                    static_cast<unsigned long long>(st.memChunkCount),
                    static_cast<unsigned long long>(st.decodedBytes));
    } catch (const TraceError &e) {
        // Replaying a bad source trace, a failing codec, or I/O.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config;
    std::string submit;
    std::string serverAddr;
    std::string fetchId;
    bool list = false;
    std::uint32_t priority = 0;
    bool check = false;
    // Flags become overrides on the bound config — the file in
    // declarative mode, local (--config) or remote (--submit), or the
    // made-up preset sweep in flag mode. One shared mapping, so the
    // paths cannot drift apart — drift would silently break the
    // submitted-equals-in-process invariant.
    CliOverrides cli;
    std::string presets;
    bool csv = false;
    unsigned jobs = 0;
    std::string recordTracePath;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string inline_val;
        bool has_inline = false;
        if (std::size_t eq = a.find('=');
            a.rfind("--", 0) == 0 && eq != std::string::npos) {
            inline_val = a.substr(eq + 1);
            a = a.substr(0, eq);
            has_inline = true;
        }
        auto next = [&]() -> std::string {
            if (has_inline)
                return inline_val;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (a == "--config")
            config = next();
        else if (a == "--submit")
            submit = next();
        else if (a == "--server")
            serverAddr = next();
        else if (a == "--fetch")
            fetchId = next();
        else if (a == "--list") {
            if (has_inline) {
                std::fprintf(stderr, "%s takes no value\n", a.c_str());
                return 1;
            }
            list = true;
        }
        else if (a == "--priority") {
            priority = parseU32(a, next());
            if (priority < 1 || priority > 100) {
                std::fprintf(stderr, "--priority must be in [1, 100]\n");
                return 1;
            }
        }
        else if (a == "--preset")
            presets = next();
        else if (a == "--csv" || a == "--check") {
            if (has_inline) {
                std::fprintf(stderr, "%s takes no value\n", a.c_str());
                return 1;
            }
            (a == "--csv" ? csv : check) = true;
        }
        else if (a == "--seed")
            cli.seed = parseUint(a, next());
        else if (a == "--jobs")
            jobs = parseU32(a, next());
        else if (a == "--record-trace")
            recordTracePath = next();
        else if (const ConfigKey *key = findFlag(a)) {
            // Every other override flag is "name=value" text that the
            // binder reads and checks like a config value.
            if (key->flagValue && has_inline) {
                std::fprintf(stderr, "%s takes no value\n", a.c_str());
                return 1;
            }
            cli.settings.push_back(key->name() + "=" +
                                   (key->flagValue ? key->flagValue
                                                   : next()));
        }
        else {
            std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
            return 1;
        }
    }

    if (check && config.empty()) {
        std::fprintf(stderr, "--check needs --config FILE\n");
        return 1;
    }
    if ((!submit.empty()) + (!fetchId.empty()) + (list ? 1 : 0) +
            (!config.empty()) + (!recordTracePath.empty()) >
        1) {
        std::fprintf(stderr,
                     "--submit, --fetch, --list, --config and "
                     "--record-trace are exclusive\n");
        return 1;
    }
    const bool wantsServer = !submit.empty() || !fetchId.empty() || list;
    if (wantsServer != !serverAddr.empty()) {
        std::fprintf(stderr, "--submit/--fetch/--list and --server ADDR "
                             "go together\n");
        return 1;
    }
    if (priority && submit.empty()) {
        std::fprintf(stderr, "--priority needs --submit\n");
        return 1;
    }

    if (!fetchId.empty())
        return server::fetchResult(serverAddr, fetchId, std::cout,
                                   std::cerr);
    if (list)
        return server::listJobs(serverAddr, std::cout, std::cerr);

    if (!submit.empty() || !config.empty()) {
        if (presets.find(',') != std::string::npos) {
            std::fprintf(stderr,
                         "--preset takes a single name with %s; "
                         "sweep presets via the file's [sweep] section\n",
                         submit.empty() ? "--config" : "--submit");
            return 1;
        }
        if (!presets.empty())
            cli.settings.push_back("preset=" + presets);
        if (!submit.empty()) {
            server::SubmitRequest req;
            req.csv = csv;
            if (priority)
                req.priority = static_cast<int>(priority);
            req.cli = cli;
            return server::submitAndWait(serverAddr, submit, req,
                                         std::cout, std::cerr);
        }
    }

    Experiment exp;
    try {
        if (!config.empty()) {
            exp = bindExperiment(ConfigFile::parseFile(config), cli);
        } else {
            exp = bindExperiment(
                flagModeConfig(presets.empty() ? "IMP" : presets), cli);
        }
    } catch (const ConfigError &e) {
        // Flag-mode values all come from the command line, so the
        // made-up file's line:column would only mislead.
        if (config.empty())
            std::fprintf(stderr, "%s: %s\n", e.origin().c_str(),
                         e.message().c_str());
        else
            std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    if (check) {
        std::printf("%s: OK (%zu run%s)\n", config.c_str(),
                    exp.runs.size(), exp.runs.size() == 1 ? "" : "s");
        return 0;
    }
    if (!recordTracePath.empty())
        return recordFlagTrace(exp, recordTracePath);

    // One run prints the full report (unless --csv), several fan out
    // over the SweepRunner and print CSV — in runExperiment(), the
    // exact code the job server runs, which is what makes `--submit`
    // bit-identical.
    ExperimentRunOptions opt;
    opt.csv = csv;
    opt.jobs = jobs;
    try {
        runExperiment(exp, std::cout, opt);
    } catch (const TraceError &e) {
        // The bind-time probe only reads the header; a trace that
        // rots past it (or disappears) surfaces here.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
