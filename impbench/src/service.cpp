/**
 * @file
 * The service workload: an in-process JobServer on a Unix socket, two
 * pool slots and two active jobs, driven closed-loop by two client
 * threads that each submit a fixed rotation of the shipped small
 * configs and wait for every RESULT before sending the next SUBMIT.
 */
#include <atomic>
#include <iostream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "common/config_file.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "sim/experiment_runner.hpp"

namespace impbench {

namespace {

using namespace impsim;

/** The rotation each client submits, relative to the checkout root. */
const char *const kConfigPaths[] = {
    "examples/configs/smoke.imp.ini",
    "examples/configs/tlb_smoke.imp.ini",
    "examples/configs/trace_smoke.ini",
};
constexpr std::size_t kNumConfigs = 3;
constexpr unsigned kClients = 2;
/** Pool slots; the in-process reference runs as wide. */
constexpr unsigned kSlots = 2;

/** One submitted config and what the in-process path makes of it. */
struct ServiceConfig
{
    std::string origin;
    std::string text;
    /** Generated inputs take the seed; the recorded trace has none. */
    bool seeded = false;
    /** runExperiment's bytes: every RESULT must equal them. */
    std::string expected;
    double inProcessMs = 0;
    std::vector<double> bindMs;
    std::uint64_t instructions = 0;
};

CliOverrides
overridesFor(const ServiceConfig &c, std::uint64_t seed)
{
    CliOverrides cli;
    if (c.seeded)
        cli.seed = seed;
    return cli;
}

/** Loads @p path and times the in-process path on it. */
ServiceConfig
prepareConfig(const std::string &path, std::uint64_t seed)
{
    ServiceConfig c;
    c.origin = path;
    if (!readFile(path, c.text))
        throw std::runtime_error("cannot read " + path);
    c.seeded = c.text.find("trace:") == std::string::npos;
    std::vector<double> total;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        Experiment exp = bindExperiment(
            ConfigFile::parseString(c.text, c.origin), overridesFor(c, seed));
        Clock::time_point t1 = Clock::now();
        std::ostringstream os;
        ExperimentRunOptions ro;
        ro.jobs = kSlots;
        if (!runExperiment(exp, os, ro))
            throw std::runtime_error("in-process run of " + path +
                                     " did not finish");
        Clock::time_point t2 = Clock::now();
        c.bindMs.push_back(msBetween(t0, t1));
        total.push_back(msBetween(t0, t2));
        if (rep == 0)
            c.expected = os.str();
        else if (os.str() != c.expected)
            throw std::runtime_error("in-process runs of " + path +
                                     " disagree");
    }
    c.inProcessMs = median(total);
    std::vector<std::string> lines = splitLines(c.expected);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::string body = rowBody(lines[i]);
        c.instructions += std::strtoull(
            body.c_str() + body.find(',', 1) + 1, nullptr, 10);
    }
    return c;
}

/** Phase times of one job, submit to RESULT. */
struct JobSample
{
    std::size_t config = 0;
    double connectMs = 0;
    double ackMs = 0;
    double execMs = 0;
    double resultMs = 0;
    double latencyMs = 0;
};

/** Closes a socket when the job's scope ends. */
struct FdGuard
{
    int fd;
    ~FdGuard() { ::close(fd); }
};

/** Reads one ERROR payload announced on @p tokens. */
std::string
errorPayload(server::LineReader &rd, const std::vector<std::string> &tokens)
{
    std::uint64_t n = 0;
    std::string payload;
    if (tokens.size() == 2 && server::parseNumber(tokens[1], n, 1 << 20))
        rd.readBytes(payload, n);
    return payload;
}

/**
 * Runs one job over a fresh connection, as `impsim_cli --submit` does.
 * @return "" on a RESULT identical to the in-process bytes, else why.
 */
std::string
runJob(const std::string &addr, const ServiceConfig &c, std::uint64_t seed,
       JobSample &js, Tracer &tr, std::uint64_t run)
{
    Clock::time_point t0 = Clock::now();
    std::string error;
    int fd = server::connectToServer(addr, error);
    if (fd < 0)
        return "connect: " + error;
    FdGuard guard{fd};
    server::LineReader rd(fd);
    std::string line;
    if (!rd.readLine(line) || line.rfind("IMPSIM ", 0) != 0)
        return "no greeting from the server";
    Clock::time_point t1 = Clock::now();

    server::SubmitRequest req;
    req.origin = c.origin;
    req.configBytes = c.text.size();
    req.cli = overridesFor(c, seed);
    if (!server::writeAll(fd, server::formatSubmitLine(req) + "\n") ||
        !server::writeAll(fd, c.text))
        return "connection lost while submitting";
    if (!rd.readLine(line))
        return "connection lost before QUEUED";
    std::vector<std::string> tokens = server::splitTokens(line);
    if (tokens.empty() || tokens[0] != "QUEUED")
        return "submit rejected: " + line + " " + errorPayload(rd, tokens);
    Clock::time_point t2 = Clock::now();

    std::string payload;
    Clock::time_point t3;
    for (;;) {
        if (!rd.readLine(line))
            return "connection lost before RESULT";
        tokens = server::splitTokens(line);
        if (tokens.empty())
            continue;
        if (tokens[0] == "RESULT" && tokens.size() == 3) {
            t3 = Clock::now();
            std::uint64_t n = 0;
            if (!server::parseNumber(tokens[2], n, 1u << 30) ||
                !rd.readBytes(payload, n))
                return "RESULT payload lost";
            break;
        }
        if (tokens[0] == "ERROR")
            return "job failed: " + errorPayload(rd, tokens);
        if (tokens[0] == "CANCELLED")
            return "job cancelled";
    }
    Clock::time_point t4 = Clock::now();
    if (!rd.readLine(line) || line.rfind("DONE", 0) != 0)
        return "no DONE after RESULT";

    js.connectMs = msBetween(t0, t1);
    js.ackMs = msBetween(t1, t2);
    js.execMs = msBetween(t2, t3);
    js.resultMs = msBetween(t3, t4);
    js.latencyMs = msBetween(t1, t4);
    std::uint64_t job = tr.open("job", run, 0, t0);
    tr.record("server.connect", run, job, t0, t1);
    tr.record("server.ack", run, job, t1, t2);
    tr.record("server.exec", run, job, t2, t3);
    tr.record("server.result", run, job, t3, t4);
    tr.close(job, t4);
    if (payload != c.expected)
        return "RESULT bytes of " + c.origin +
               " differ from in-process runExperiment";
    return "";
}

/** What one client thread saw in one measurement window. */
struct ClientLog
{
    std::vector<JobSample> jobs;
    std::vector<double> rotationS;
    Checks checks;
    Tracer spans{false};
};

/** Closed loop: whole rotations until @p deadline. */
void
clientLoop(unsigned id, const std::string &addr,
           const std::vector<ServiceConfig> &configs, std::uint64_t seed,
           Clock::time_point deadline, ClientLog &log,
           std::atomic<std::uint64_t> &next_run)
{
    std::size_t start = (seed + id) % kNumConfigs;
    while (Clock::now() < deadline) {
        Clock::time_point r0 = Clock::now();
        bool all_ok = true;
        for (std::size_t k = 0; k < kNumConfigs; ++k) {
            JobSample js;
            js.config = (start + k) % kNumConfigs;
            std::string why = runJob(addr, configs[js.config], seed, js,
                                     log.spans, next_run++);
            log.checks.record(why);
            if (why.empty())
                log.jobs.push_back(js);
            else
                all_ok = false;
        }
        if (all_ok)
            log.rotationS.push_back(secondsBetween(r0, Clock::now()));
    }
}

/** Everything one measurement window produced, merged over clients. */
struct Window
{
    std::vector<JobSample> jobs;
    std::vector<double> rotationS;
    double seconds = 0;
};

Window
measureWindow(const std::string &addr,
              const std::vector<ServiceConfig> &configs, std::uint64_t seed,
              double seconds, bool traced, Outcome &out, Tracer &spans,
              std::atomic<std::uint64_t> &next_run)
{
    std::vector<ClientLog> logs(kClients);
    for (ClientLog &log : logs)
        log.spans = Tracer(traced);
    Clock::time_point t0 = Clock::now();
    Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (unsigned id = 0; id < kClients; ++id)
        threads.emplace_back(clientLoop, id, std::cref(addr),
                             std::cref(configs), seed, deadline,
                             std::ref(logs[id]), std::ref(next_run));
    for (std::thread &t : threads)
        t.join();
    Window w;
    w.seconds = secondsBetween(t0, Clock::now());
    for (ClientLog &log : logs) {
        w.jobs.insert(w.jobs.end(), log.jobs.begin(), log.jobs.end());
        w.rotationS.insert(w.rotationS.end(), log.rotationS.begin(),
                           log.rotationS.end());
        out.checks.attempted += log.checks.attempted;
        out.checks.failed += log.checks.failed;
        spans.absorb(log.spans);
    }
    return w;
}

server::JobServerConfig
serverConfig(const Options &opt)
{
    server::JobServerConfig cfg;
    cfg.socketPath = opt.workDir + "/svc.sock";
    cfg.workers = kSlots;
    cfg.maxActive = 2;
    return cfg;
}

/** Server start until a client has its greeting, in seconds. */
double
startupOnce(const Options &opt)
{
    server::JobServerConfig cfg = serverConfig(opt);
    Clock::time_point t0 = Clock::now();
    server::JobServer srv(cfg);
    srv.start();
    std::string error;
    int fd = server::connectToServer(cfg.socketPath, error);
    if (fd < 0)
        throw std::runtime_error("server did not accept: " + error);
    FdGuard guard{fd};
    server::LineReader rd(fd);
    std::string line;
    if (!rd.readLine(line))
        throw std::runtime_error("server sent no greeting");
    return secondsBetween(t0, Clock::now());
}

template <typename Field>
double
jobMedian(const std::vector<JobSample> &jobs, Field field)
{
    std::vector<double> v;
    for (const JobSample &j : jobs)
        v.push_back(field(j));
    return median(v);
}

} // namespace

Outcome
runService(const Options &opt)
{
    Outcome out;
    std::vector<ServiceConfig> configs;
    for (const char *path : kConfigPaths)
        configs.push_back(prepareConfig(path, opt.seed));
    if (opt.injectBadRow)
        configs[0].expected += "0";

    // A start takes well under a millisecond, so many of them make
    // the median steady.
    std::vector<double> setups;
    if (!opt.trace) {
        for (int i = 0; i < 101; ++i)
            setups.push_back(startupOnce(opt));
    }

    server::JobServerConfig cfg = serverConfig(opt);
    server::JobServer srv(cfg);
    srv.start();
    Tracer spans(opt.trace);
    std::atomic<std::uint64_t> next_run{1};

    if (!opt.trace) {
        Window w = measureWindow(cfg.socketPath, configs, opt.seed,
                                 opt.seconds, false, out, spans, next_run);
        std::vector<double> latency;
        double instructions = 0;
        for (const JobSample &j : w.jobs) {
            latency.push_back(j.latencyMs);
            instructions +=
                static_cast<double>(configs[j.config].instructions);
        }
        out.e2e.wallS = median(w.rotationS);
        out.e2e.setupS = median(setups);
        out.e2e.simMips = 1e-6 * instructions / w.seconds;
        out.e2e.jobP50Ms = quantile(latency, 0.5);
        out.e2e.jobP90Ms = quantile(latency, 0.9);
        out.e2e.jobsPerS = static_cast<double>(w.jobs.size()) / w.seconds;
        std::cout << "service: " << w.jobs.size() << " jobs by " << kClients
                  << " closed-loop clients in " << w.seconds << " s\n";
    } else {
        // Half the window untraced, half traced: the rotation walls of
        // the two halves give the tracing overhead.
        Window plain = measureWindow(cfg.socketPath, configs, opt.seed,
                                     opt.seconds / 2, false, out, spans,
                                     next_run);
        Window traced = measureWindow(cfg.socketPath, configs, opt.seed,
                                      opt.seconds / 2, true, out, spans,
                                      next_run);
        PerLayer &l = out.layers;
        std::vector<double> binds;
        for (const ServiceConfig &c : configs)
            binds.insert(binds.end(), c.bindMs.begin(), c.bindMs.end());
        l.bindMs = median(binds);
        l.connectMs = jobMedian(traced.jobs,
                                [](const JobSample &j) { return j.connectMs; });
        l.ackMs =
            jobMedian(traced.jobs, [](const JobSample &j) { return j.ackMs; });
        l.execMs =
            jobMedian(traced.jobs, [](const JobSample &j) { return j.execMs; });
        l.resultMs = jobMedian(traced.jobs,
                               [](const JobSample &j) { return j.resultMs; });
        l.overheadMs = jobMedian(traced.jobs, [&](const JobSample &j) {
            return j.latencyMs - configs[j.config].inProcessMs;
        });
        l.tracedWallS = median(traced.rotationS);
        l.untracedWallS = median(plain.rotationS);
        spans.write(opt.spansOut);
    }
    srv.stop();
    out.e2e.peakRssMib = peakRssMib();
    return out;
}

} // namespace impbench
