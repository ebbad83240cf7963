/**
 * @file
 * Sweep job server: accepts experiment configs over a socket and
 * executes them concurrently over a shared, fairly partitioned
 * worker pool, archiving finished results for later FETCH.
 *
 * Usage:
 *   impsim_serve --socket PATH [--tcp PORT] [--jobs N] [--queue N]
 *                [--max-active K] [--per-client-quota Q]
 *                [--results-dir DIR] [--results-max-bytes N]
 *                [--lease-runs R] [--ready-file PATH]
 *   impsim_serve --worker-of ADDR [--jobs N] [--ready-file PATH]
 *
 * --socket PATH        Unix-domain socket to listen on (created, and
 *                      removed again on shutdown)
 * --tcp PORT           additionally listen on 127.0.0.1:PORT (0 picks
 *                      an ephemeral port, printed on startup)
 * --jobs N             worker-pool slots = simulations running at
 *                      once, shared by all jobs (0 = hardware)
 * --queue N            queued-job capacity before SUBMITs are refused
 *                      (default 16)
 * --max-active K       jobs executing concurrently, each leasing a
 *                      weighted-fair slice of the pool (default 1)
 * --per-client-quota Q max concurrently active jobs per client;
 *                      0 = unlimited (default)
 * --results-dir DIR    persist finished results (manifest + CSV per
 *                      job) for reconnect/FETCH across restarts;
 *                      default is in-memory only
 * --results-max-bytes N  result-store payload bound before LRU
 *                      eviction (default 268435456)
 * --lease-runs R       runs per sub-batch when sweeps are sharded
 *                      over remote workers (default 4)
 * --ready-file PATH    touch PATH once all listeners are bound — a
 *                      race-free readiness signal for scripts and CI
 *                      (contents: one "unix PATH" / "tcp PORT" line
 *                      per listener; empty in worker mode, written
 *                      once registered); removed on exit
 *
 * Worker mode (the distributed sweep fabric, docs/job_server.md):
 * --worker-of ADDR     do not listen; connect to the coordinator at
 *                      ADDR (socket path or tcp:HOST:PORT), register,
 *                      and serve leased sub-batches, one lease at a
 *                      time, until it hangs up
 *
 * Clients speak the line protocol in docs/job_server.md; the
 * matching client is `impsim_cli --submit FILE --server PATH`, whose
 * output is bit-identical to running the same config in-process, and
 * `impsim_cli --fetch ID` / `--list` for stored results.
 * Stop with SIGINT/SIGTERM; outstanding jobs are cancelled at the
 * next simulation boundary.
 */
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "server/job_server.hpp"
#include "server/worker.hpp"

using namespace impsim;

int
main(int argc, char **argv)
{
    server::JobServerConfig cfg;
    server::WorkerOptions worker;
    std::string readyFile;
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
        auto parseInt = [&](const std::string &value, long min,
                            long max) -> long {
            char *end = nullptr;
            long v = std::strtol(value.c_str(), &end, 10);
            if (value.empty() || end == nullptr || *end != '\0' ||
                v < min || v > max) {
                std::fprintf(stderr, "%s needs an integer in [%ld, %ld], "
                             "got '%s'\n",
                             a.c_str(), min, max, value.c_str());
                std::exit(1);
            }
            return v;
        };
        if (a == "--socket") {
            cfg.socketPath = next();
        } else if (a == "--tcp") {
            cfg.tcpPort = static_cast<int>(parseInt(next(), 0, 65535));
        } else if (a == "--jobs") {
            cfg.workers =
                static_cast<unsigned>(parseInt(next(), 0, 1 << 20));
        } else if (a == "--queue") {
            cfg.queueCapacity =
                static_cast<std::size_t>(parseInt(next(), 1, 1 << 20));
        } else if (a == "--max-active") {
            cfg.maxActive =
                static_cast<unsigned>(parseInt(next(), 1, 1 << 10));
        } else if (a == "--per-client-quota") {
            cfg.perClientQuota =
                static_cast<std::size_t>(parseInt(next(), 0, 1 << 20));
        } else if (a == "--results-dir") {
            cfg.resultsDir = next();
        } else if (a == "--results-max-bytes") {
            cfg.resultsMaxBytes = static_cast<std::uint64_t>(
                parseInt(next(), 0, LONG_MAX));
        } else if (a == "--lease-runs") {
            cfg.leaseRuns =
                static_cast<std::size_t>(parseInt(next(), 1, 1 << 20));
        } else if (a == "--worker-of") {
            worker.coordinator = next();
        } else if (a == "--ready-file") {
            readyFile = next();
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
            return 1;
        }
    }
    if (!worker.coordinator.empty()) {
        if (!cfg.socketPath.empty() || cfg.tcpPort >= 0) {
            std::fprintf(stderr, "--worker-of excludes --socket/--tcp: "
                                 "a worker dials out, it does not "
                                 "listen\n");
            return 1;
        }
        worker.jobs = cfg.workers;
        worker.readyFile = readyFile;
        return server::runWorker(worker);
    }
    if (cfg.socketPath.empty() && cfg.tcpPort < 0) {
        std::fprintf(stderr,
                     "usage: impsim_serve --socket PATH [--tcp PORT] "
                     "[--jobs N] [--queue N] [--max-active K] "
                     "[--per-client-quota Q] [--results-dir DIR] "
                     "[--results-max-bytes N] [--lease-runs R] "
                     "[--ready-file PATH]\n"
                     "   or: impsim_serve --worker-of ADDR [--jobs N] "
                     "[--ready-file PATH]\n");
        return 1;
    }

    // Handle shutdown signals synchronously via sigwait: block them
    // everywhere (server threads inherit the mask), then park here.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    server::JobServer srv(cfg);
    try {
        srv.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "impsim_serve: %s\n", e.what());
        return 1;
    }
    if (!cfg.socketPath.empty())
        std::fprintf(stderr, "impsim_serve: listening on %s\n",
                     cfg.socketPath.c_str());
    if (cfg.tcpPort >= 0)
        std::fprintf(stderr, "impsim_serve: listening on tcp:127.0.0.1:%u\n",
                     srv.tcpPort());

    // The listeners are bound (start() returned), so a poller that
    // sees this file can connect immediately — no sleep races.
    if (!readyFile.empty()) {
        std::ofstream ready(readyFile, std::ios::trunc);
        if (!cfg.socketPath.empty())
            ready << "unix " << cfg.socketPath << "\n";
        if (cfg.tcpPort >= 0)
            ready << "tcp " << srv.tcpPort() << "\n";
        if (!ready.flush())
            std::fprintf(stderr,
                         "impsim_serve: cannot write ready file %s\n",
                         readyFile.c_str());
    }

    int sig = 0;
    sigwait(&set, &sig);
    std::fprintf(stderr, "impsim_serve: %s, shutting down\n",
                 strsignal(sig));
    srv.stop();
    if (!readyFile.empty())
        std::remove(readyFile.c_str());
    return 0;
}
