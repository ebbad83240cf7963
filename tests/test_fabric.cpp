/**
 * @file
 * Distributed sweep fabric fault-injection tests.
 *
 * An in-process JobServer coordinator listens on a Unix socket;
 * real `impsim_serve --worker-of` worker processes are fork+exec'd
 * against it (their stdout/stderr land in fabric-logs/, which CI
 * uploads on failure). The load-bearing invariant: the assembled
 * result is byte-identical to an in-process run whatever happens to
 * the workers — sharded across two, SIGKILLed mid-sweep, or a
 * severed socket mid-lease — because rows are spliced by run index
 * and lost leases re-queue.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config_file.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

// TSan aborts a multi-threaded process that forks by default; the
// coordinator's threads are already up when the tests fork worker
// processes (fork is immediately followed by exec, so nothing racy
// ever runs in the child).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IMPSIM_FABRIC_TSAN 1
#endif
#endif
#if !defined(IMPSIM_FABRIC_TSAN) && defined(__SANITIZE_THREAD__)
#define IMPSIM_FABRIC_TSAN 1
#endif
#ifdef IMPSIM_FABRIC_TSAN
extern "C" const char *
__tsan_default_options()
{
    return "die_after_fork=0";
}
#endif

namespace impsim {
namespace {

using server::JobServer;
using server::JobServerConfig;
using server::LineReader;
using server::SubmitRequest;

std::string
tempSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/impsim_fab_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** An n-run single-workload sweep, cheap enough for CI. */
std::string
sweepText(int n)
{
    std::string pts;
    for (int i = 1; i <= n; ++i)
        pts += (i > 1 ? ", " : "") + std::to_string(i);
    return "[system]\n"
           "app = spmv\ncores = 4\nscale = 0.05\n"
           "[sweep]\npt = [" +
           pts + "]\n";
}

/** The in-process reference output for raw config text. */
std::string
inProcessOutputText(const std::string &text)
{
    Experiment exp =
        bindExperiment(ConfigFile::parseString(text, "<text>"), {});
    std::ostringstream os;
    EXPECT_TRUE(runExperiment(exp, os));
    return os.str();
}

/** A raw protocol connection (client or hand-driven fake worker). */
class RawClient
{
  public:
    explicit RawClient(const std::string &address) : reader_(-1)
    {
        std::string error;
        fd_ = server::connectToServer(address, error);
        EXPECT_GE(fd_, 0) << error;
        reader_ = LineReader(fd_);
        std::string line;
        EXPECT_TRUE(readLine(line));
        EXPECT_EQ(line.rfind("IMPSIM ", 0), 0u) << line;
    }

    ~RawClient() { close(); }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    bool send(const std::string &bytes)
    {
        return server::writeAll(fd_, bytes);
    }

    bool readLine(std::string &line) { return reader_.readLine(line); }
    bool readBytes(std::string &out, std::size_t n)
    {
        return reader_.readBytes(out, n);
    }

    /** SUBMITs @p text; returns the reply line ("QUEUED n" / error). */
    std::string submit(const std::string &text,
                       const std::string &extra = "")
    {
        EXPECT_TRUE(send("SUBMIT " + std::to_string(text.size()) +
                         extra + "\n" + text));
        std::string line;
        EXPECT_TRUE(readLine(line));
        if (line.rfind("ERROR ", 0) == 0) {
            std::string payload;
            EXPECT_TRUE(readBytes(payload, std::stoul(line.substr(6))));
            return "ERROR " + payload;
        }
        return line;
    }

    /**
     * Reads frames until this job's RESULT (true, payload filled) or
     * CANCELLED (false). Use on the submitting connection only.
     */
    bool awaitResult(const std::string &id, std::string &payload)
    {
        std::string line;
        while (readLine(line)) {
            std::vector<std::string> t = server::splitTokens(line);
            if (t.size() == 3 && t[0] == "RESULT" && t[1] == id) {
                if (!readBytes(payload, std::stoul(t[2])))
                    return false;
                readLine(line); // the trailing "DONE <id>"
                return true;
            }
            if (t.size() == 2 && t[0] == "CANCELLED" && t[1] == id)
                return false;
        }
        return false;
    }

    /** Polls STATUS until >= @p want runs are done (or terminal). */
    bool awaitDoneAtLeast(const std::string &id, std::size_t want)
    {
        for (int i = 0; i < 3000; ++i) {
            EXPECT_TRUE(send("STATUS " + id + "\n"));
            std::string line;
            if (!readLine(line))
                return false;
            std::vector<std::string> t = server::splitTokens(line);
            if (t.size() == 4 && t[0] == "STATUS" && t[1] == id) {
                std::size_t done = std::stoul(t[3]);
                if (done >= want)
                    return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }

    /** Polls STATUS until the job reaches @p state. */
    bool awaitState(const std::string &id, const std::string &state)
    {
        for (int i = 0; i < 600; ++i) {
            EXPECT_TRUE(send("STATUS " + id + "\n"));
            std::string line;
            if (!readLine(line))
                return false;
            if (line.rfind("STATUS " + id + " " + state, 0) == 0)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return false;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    LineReader reader_;
};

std::string
queuedId(const std::string &reply)
{
    EXPECT_EQ(reply.rfind("QUEUED ", 0), 0u) << reply;
    return reply.substr(7);
}

/** Every run's in-process row bytes, as a real worker streams them. */
std::vector<std::string>
inProcessRows(const std::string &text)
{
    Experiment exp =
        bindExperiment(ConfigFile::parseString(text, "<text>"), {});
    std::vector<std::size_t> all(exp.runs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::string> rows;
    EXPECT_TRUE(runExperimentRuns(exp, all, {}, rows));
    return rows;
}

// ---- Hand-driven fake workers ----------------------------------------

/** The WORKER handshake, on a raw connection. */
void
registerFake(RawClient &fake)
{
    ASSERT_TRUE(fake.send("WORKER " +
                          std::to_string(server::kProtocolVersion) + "\n"));
    std::string line;
    ASSERT_TRUE(fake.readLine(line));
    ASSERT_EQ(line.rfind("REGISTERED ", 0), 0u) << line;
}

/** Reads one LEASE frame (line plus config payload). */
server::LeaseRequest
readLease(RawClient &fake)
{
    server::LeaseRequest lease;
    std::string line, error, config;
    EXPECT_TRUE(fake.readLine(line));
    EXPECT_TRUE(
        server::parseLeaseLine(server::splitTokens(line), lease, error))
        << line << ": " << error;
    EXPECT_TRUE(fake.readBytes(config, lease.submit.configBytes));
    return lease;
}

/** Streams one ROW frame for run @p run of @p leaseId. */
bool
sendRow(RawClient &fake, std::uint64_t leaseId, std::size_t run,
        const std::string &row)
{
    return fake.send("ROW " + std::to_string(leaseId) + " " +
                     std::to_string(run) + " " +
                     std::to_string(row.size()) + "\n" + row);
}

bool
sendLeaseDone(RawClient &fake, std::uint64_t leaseId)
{
    return fake.send("LEASEDONE " + std::to_string(leaseId) + "\n");
}

/** The WORKERS reply, parsed. */
std::vector<server::FleetEntry>
fleetOf(RawClient &client)
{
    std::vector<server::FleetEntry> fleet;
    std::string line, payload;
    EXPECT_TRUE(client.send("WORKERS\n"));
    EXPECT_TRUE(client.readLine(line));
    EXPECT_EQ(line.rfind("FLEET ", 0), 0u) << line;
    EXPECT_TRUE(client.readBytes(payload, std::stoul(line.substr(6))));
    std::istringstream lines(payload);
    while (std::getline(lines, line)) {
        server::FleetEntry e;
        std::string error;
        EXPECT_TRUE(server::parseFleetLine(line, e, error))
            << line << ": " << error;
        fleet.push_back(e);
    }
    return fleet;
}

/**
 * Polls WORKERS until @p n workers are registered: a departed
 * worker's lease is freed in the same step that unlists it.
 */
bool
awaitFleetSize(RawClient &client, std::size_t n)
{
    for (int i = 0; i < 1500; ++i) {
        if (fleetOf(client).size() == n)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

// ---- Worker process management ---------------------------------------

/** One fork+exec'd `impsim_serve --worker-of` process. */
struct WorkerProc
{
    pid_t pid = -1;
    std::string logPath;
    std::string readyFile;

    bool running() const { return pid > 0; }

    /** SIGKILL, as the fault-injection tests demand. */
    void
    kill()
    {
        if (pid > 0)
            ::kill(pid, SIGKILL);
    }

    /** Waits for the process to exit, escalating to SIGKILL after
     *  ~10s; leaves the ready file alone. */
    int
    wait()
    {
        if (pid <= 0)
            return -1;
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                pid = -1;
                return status;
            }
            if (i == 500)
                ::kill(pid, SIGKILL);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        pid = -1;
        return -1;
    }

    /** wait(), then removes the ready file a killed worker leaves. */
    int
    reap()
    {
        int status = wait();
        std::remove(readyFile.c_str());
        return status;
    }
};

/**
 * Spawns a worker against @p coordinator, logging to
 * fabric-logs/worker_<tag>.log, and waits for its ready file — i.e.
 * for registration to complete.
 */
WorkerProc
spawnWorker(const std::string &coordinator, const std::string &tag)
{
    ::mkdir("fabric-logs", 0755); // cwd = build dir; EEXIST is fine
    WorkerProc w;
    w.logPath = "fabric-logs/worker_" + tag + "_" +
                std::to_string(::getpid()) + ".log";
    w.readyFile = "/tmp/impsim_fab_ready_" + tag + "_" +
                  std::to_string(::getpid());
    std::remove(w.readyFile.c_str());

    pid_t pid = ::fork();
    if (pid == 0) {
        int fd = ::open(w.logPath.c_str(),
                        O_CREAT | O_WRONLY | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execl(IMPSIM_SERVE_BIN, "impsim_serve", "--worker-of",
                coordinator.c_str(), "--jobs", "2", "--ready-file",
                w.readyFile.c_str(), static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }
    EXPECT_GT(pid, 0) << "fork failed";
    w.pid = pid;

    // Registration is quick, but TSan builds run everything ~10x
    // slower — poll generously.
    for (int i = 0; i < 1500; ++i) {
        struct stat st;
        if (::stat(w.readyFile.c_str(), &st) == 0)
            return w;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            ADD_FAILURE() << "worker " << tag
                          << " exited before registering; see "
                          << w.logPath;
            w.pid = -1;
            return w;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "worker " << tag << " never registered; see "
                  << w.logPath;
    return w;
}

JobServerConfig
coordinatorConfig(const std::string &socketPath, std::size_t leaseRuns)
{
    JobServerConfig cfg;
    cfg.socketPath = socketPath;
    cfg.workers = 2; // local fallback pool, kept small
    cfg.leaseRuns = leaseRuns;
    return cfg;
}

} // namespace

// ---- Tests -----------------------------------------------------------

TEST(Fabric, TwoWorkersShardedSweepMatchesLocal)
{
    const std::string text = sweepText(12);
    const std::string expected = inProcessOutputText(text);

    const std::string sock = tempSocketPath("shard");
    JobServer srv(coordinatorConfig(sock, 2));
    srv.start();
    WorkerProc w1 = spawnWorker(sock, "shard1");
    WorkerProc w2 = spawnWorker(sock, "shard2");
    ASSERT_TRUE(w1.running() && w2.running());

    RawClient client(sock);
    const std::string id = queuedId(client.submit(text));
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, expected)
        << "sharded result must be byte-identical to local";

    srv.stop();
    EXPECT_EQ(w1.reap(), 0) << "worker must exit 0 on coordinator EOF";
    EXPECT_EQ(w2.reap(), 0);

    // Both workers really took leases — the sweep was sharded, not
    // served by one.
    for (const WorkerProc *w : {&w1, &w2}) {
        std::ifstream log(w->logPath);
        std::string all((std::istreambuf_iterator<char>(log)),
                        std::istreambuf_iterator<char>());
        EXPECT_NE(all.find("lease"), std::string::npos)
            << w->logPath << " shows no lease activity:\n"
            << all;
    }
}

TEST(Fabric, WorkerRemovesItsReadyFileOnExit)
{
    const std::string sock = tempSocketPath("ready");
    JobServer srv(coordinatorConfig(sock, 4));
    srv.start();
    WorkerProc w = spawnWorker(sock, "ready");
    ASSERT_TRUE(w.running());

    srv.stop();
    EXPECT_EQ(w.wait(), 0) << "worker must exit 0 on coordinator EOF";
    struct stat st;
    EXPECT_NE(::stat(w.readyFile.c_str(), &st), 0)
        << w.readyFile << " outlived its worker";
    w.reap();
}

TEST(Fabric, SingleRunReportThroughWorker)
{
    const std::string text =
        "[system]\napp = spmv\ncores = 4\nscale = 0.05\n";
    const std::string expected = inProcessOutputText(text);

    const std::string sock = tempSocketPath("report");
    JobServer srv(coordinatorConfig(sock, 4));
    srv.start();
    WorkerProc w = spawnWorker(sock, "report");
    ASSERT_TRUE(w.running());

    RawClient client(sock);
    const std::string id = queuedId(client.submit(text));
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, expected)
        << "a remote single-run report must match in-process bytes";

    srv.stop();
    EXPECT_EQ(w.reap(), 0);
}

TEST(Fabric, WorkerSigkilledMidSweepLeasesRequeue)
{
    const std::string text = sweepText(16);
    const std::string expected = inProcessOutputText(text);

    const std::string sock = tempSocketPath("sigkill");
    // One run per lease: fine-grained progress, so the kill lands
    // mid-sweep with leases outstanding on both workers.
    JobServer srv(coordinatorConfig(sock, 1));
    srv.start();
    WorkerProc victim = spawnWorker(sock, "victim");
    WorkerProc survivor = spawnWorker(sock, "survivor");
    ASSERT_TRUE(victim.running() && survivor.running());

    RawClient client(sock);
    RawClient monitor(sock);
    const std::string id = queuedId(client.submit(text));

    // Let the sweep get going, then SIGKILL one worker mid-flight.
    ASSERT_TRUE(monitor.awaitDoneAtLeast(id, 2));
    victim.kill();
    victim.reap();

    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, expected)
        << "a SIGKILLed worker must cost no rows and duplicate none";

    srv.stop();
    EXPECT_EQ(survivor.reap(), 0);
}

TEST(Fabric, SeveredWorkerSocketRequeuesToLocalFallback)
{
    const std::string text = sweepText(6);
    const std::string expected = inProcessOutputText(text);

    const std::string sock = tempSocketPath("sever");
    JobServer srv(coordinatorConfig(sock, 2));
    srv.start();

    // A hand-driven fake worker: registers, accepts a lease, then
    // drops the connection without sending a single row.
    auto fake = std::make_unique<RawClient>(sock);
    ASSERT_NO_FATAL_FAILURE(registerFake(*fake));

    RawClient client(sock);
    const std::string id = queuedId(client.submit(text));

    // Take the first lease (line + byte-counted config payload)...
    std::string line;
    ASSERT_TRUE(fake->readLine(line));
    server::LeaseRequest lease;
    std::string error;
    ASSERT_TRUE(
        server::parseLeaseLine(server::splitTokens(line), lease, error))
        << line << ": " << error;
    std::string config;
    ASSERT_TRUE(fake->readBytes(config, lease.submit.configBytes));
    EXPECT_EQ(config, text)
        << "the lease must carry the verbatim config text";
    // ...and die mid-lease.
    fake.reset();

    // No workers remain, so the coordinator's local fallback must
    // finish every run the fake worker still owed.
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, expected)
        << "a severed socket mid-lease must lose no rows";

    srv.stop();
}

TEST(Fabric, RevokeOnCancelAndWorkerSurvives)
{
    const std::string sock = tempSocketPath("revoke");
    JobServer srv(coordinatorConfig(sock, 4));
    srv.start();
    WorkerProc w = spawnWorker(sock, "revoke");
    ASSERT_TRUE(w.running());

    RawClient client(sock);
    RawClient monitor(sock);
    const std::string id = queuedId(client.submit(sweepText(32)));
    ASSERT_TRUE(monitor.awaitDoneAtLeast(id, 1));
    ASSERT_TRUE(monitor.send("CANCEL " + id + "\n"));
    std::string line;
    ASSERT_TRUE(monitor.readLine(line));
    EXPECT_EQ(line, "CANCELLING " + id);

    std::string payload;
    EXPECT_FALSE(client.awaitResult(id, payload))
        << "a cancelled job must end CANCELLED, not RESULT";
    ASSERT_TRUE(monitor.awaitState(id, "cancelled"));

    // The worker lost its lease, not its life: a follow-up job must
    // still shard to it and come back byte-identical.
    const std::string text = sweepText(4);
    const std::string id2 = queuedId(client.submit(text));
    ASSERT_TRUE(client.awaitResult(id2, payload));
    EXPECT_EQ(payload, inProcessOutputText(text));

    srv.stop();
    EXPECT_EQ(w.reap(), 0);
}

TEST(Fabric, VersionMismatchedWorkerIsRejected)
{
    const std::string sock = tempSocketPath("vers");
    JobServer srv(coordinatorConfig(sock, 4));
    srv.start();

    RawClient fake(sock);
    ASSERT_TRUE(fake.send("WORKER 2\n")); // stale protocol
    std::string line;
    ASSERT_TRUE(fake.readLine(line));
    ASSERT_EQ(line.rfind("ERROR ", 0), 0u) << line;
    std::string diag;
    ASSERT_TRUE(fake.readBytes(diag, std::stoul(line.substr(6))));
    EXPECT_NE(diag.find("version"), std::string::npos) << diag;

    srv.stop();
}

TEST(Fabric, TraceReplaySweepShardsAndMatchesLocal)
{
    // Workers re-open the trace from their own filesystem (the lease
    // carries config text, never trace bytes), so a trace-replay
    // sweep must shard like any other and splice back byte-identical
    // to the in-process run.
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(AppId::Spmv, params);
    const std::string trace = "/tmp/impsim_fab_trace_" +
                              std::to_string(::getpid()) + ".imptrace";
    recordTrace(trace, direct.traces, *direct.mem);

    const std::string text = "[system]\n"
                             "app   = \"trace:" +
                             trace +
                             "\"\n"
                             "cores = 4\n"
                             "[sweep]\n"
                             "preset = [Base, IMP]\n";
    const std::string expected = inProcessOutputText(text);

    const std::string sock = tempSocketPath("trace");
    JobServer srv(coordinatorConfig(sock, 1));
    srv.start();
    WorkerProc w = spawnWorker(sock, "trace");
    ASSERT_TRUE(w.running());

    RawClient client(sock);
    const std::string id = queuedId(client.submit(text));
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, expected)
        << "a remotely replayed trace must match in-process bytes";

    srv.stop();
    EXPECT_EQ(w.reap(), 0);
    std::remove(trace.c_str());

    std::ifstream log(w.logPath);
    std::string all((std::istreambuf_iterator<char>(log)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("lease"), std::string::npos)
        << w.logPath << " shows no lease activity:\n"
        << all;
}

TEST(Fabric, CorruptTraceBodyOnWorkerRaisesLeaseFail)
{
    // A trace whose header probes clean but whose body is corrupt
    // passes SUBMIT-time binding everywhere, then fails replay on
    // the worker. The worker must answer with LEASEFAIL (not die in
    // the decoder), the coordinator must drop it, and — the local
    // fallback hitting the same corruption — the job must end
    // cancelled, never hung and never half-reported.
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(AppId::Spmv, params);
    const std::string trace = "/tmp/impsim_fab_badtrace_" +
                              std::to_string(::getpid()) + ".imptrace";
    recordTrace(trace, direct.traces, *direct.mem);
    {
        // Flip one byte well past the 40-byte header.
        std::fstream f(trace,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(4096);
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x5a);
        f.seekp(4096);
        f.write(&b, 1);
    }

    const std::string text = "[system]\n"
                             "app   = \"trace:" +
                             trace +
                             "\"\n"
                             "cores = 4\n"
                             "[sweep]\n"
                             "preset = [Base, IMP]\n";

    const std::string sock = tempSocketPath("badtrace");
    JobServer srv(coordinatorConfig(sock, 1));
    srv.start();
    WorkerProc w = spawnWorker(sock, "badtrace");
    ASSERT_TRUE(w.running());

    RawClient client(sock);
    RawClient monitor(sock);
    const std::string reply = client.submit(text);
    const std::string id = queuedId(reply); // header probe passes
    std::string payload;
    EXPECT_FALSE(client.awaitResult(id, payload))
        << "a corrupt trace body must cancel the job, not RESULT";
    ASSERT_TRUE(monitor.awaitState(id, "cancelled"));

    // The coordinator dropped the failing worker; its connection
    // close reads as coordinator EOF, so it must exit cleanly.
    EXPECT_EQ(w.reap(), 0);

    // The coordinator itself must shrug it off: a healthy follow-up
    // sweep (local fallback — the fleet is empty now) still matches.
    const std::string good = sweepText(4);
    const std::string id2 = queuedId(monitor.submit(good));
    ASSERT_TRUE(monitor.awaitResult(id2, payload));
    EXPECT_EQ(payload, inProcessOutputText(good));

    srv.stop();
    std::remove(trace.c_str());
}

TEST(Fabric, RequeuedLeaseGoesOutBeforeNewerOnes)
{
    // Two hand-driven workers on a four-lease sweep. The first dies
    // holding its lease; when the second frees up, it must get that
    // lease back ahead of the two newer pending ones.
    const std::string text = sweepText(4);
    const std::vector<std::string> rows = inProcessRows(text);

    const std::string sock = tempSocketPath("requeue");
    JobServer srv(coordinatorConfig(sock, 1));
    srv.start();
    auto w1 = std::make_unique<RawClient>(sock);
    ASSERT_NO_FATAL_FAILURE(registerFake(*w1));
    RawClient w2(sock);
    ASSERT_NO_FATAL_FAILURE(registerFake(w2));
    RawClient client(sock);
    RawClient monitor(sock);
    const std::string id = queuedId(client.submit(text));

    const server::LeaseRequest first = readLease(*w1);
    const server::LeaseRequest second = readLease(w2);
    ASSERT_EQ(first.firstRun, 0u);
    ASSERT_EQ(second.firstRun, 1u);

    w1.reset();
    ASSERT_TRUE(awaitFleetSize(monitor, 1));
    ASSERT_TRUE(sendRow(w2, second.leaseId, 1, rows[1]));
    ASSERT_TRUE(sendLeaseDone(w2, second.leaseId));

    const server::LeaseRequest next = readLease(w2);
    EXPECT_EQ(next.leaseId, first.leaseId)
        << "a re-queued lease must go out before newer ones";
    EXPECT_EQ(next.firstRun, 0u);
    const std::vector<server::FleetEntry> fleet = fleetOf(monitor);
    ASSERT_EQ(fleet.size(), 1u);
    EXPECT_EQ(fleet[0].activeLeases, 1u);

    // The local pool runs whatever the last worker still owed.
    w2.close();
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, inProcessOutputText(text));

    srv.stop();
}

TEST(Fabric, WorkerThatStreamedEveryRowIsNotRerun)
{
    // A worker streams every row of its lease, then dies before its
    // LEASEDONE. Nothing of that lease is left to run, so it must
    // not go out again.
    const std::string text = sweepText(4);
    const std::vector<std::string> rows = inProcessRows(text);

    const std::string sock = tempSocketPath("allrows");
    JobServer srv(coordinatorConfig(sock, 2));
    srv.start();
    auto w1 = std::make_unique<RawClient>(sock);
    ASSERT_NO_FATAL_FAILURE(registerFake(*w1));
    RawClient w2(sock);
    ASSERT_NO_FATAL_FAILURE(registerFake(w2));
    RawClient client(sock);
    RawClient monitor(sock);
    const std::string id = queuedId(client.submit(text));

    const server::LeaseRequest first = readLease(*w1);
    const server::LeaseRequest second = readLease(w2);
    ASSERT_EQ(first.firstRun, 0u);
    ASSERT_EQ(second.firstRun, 2u);

    ASSERT_TRUE(sendRow(*w1, first.leaseId, 0, rows[0]));
    ASSERT_TRUE(sendRow(*w1, first.leaseId, 1, rows[1]));
    w1.reset();
    ASSERT_TRUE(awaitFleetSize(monitor, 1));

    // w2 gives its own lease back unrun, as a revoked batch does, and
    // so is idle: the only lease left to hand out is that one.
    ASSERT_TRUE(sendLeaseDone(w2, second.leaseId));
    const server::LeaseRequest next = readLease(w2);
    EXPECT_EQ(next.firstRun, 2u)
        << "a lease whose rows all arrived went out again";

    w2.close();
    std::string payload;
    ASSERT_TRUE(client.awaitResult(id, payload));
    EXPECT_EQ(payload, inProcessOutputText(text));

    srv.stop();
}

TEST(Fabric, WorkersVerbReportsFleet)
{
    const std::string sock = tempSocketPath("fleet");
    JobServer srv(coordinatorConfig(sock, 4));
    srv.start();

    RawClient client(sock);

    // Empty fleet: an empty byte-counted payload, not an error.
    ASSERT_TRUE(client.send("WORKERS\n"));
    std::string line;
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line, "FLEET 0");

    WorkerProc w = spawnWorker(sock, "fleet");
    ASSERT_TRUE(w.running());

    const std::vector<server::FleetEntry> fleet = fleetOf(client);
    ASSERT_EQ(fleet.size(), 1u);
    EXPECT_EQ(fleet[0].activeLeases, 0u);

    // And through the real client helper (what `impsim_cli --list`
    // prints under its jobs table).
    std::ostringstream listOut, listErr;
    EXPECT_EQ(server::listJobs(sock, listOut, listErr), 0)
        << listErr.str();
    EXPECT_NE(listOut.str().find("workers:"), std::string::npos)
        << listOut.str();
    EXPECT_NE(listOut.str().find(" active=0"), std::string::npos)
        << listOut.str();

    srv.stop();
    EXPECT_EQ(w.reap(), 0);
}

} // namespace impsim
