/**
 * @file
 * Job-server end-to-end tests over real Unix/TCP sockets: the
 * load-bearing invariant is that a submitted config's streamed result
 * is bit-identical to running the same config in-process, per client,
 * with no interleaving — plus the failure modes (malformed configs,
 * CANCEL, queue-full backpressure) the server must survive.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/config_file.hpp"
#include "server/client.hpp"
#include "server/job_queue.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

using server::FairJobQueue;
using server::JobServer;
using server::JobServerConfig;
using server::LineReader;
using server::ServerJob;
using server::SubmitRequest;

std::string
sourcePath(const std::string &rel)
{
    return std::string(IMPSIM_SOURCE_DIR) + "/" + rel;
}

std::string
smokeConfigPath()
{
    return sourcePath("examples/configs/smoke.imp.ini");
}

/** A unique, short (sockaddr_un-sized) socket path per test. */
std::string
tempSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/impsim_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** Writes @p text to a temp file and returns its path. */
std::string
writeTempConfig(const char *tag, const std::string &text)
{
    std::string path = "/tmp/impsim_cfg_" + std::string(tag) + "_" +
                       std::to_string(::getpid()) + ".imp.ini";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
}

/** The in-process reference output for @p path with @p cli. */
std::string
inProcessOutput(const std::string &path, const CliOverrides &cli = {})
{
    Experiment exp = bindExperiment(ConfigFile::parseFile(path), cli);
    std::ostringstream os;
    EXPECT_TRUE(runExperiment(exp, os));
    return os.str();
}

/** A raw protocol connection for the tests that drive frames by hand. */
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

    ~RawClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
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
        EXPECT_TRUE(send("SUBMIT " + std::to_string(text.size()) + extra +
                         "\n" + text));
        std::string line;
        EXPECT_TRUE(readLine(line));
        if (line.rfind("ERROR ", 0) == 0) {
            std::string payload;
            EXPECT_TRUE(readBytes(payload, std::stoul(line.substr(6))));
            return "ERROR " + payload;
        }
        return line;
    }

    /** Polls STATUS until the job reaches @p state (with timeout). */
    bool awaitState(const std::string &id, const std::string &state)
    {
        for (int i = 0; i < 600; ++i) {
            EXPECT_TRUE(send("STATUS " + id + "\n"));
            std::string line;
            if (!readLine(line))
                return false;
            if (line.rfind("STATUS " + id + " " + state, 0) == 0)
                return true;
            // Completion notifications can interleave with STATUS
            // replies on this connection; skip anything else.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return false;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    LineReader reader_;
};

/** An n-run single-workload sweep: long enough to cancel mid-flight. */
std::string
longSweepText(int n = 32)
{
    std::string pts;
    for (int i = 1; i <= n; ++i)
        pts += (i > 1 ? ", " : "") + std::to_string(i);
    return "[system]\n"
           "app = spmv\ncores = 4\nscale = 0.05\n"
           "[sweep]\npt = [" + pts + "]\n";
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

TEST(FairJobQueue, RoundRobinAcrossClientsAndBackpressure)
{
    FairJobQueue q(3);
    auto mk = [](std::uint64_t id, std::uint64_t client) {
        auto j = std::make_shared<ServerJob>();
        j->id = id;
        j->clientId = client;
        return j;
    };
    // Client 1 queues two jobs before client 2's first.
    EXPECT_TRUE(q.push(mk(1, 1)));
    EXPECT_TRUE(q.push(mk(2, 1)));
    EXPECT_TRUE(q.push(mk(3, 2)));
    EXPECT_FALSE(q.push(mk(4, 2))) << "capacity 3 must refuse the 4th";

    // Fair pop order interleaves clients: 1, 3, 2 — not 1, 2, 3.
    EXPECT_EQ(q.pop()->id, 1u);
    EXPECT_EQ(q.pop()->id, 3u);
    EXPECT_EQ(q.pop()->id, 2u);
    EXPECT_EQ(q.size(), 0u);

    EXPECT_TRUE(q.push(mk(5, 1)));
    std::shared_ptr<ServerJob> removed = q.remove(5);
    ASSERT_TRUE(removed);
    EXPECT_EQ(removed->id, 5u);
    EXPECT_FALSE(q.remove(5));
    EXPECT_EQ(q.size(), 0u);

    q.close();
    EXPECT_FALSE(q.push(mk(6, 1)));
    EXPECT_EQ(q.pop(), nullptr);
}

TEST(FairJobQueue, HigherPriorityPopsFirstAcrossClients)
{
    FairJobQueue q(8);
    auto mk = [](std::uint64_t id, std::uint64_t client, int prio) {
        auto j = std::make_shared<ServerJob>();
        j->id = id;
        j->clientId = client;
        j->priority = prio;
        return j;
    };
    EXPECT_TRUE(q.push(mk(1, 1, 1)));
    EXPECT_TRUE(q.push(mk(2, 1, 5)));
    EXPECT_TRUE(q.push(mk(3, 2, 5)));
    EXPECT_TRUE(q.push(mk(4, 2, 1)));

    // Priority 5 drains first (round-robin within it: clients 1, 2),
    // then priority 1 (clients 1, 2) — submission order be damned.
    EXPECT_EQ(q.pop()->id, 2u);
    EXPECT_EQ(q.pop()->id, 3u);
    EXPECT_EQ(q.pop()->id, 1u);
    EXPECT_EQ(q.pop()->id, 4u);
}

TEST(FairJobQueue, QuotaDefersAClientsSecondJobUntilFinished)
{
    FairJobQueue q(8, /*perClientQuota=*/1);
    auto mk = [](std::uint64_t id, std::uint64_t client) {
        auto j = std::make_shared<ServerJob>();
        j->id = id;
        j->clientId = client;
        return j;
    };
    EXPECT_TRUE(q.push(mk(1, 1)));
    EXPECT_TRUE(q.push(mk(2, 1)));
    EXPECT_TRUE(q.push(mk(3, 2)));

    // Client 1's first job claims its whole quota; the next eligible
    // job is client 2's, and client 1's second stays queued.
    EXPECT_EQ(q.pop()->id, 1u);
    EXPECT_EQ(q.pop()->id, 3u);
    EXPECT_EQ(q.size(), 1u);

    // finished() frees the slot: job 2 becomes poppable (from a
    // blocked pop, as the server's runner threads use it).
    std::promise<std::uint64_t> popped;
    std::future<std::uint64_t> fut = popped.get_future();
    std::thread t([&] { popped.set_value(q.pop()->id); });
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout)
        << "job 2 must stay ineligible while job 1 is active";
    q.finished(1);
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(fut.get(), 2u);
    t.join();
}

TEST(FairJobQueue, AgingPromotesAStarvedLowPriorityJob)
{
    // A level passed over by kAgingPops pops gets its oldest job
    // bumped one priority level.
    const std::uint64_t aging = FairJobQueue::kAgingPops;
    auto mk = [](std::uint64_t id, std::uint64_t client, int prio) {
        auto j = std::make_shared<ServerJob>();
        j->id = id;
        j->clientId = client;
        j->priority = prio;
        return j;
    };
    auto popAll = [](FairJobQueue &q, std::size_t n) {
        std::vector<std::shared_ptr<ServerJob>> order;
        for (std::size_t i = 0; i < n; ++i) {
            order.push_back(q.pop());
            EXPECT_TRUE(order.back());
        }
        EXPECT_EQ(q.size(), 0u);
        return order;
    };

    // One low-priority job under a steady high-priority stream: job
    // 100 would never run under strict priority order. Every
    // kAgingPops pops of priority 10 promote it one level, and each
    // new level starts its count from zero, so 3 * kAgingPops + 4
    // pops lift it exactly three levels: still below the stream, so
    // it pops last — but it pops, at priority 4.
    FairJobQueue q(256);
    EXPECT_TRUE(q.push(mk(100, 7, 1)));
    for (std::uint64_t i = 1; i <= 3 * aging + 4; ++i)
        EXPECT_TRUE(q.push(mk(i, 1, 10)));
    auto order = popAll(q, 3 * aging + 5);
    EXPECT_EQ(order.back()->id, 100u);
    EXPECT_EQ(order.back()->priority, 4);

    // Same shape with enough high-priority traffic that the starved
    // job climbs all nine levels to the stream's own priority (no
    // sooner than 9 * kAgingPops pops) and then overtakes the tail of
    // the stream in the round-robin.
    FairJobQueue q2(256);
    EXPECT_TRUE(q2.push(mk(200, 7, 1)));
    const std::uint64_t stream = 9 * aging + 4;
    for (std::uint64_t i = 1; i <= stream; ++i)
        EXPECT_TRUE(q2.push(mk(i, 1, 10)));
    auto order2 = popAll(q2, stream + 1);
    std::size_t at = 0;
    while (at < order2.size() && order2[at]->id != 200u)
        ++at;
    ASSERT_LT(at, order2.size());
    EXPECT_EQ(order2[at]->priority, 10);
    EXPECT_GE(at, 9 * aging) << "one level per kAgingPops pops";
    EXPECT_LT(at, stream) << "the aged job must overtake the stream's tail";

    // Aging never lifts a job past the priority ceiling.
    FairJobQueue q3(256);
    EXPECT_TRUE(q3.push(mk(300, 7, server::kMaxPriority - 1)));
    for (std::uint64_t i = 1; i <= 2 * aging; ++i)
        EXPECT_TRUE(q3.push(mk(i, 1, server::kMaxPriority)));
    std::shared_ptr<ServerJob> aged;
    for (const auto &j : popAll(q3, 2 * aging + 1)) {
        if (j->id == 300u)
            aged = j;
    }
    ASSERT_TRUE(aged);
    EXPECT_EQ(aged->priority, server::kMaxPriority);
}

/** The single run @p cli binds on an empty config. */
ExperimentRun
boundRun(const CliOverrides &cli)
{
    Experiment exp = bindExperiment(ConfigFile::parseString(""), cli);
    EXPECT_EQ(exp.runs.size(), 1u);
    return exp.runs.at(0);
}

TEST(Protocol, SubmitLineRoundTripsOverridesExactly)
{
    // The --submit/--config bit-identity hinges on overrides
    // surviving the wire byte-exactly: doubles must round-trip
    // (std::to_string's 6 decimals would silently change --scale)
    // and a full-range uint64 --seed must parse back.
    SubmitRequest req;
    req.configBytes = 123;
    req.origin = "/tmp/dir with spaces/100%.imp.ini";
    req.csv = true;
    req.priority = 7;
    req.cli.settings = {"app=spmv",
                        "preset=IMP",
                        "cores=16",
                        "scale=0.012345678901234567",
                        "system.core_model=ooo",
                        "pt=8",
                        "ipd=4",
                        "distance=32",
                        "l1=imp+stream",
                        "l2=stream"};
    req.cli.seed = UINT64_MAX;

    const std::string line = server::formatSubmitLine(req);
    SubmitRequest back;
    std::string error;
    ASSERT_TRUE(server::parseSubmitLine(server::splitTokens(line), back,
                                        error))
        << error << " in: " << line;
    EXPECT_EQ(back.configBytes, req.configBytes);
    EXPECT_EQ(back.origin, req.origin);
    EXPECT_EQ(back.csv, req.csv);
    EXPECT_EQ(back.priority, req.priority);
    EXPECT_EQ(back.cli.settings, req.cli.settings);
    EXPECT_EQ(back.cli.seed, req.cli.seed);
    // Both ends bind the same machine, the scale bit-exact.
    const ExperimentRun sent = boundRun(req.cli);
    const ExperimentRun got = boundRun(back.cli);
    EXPECT_EQ(got.label, sent.label);
    EXPECT_EQ(got.scale, 0.012345678901234567) << "bit-exact, not close";
    EXPECT_EQ(got.seed, UINT64_MAX);
    EXPECT_EQ(got.cfg.coreModel, CoreModel::OutOfOrder);
    EXPECT_EQ(got.cfg.imp.ptEntries, 8u);
    EXPECT_EQ(got.cfg.imp.ipdEntries, 4u);
    EXPECT_EQ(got.cfg.imp.maxPrefetchDistance, 32u);
    EXPECT_EQ(got.cfg.prefetcherSpec, "imp+stream");
    EXPECT_EQ(got.cfg.l2PrefetcherSpec, "stream");

    // Tiny scales must not collapse to 0 on the wire.
    SubmitRequest tiny;
    tiny.cli.settings = {"scale=1e-7"};
    SubmitRequest tinyBack;
    ASSERT_TRUE(server::parseSubmitLine(
        server::splitTokens(server::formatSubmitLine(tiny)), tinyBack,
        error))
        << error;
    EXPECT_EQ(tinyBack.cli.settings, tiny.cli.settings);
    EXPECT_EQ(boundRun(tinyBack.cli).scale, 1e-7);
}

TEST(JobServer, TwoConcurrentClientsGetBitIdenticalCompleteResults)
{
    const std::string expected = inProcessOutput(smokeConfigPath());
    ASSERT_FALSE(expected.empty());
    ASSERT_NE(expected.find("label,"), std::string::npos);

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("pair");
    cfg.workers = 2;
    JobServer srv(cfg);
    srv.start();

    std::string got[2];
    int code[2] = {-1, -1};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&, c] {
            std::ostringstream out, err;
            code[c] = server::submitAndWait(cfg.socketPath,
                                            smokeConfigPath(),
                                            SubmitRequest{}, out, err);
            got[c] = out.str();
        });
    }
    for (std::thread &t : clients)
        t.join();
    srv.stop();

    for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(code[c], 0);
        // Bit-identical to the in-process run — and therefore also
        // complete and non-interleaved with the other client's rows.
        EXPECT_EQ(got[c], expected) << "client " << c;
    }
}

TEST(JobServer, Fig14PanelOverTheSocketMatchesInProcess)
{
    // The acceptance pairing: `--submit examples/configs/fig14.imp.ini`
    // against `--config` with identical override flags (narrowed to a
    // test-sized panel: the pt axis survives, 3 runs).
    CliOverrides cli;
    cli.settings = {"app=spmv", "cores=4", "scale=0.05"};
    const std::string fig14 = sourcePath("examples/configs/fig14.imp.ini");
    const std::string expected = inProcessOutput(fig14, cli);

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("fig14");
    JobServer srv(cfg);
    srv.start();

    SubmitRequest req;
    req.cli = cli;
    std::ostringstream out, err;
    EXPECT_EQ(server::submitAndWait(cfg.socketPath, fig14, req, out, err),
              0)
        << err.str();
    srv.stop();
    EXPECT_EQ(out.str(), expected);
}

TEST(JobServer, MalformedConfigEchoesDiagnosticAndServerSurvives)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("diag");
    JobServer srv(cfg);
    srv.start();

    // An unknown key, rejected by the binder with file:line:col.
    const std::string bad = writeTempConfig(
        "bad", "[system]\napp = spmv\nbogus_knob = 7\n");
    std::ostringstream out, err;
    EXPECT_EQ(server::submitAndWait(cfg.socketPath, bad, SubmitRequest{},
                                    out, err),
              1);
    EXPECT_TRUE(out.str().empty());
    // The diagnostic names the client-side file and the offending line.
    EXPECT_NE(err.str().find(bad + ":3"), std::string::npos) << err.str();

    // A syntax error (not just a binder error) too.
    const std::string garbage =
        writeTempConfig("garbage", "[system\napp = spmv\n");
    std::ostringstream out2, err2;
    EXPECT_EQ(server::submitAndWait(cfg.socketPath, garbage,
                                    SubmitRequest{}, out2, err2),
              1);
    EXPECT_NE(err2.str().find(garbage + ":1"), std::string::npos)
        << err2.str();

    // The server survives both and still executes real work.
    std::ostringstream out3, err3;
    EXPECT_EQ(server::submitAndWait(cfg.socketPath, smokeConfigPath(),
                                    SubmitRequest{}, out3, err3),
              0)
        << err3.str();
    EXPECT_EQ(out3.str(), inProcessOutput(smokeConfigPath()));
    srv.stop();
    std::remove(bad.c_str());
    std::remove(garbage.c_str());
}

TEST(JobServer, CancelMidSweepStopsTheJobAndReportsCancelled)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("cancel");
    cfg.workers = 1; // serialize the sweep so it cannot outrun CANCEL
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    std::string reply = client.submit(longSweepText());
    ASSERT_EQ(reply.rfind("QUEUED ", 0), 0u) << reply;
    const std::string id = reply.substr(7);

    ASSERT_TRUE(client.awaitState(id, "running"));
    ASSERT_TRUE(client.send("CANCEL " + id + "\n"));

    // Everything after the CANCEL must be CANCELLING + CANCELLED —
    // never a RESULT — though stale STATUS replies may still arrive.
    bool sawCancelling = false, sawCancelled = false;
    std::string line;
    while (!sawCancelled && client.readLine(line)) {
        ASSERT_EQ(line.rfind("RESULT", 0), std::string::npos)
            << "cancelled job must not deliver: " << line;
        if (line == "CANCELLING " + id)
            sawCancelling = true;
        else if (line == "CANCELLED " + id)
            sawCancelled = true;
    }
    EXPECT_TRUE(sawCancelling);
    EXPECT_TRUE(sawCancelled);

    // And the job's terminal state is visible to later STATUS polls.
    ASSERT_TRUE(client.awaitState(id, "cancelled"));
    srv.stop();
}

TEST(JobServer, QueueFullBackpressureRefusesSubmitWithError)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("full");
    cfg.workers = 1;
    cfg.queueCapacity = 1;
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    const std::string sweep = longSweepText();

    // Job 1 occupies the scheduler...
    std::string r1 = client.submit(sweep);
    ASSERT_EQ(r1.rfind("QUEUED ", 0), 0u) << r1;
    const std::string id1 = r1.substr(7);
    ASSERT_TRUE(client.awaitState(id1, "running"));

    // ...job 2 fills the 1-slot queue...
    std::string r2 = client.submit(sweep);
    ASSERT_EQ(r2.rfind("QUEUED ", 0), 0u) << r2;
    const std::string id2 = r2.substr(7);

    // ...and job 3 is refused with backpressure, not queued.
    std::string r3 = client.submit(sweep);
    EXPECT_EQ(r3.rfind("ERROR ", 0), 0u) << r3;
    EXPECT_NE(r3.find("queue full"), std::string::npos) << r3;

    // The refusal didn't corrupt the stream: CANCEL both live jobs.
    ASSERT_TRUE(client.send("CANCEL " + id2 + "\n"));
    ASSERT_TRUE(client.send("CANCEL " + id1 + "\n"));
    ASSERT_TRUE(client.awaitState(id1, "cancelled"));
    ASSERT_TRUE(client.awaitState(id2, "cancelled"));
    srv.stop();
}

TEST(JobServer, TcpListenerServesTheSameProtocol)
{
    JobServerConfig cfg;
    cfg.tcpPort = 0; // ephemeral loopback port
    JobServer srv(cfg);
    srv.start();
    ASSERT_NE(srv.tcpPort(), 0);

    std::ostringstream out, err;
    EXPECT_EQ(server::submitAndWait(
                  "tcp:127.0.0.1:" + std::to_string(srv.tcpPort()),
                  smokeConfigPath(), SubmitRequest{}, out, err),
              0)
        << err.str();
    srv.stop();
    EXPECT_EQ(out.str(), inProcessOutput(smokeConfigPath()));
}

TEST(JobClient, MalformedTcpPortIsABadAddressNotAConnectAttempt)
{
    // Nothing listens on these ports: a port that parsed loosely would
    // fail with "cannot connect", not with the address diagnostic.
    for (const char *port : {"7000junk", " +7000", "+7000", "-1", "0",
                             "65536", "", "99999999999999999999"}) {
        const std::string address = std::string("tcp:127.0.0.1:") + port;
        std::string error;
        EXPECT_EQ(server::connectToServer(address, error), -1) << address;
        EXPECT_EQ(error, "bad tcp address '" + address + "'");
    }
}

/**
 * A one-connection fake job server on a Unix socket: it greets, sends
 * @p reply, closes its sending side and reads until the client hangs
 * up, so a client that misses the bad reply sees EOF, not a hang.
 */
class FakeServer
{
  public:
    explicit FakeServer(const std::string &reply)
        : path_(tempSocketPath("fake"))
    {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd_, 1), 0);
        thread_ = std::thread([this, reply] {
            int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                return;
            server::writeAll(fd, "IMPSIM 5\n" + reply);
            ::shutdown(fd, SHUT_WR);
            char buf[4096];
            while (::read(fd, buf, sizeof(buf)) > 0) {
            }
            ::close(fd);
        });
    }

    ~FakeServer()
    {
        ::shutdown(listenFd_, SHUT_RDWR); // unblocks an unused accept
        thread_.join();
        ::close(listenFd_);
        ::unlink(path_.c_str());
    }

    FakeServer(const FakeServer &) = delete;
    FakeServer &operator=(const FakeServer &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int listenFd_ = -1;
    std::thread thread_;
};

TEST(JobClient, MalformedReplyNumberIsAProtocolError)
{
    using Call = int (*)(const std::string &, std::ostream &,
                         std::ostream &);
    const Call submit = [](const std::string &address, std::ostream &out,
                           std::ostream &err) {
        return server::submitAndWait(address, smokeConfigPath(),
                                     SubmitRequest{}, out, err);
    };
    const Call fetch = [](const std::string &address, std::ostream &out,
                          std::ostream &err) {
        return server::fetchResult(address, "1", out, err);
    };
    const Call list = &server::listJobs;
    const std::vector<std::pair<Call, std::string>> cases = {
        {submit, "QUEUED 1x\n"},    {submit, "ERROR x\n"},
        {submit, "RESULT 1 x\n"},   {submit, "RESULT 1 +5\n"},
        {fetch, "RESULT 1 x\n"},    {fetch, "ERROR -1\n"},
        {list, "JOBS x\n"},         {list, "JOBS 0\nFLEET 12junk\n"},
    };
    for (const auto &[call, reply] : cases) {
        FakeServer fake(reply);
        std::ostringstream out, err;
        EXPECT_EQ(call(fake.path(), out, err), 1) << reply;
        EXPECT_NE(err.str().find("protocol error: bad number"),
                  std::string::npos)
            << reply << err.str();
    }
}

TEST(JobServer, ConcurrentClientsTimesJobsStressBitIdentical)
{
    // The headline invariant under real concurrency: N clients x M
    // jobs with per-job overrides, up to 3 jobs active at once over a
    // 2-slot pool — every delivered result must be bit-identical to
    // the same config run via --config (inProcessOutput uses the same
    // runExperiment the CLI does).
    constexpr int kClients = 3;
    constexpr int kJobsPerClient = 2;

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("stress");
    cfg.workers = 2;
    cfg.maxActive = 3;
    JobServer srv(cfg);
    srv.start();

    // Distinct pt per (client, job): distinct outputs, so a crossed
    // delivery or interleaved write cannot pass by accident.
    auto ptFor = [](int c, int j) {
        return static_cast<std::uint32_t>(4u << (c + j));
    };
    std::string expected[kClients][kJobsPerClient];
    for (int c = 0; c < kClients; ++c) {
        for (int j = 0; j < kJobsPerClient; ++j) {
            CliOverrides cli;
            cli.settings = {"pt=" + std::to_string(ptFor(c, j))};
            expected[c][j] = inProcessOutput(smokeConfigPath(), cli);
            ASSERT_FALSE(expected[c][j].empty());
        }
    }
    ASSERT_NE(expected[0][0], expected[2][1])
        << "overrides must differentiate the outputs";

    std::string got[kClients][kJobsPerClient];
    int code[kClients][kJobsPerClient];
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                SubmitRequest req;
                req.cli.settings = {"pt=" + std::to_string(ptFor(c, j))};
                std::ostringstream out, err;
                code[c][j] = server::submitAndWait(
                    cfg.socketPath, smokeConfigPath(), req, out, err);
                got[c][j] = out.str();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    srv.stop();

    for (int c = 0; c < kClients; ++c) {
        for (int j = 0; j < kJobsPerClient; ++j) {
            SCOPED_TRACE("client " + std::to_string(c) + " job " +
                         std::to_string(j));
            EXPECT_EQ(code[c][j], 0);
            EXPECT_EQ(got[c][j], expected[c][j]);
        }
    }
}

TEST(JobServer, PerClientQuotaHoldsSecondJobWhileOthersRun)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("quota");
    cfg.workers = 2;
    cfg.maxActive = 2;
    cfg.perClientQuota = 1;
    JobServer srv(cfg);
    srv.start();

    RawClient a(cfg.socketPath);
    std::string r1 = a.submit(longSweepText(128));
    ASSERT_EQ(r1.rfind("QUEUED ", 0), 0u) << r1;
    const std::string id1 = r1.substr(7);
    std::string r2 = a.submit(longSweepText(128));
    ASSERT_EQ(r2.rfind("QUEUED ", 0), 0u) << r2;
    const std::string id2 = r2.substr(7);

    ASSERT_TRUE(a.awaitState(id1, "running"));
    // Two runner threads are free, but client a's quota is 1: its
    // second job must sit in the queue...
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(a.awaitState(id2, "queued"));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // ...while another client's first job sails through.
    RawClient b(cfg.socketPath);
    std::string r3 = b.submit(longSweepText(128));
    ASSERT_EQ(r3.rfind("QUEUED ", 0), 0u) << r3;
    const std::string id3 = r3.substr(7);
    ASSERT_TRUE(b.awaitState(id3, "running"));
    ASSERT_TRUE(a.awaitState(id2, "queued"));

    // Freeing a's slot admits its second job.
    ASSERT_TRUE(a.send("CANCEL " + id1 + "\n"));
    ASSERT_TRUE(a.awaitState(id2, "running"));

    ASSERT_TRUE(a.send("CANCEL " + id2 + "\n"));
    ASSERT_TRUE(b.send("CANCEL " + id3 + "\n"));
    ASSERT_TRUE(a.awaitState(id2, "cancelled"));
    ASSERT_TRUE(b.awaitState(id3, "cancelled"));
    srv.stop();
}

TEST(JobServer, PriorityJumpsTheQueueWhenFull)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("prio");
    cfg.workers = 1;
    cfg.maxActive = 1;
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    // A blocker occupies the single runner; then a default-priority
    // job and a priority-5 job pile up behind it.
    std::string rb = client.submit(longSweepText(128));
    ASSERT_EQ(rb.rfind("QUEUED ", 0), 0u) << rb;
    const std::string blocker = rb.substr(7);
    ASSERT_TRUE(client.awaitState(blocker, "running"));

    std::string rlow = client.submit(longSweepText(128));
    ASSERT_EQ(rlow.rfind("QUEUED ", 0), 0u) << rlow;
    const std::string low = rlow.substr(7);
    std::string rhigh = client.submit(longSweepText(128), " priority=5");
    ASSERT_EQ(rhigh.rfind("QUEUED ", 0), 0u) << rhigh;
    const std::string high = rhigh.substr(7);

    // Unblock: the later-submitted high-priority job must run next,
    // with the low-priority one still queued at that moment.
    ASSERT_TRUE(client.send("CANCEL " + blocker + "\n"));
    ASSERT_TRUE(client.awaitState(high, "running"));
    ASSERT_TRUE(client.awaitState(low, "queued"));

    ASSERT_TRUE(client.send("CANCEL " + high + "\n"));
    ASSERT_TRUE(client.send("CANCEL " + low + "\n"));
    ASSERT_TRUE(client.awaitState(high, "cancelled"));
    ASSERT_TRUE(client.awaitState(low, "cancelled"));
    srv.stop();
}

TEST(JobServer, DisconnectMidSweepThenReconnectAndFetch)
{
    // The reconnect story end-to-end: the submitter vanishes mid-
    // sweep, the job runs to completion anyway, and a later
    // connection FETCHes the stored result — bit-identical to the
    // in-process run of the same config.
    const std::string text = longSweepText(8);
    const std::string expected = inProcessOutputText(text);

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("reconnect");
    cfg.workers = 2;
    JobServer srv(cfg);
    srv.start();

    std::string id;
    {
        RawClient doomed(cfg.socketPath);
        std::string r = doomed.submit(text);
        ASSERT_EQ(r.rfind("QUEUED ", 0), 0u) << r;
        id = r.substr(7);
        ASSERT_TRUE(doomed.awaitState(id, "running"));
        // Scope exit closes the socket mid-sweep: the old server
        // cancelled here; now the job must survive its submitter.
    }

    RawClient later(cfg.socketPath);
    ASSERT_TRUE(later.awaitState(id, "done"));

    // FETCH through the real client helper (what --fetch runs).
    std::ostringstream out, err;
    EXPECT_EQ(server::fetchResult(cfg.socketPath, id, out, err), 0)
        << err.str();
    EXPECT_EQ(out.str(), expected);

    // And LIST (what --list runs) shows the archived job as done.
    std::ostringstream listOut, listErr;
    EXPECT_EQ(server::listJobs(cfg.socketPath, listOut, listErr), 0)
        << listErr.str();
    EXPECT_NE(listOut.str().find(id + " done 8/8"), std::string::npos)
        << listOut.str();
    // No fabric workers registered, so the fleet section says so.
    EXPECT_NE(listOut.str().find("workers: none"), std::string::npos)
        << listOut.str();
    srv.stop();
}

TEST(JobServer, EvictedResultGetsGoneDiagnosticNotUnknown)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("gone");
    cfg.workers = 1;
    cfg.resultsMaxBytes = 1; // every archive evicts its predecessor
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    const std::string text =
        "[system]\napp = spmv\ncores = 4\nscale = 0.05\n";

    // Submit and drain the pushed RESULT so later frames line up.
    auto runOne = [&]() -> std::string {
        std::string reply = client.submit(text);
        EXPECT_EQ(reply.rfind("QUEUED ", 0), 0u) << reply;
        std::string id = reply.substr(7);
        std::string line;
        while (client.readLine(line)) {
            std::vector<std::string> t = server::splitTokens(line);
            if (t.size() == 3 && t[0] == "RESULT" && t[1] == id) {
                std::string payload;
                EXPECT_TRUE(
                    client.readBytes(payload, std::stoul(t[2])));
                client.readLine(line); // the trailing "DONE <id>"
                return id;
            }
        }
        ADD_FAILURE() << "no RESULT frame for job " << id;
        return id;
    };
    auto errorPayload = [&](const std::string &frame) -> std::string {
        EXPECT_TRUE(client.send(frame));
        std::string line;
        EXPECT_TRUE(client.readLine(line));
        EXPECT_EQ(line.rfind("ERROR ", 0), 0u) << line;
        std::string payload;
        EXPECT_TRUE(
            client.readBytes(payload, std::stoul(line.substr(6))));
        return payload;
    };

    const std::string id1 = runOne();
    const std::string id2 = runOne(); // archiving id2 evicts id1

    // "gone" is a different answer from "unknown": the id existed,
    // its stored result was LRU-evicted.
    EXPECT_NE(errorPayload("STATUS " + id1 + "\n").find("gone"),
              std::string::npos);
    EXPECT_NE(errorPayload("FETCH " + id1 + "\n").find("gone"),
              std::string::npos);
    EXPECT_NE(errorPayload("STATUS 987654\n").find("unknown"),
              std::string::npos);
    EXPECT_NE(errorPayload("FETCH 987654\n").find("unknown"),
              std::string::npos);

    // The surviving newest entry still FETCHes normally.
    EXPECT_TRUE(client.send("FETCH " + id2 + "\n"));
    std::string line;
    ASSERT_TRUE(client.readLine(line));
    EXPECT_EQ(line.rfind("RESULT " + id2 + " ", 0), 0u) << line;
    srv.stop();
}

TEST(JobServer, ResultStoreSurvivesServerRestart)
{
    // Same socket path, same results dir, a brand-new JobServer: the
    // archive must reload, serve FETCH bit-identically, and hand out
    // fresh ids above everything stored.
    const std::string resultsDir =
        "/tmp/impsim_results_" + std::to_string(::getpid());
    const std::string expected = inProcessOutput(smokeConfigPath());

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("restart");
    cfg.workers = 2;
    cfg.resultsDir = resultsDir;

    std::string id;
    {
        JobServer srv(cfg);
        srv.start();
        std::ostringstream out, err;
        ASSERT_EQ(server::submitAndWait(cfg.socketPath, smokeConfigPath(),
                                        SubmitRequest{}, out, err),
                  0)
            << err.str();
        std::ostringstream listOut, listErr;
        ASSERT_EQ(server::listJobs(cfg.socketPath, listOut, listErr), 0);
        std::istringstream first(listOut.str());
        first >> id;
        ASSERT_FALSE(id.empty());
        srv.stop();
    }

    JobServer srv2(cfg);
    srv2.start();
    std::ostringstream out, err;
    EXPECT_EQ(server::fetchResult(cfg.socketPath, id, out, err), 0)
        << err.str();
    EXPECT_EQ(out.str(), expected);

    // A job submitted to the restarted server gets a higher id.
    RawClient client(cfg.socketPath);
    std::string r = client.submit(longSweepText(2));
    ASSERT_EQ(r.rfind("QUEUED ", 0), 0u) << r;
    EXPECT_GT(std::stoull(r.substr(7)), std::stoull(id));
    ASSERT_TRUE(client.awaitState(r.substr(7), "done"));
    srv2.stop();

    // Clean the archive (flat "<id>.manifest"/"<id>.csv" layout).
    for (std::uint64_t i = 0; i < 16; ++i) {
        std::remove(
            (resultsDir + "/" + std::to_string(i) + ".manifest").c_str());
        std::remove(
            (resultsDir + "/" + std::to_string(i) + ".csv").c_str());
    }
    ::rmdir(resultsDir.c_str());
}

TEST(JobServer, CorruptTraceBodyWithNoWorkersCancelsTheJob)
{
    // A trace whose header probes clean but whose body is corrupt
    // passes SUBMIT-time binding, then fails replay on the server's
    // own pool — the failure path every row run locally shares. The
    // job must end cancelled: no RESULT, no hang, no dead runner.
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(AppId::Spmv, params);
    const std::string trace = "/tmp/impsim_badtrace_" +
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

    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("badtrace");
    cfg.workers = 2;
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    // A hung job must fail the test, not stall it until the ctest
    // timeout: bound every read.
    timeval timeout{};
    timeout.tv_sec = 120;
    ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    std::string reply = client.submit("[system]\n"
                                      "app   = \"trace:" +
                                      trace +
                                      "\"\n"
                                      "cores = 4\n"
                                      "[sweep]\n"
                                      "preset = [Base, IMP]\n");
    ASSERT_EQ(reply.rfind("QUEUED ", 0), 0u) << reply; // header probes OK
    const std::string id = reply.substr(7);
    bool cancelled = false;
    std::string line;
    while (!cancelled && client.readLine(line)) {
        ASSERT_EQ(line.rfind("RESULT", 0), std::string::npos)
            << "a corrupt trace body must cancel the job: " << line;
        cancelled = line == "CANCELLED " + id;
    }
    EXPECT_TRUE(cancelled);
    ASSERT_TRUE(client.awaitState(id, "cancelled"));

    // The server shrugs it off: a healthy sweep submitted afterwards
    // still matches the in-process bytes.
    const std::string good = writeTempConfig("good", longSweepText(4));
    std::ostringstream out, err;
    EXPECT_EQ(server::submitAndWait(cfg.socketPath, good, SubmitRequest{},
                                    out, err),
              0)
        << err.str();
    EXPECT_EQ(out.str(), inProcessOutput(good));
    srv.stop();
    std::remove(good.c_str());
    std::remove(trace.c_str());
}

TEST(JobServer, StopWithInFlightWorkShutsDownPromptly)
{
    JobServerConfig cfg;
    cfg.socketPath = tempSocketPath("stop");
    cfg.workers = 1;
    JobServer srv(cfg);
    srv.start();

    RawClient client(cfg.socketPath);
    std::string r1 = client.submit(longSweepText());
    ASSERT_EQ(r1.rfind("QUEUED ", 0), 0u) << r1;
    std::string r2 = client.submit(longSweepText());
    ASSERT_EQ(r2.rfind("QUEUED ", 0), 0u) << r2;

    // stop() cancels both jobs at the next simulation boundary and
    // joins every thread; the ctest TIMEOUT turns a deadlock into a
    // failure instead of a hung suite.
    srv.stop();
}

} // namespace
} // namespace impsim
