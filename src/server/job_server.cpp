/**
 * @file
 * Job-server implementation: listeners, per-connection protocol
 * loops, and the scheduler draining the fair queue.
 */
#include "server/job_server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"

namespace impsim {
namespace server {

namespace {

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

int
listenUnix(const std::string &path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket(AF_UNIX) failed");
    // A previous server instance leaves its socket file behind;
    // binding over it is the conventional reclaim.
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, 16) < 0) {
        int e = errno;
        ::close(fd);
        throw std::runtime_error("cannot listen on " + path + ": " +
                                 std::strerror(e));
    }
    return fd;
}

int
listenTcp(int port, std::uint16_t &boundPort)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket(AF_INET) failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the protocol has no authentication, so never
    // expose it beyond the machine by default.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, 16) < 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) < 0) {
        int e = errno;
        ::close(fd);
        throw std::runtime_error("cannot listen on tcp:127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(e));
    }
    boundPort = ntohs(addr.sin_port);
    return fd;
}

} // namespace

bool
JobServer::Connection::write(const std::string &s)
{
    MutexLock lock(writeMutex);
    int f = fd.load();
    if (f < 0)
        return false;
    if (writeAll(f, s))
        return true;
    // A failed (or timed-out) write may have landed a partial frame;
    // the stream is desynchronized, so the connection must die rather
    // than feed the peer later replies inside that frame.
    ::shutdown(f, SHUT_RDWR);
    return false;
}

void
JobServer::Connection::shutdownFd()
{
    int f = fd.load();
    if (f >= 0)
        ::shutdown(f, SHUT_RDWR);
}

void
JobServer::Connection::closeFd()
{
    MutexLock lock(writeMutex);
    int f = fd.exchange(-1);
    if (f >= 0)
        ::close(f);
}

JobServer::JobServer(JobServerConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.workers),
      queue_(cfg_.queueCapacity, cfg_.perClientQuota),
      store_(cfg_.resultsDir, cfg_.resultsMaxBytes)
{
    if (cfg_.maxActive == 0)
        cfg_.maxActive = 1;
}

JobServer::~JobServer()
{
    stop();
}

void
JobServer::start()
{
    if (running_.exchange(true))
        return;
    if (cfg_.socketPath.empty() && cfg_.tcpPort < 0)
        throw std::runtime_error("job server needs a socket or TCP port");
    if (::pipe(wakePipe_) < 0)
        throw std::runtime_error("pipe() failed");

    // Index archived results before taking submissions: job ids must
    // resume above everything on disk, or a fresh job could shadow a
    // stored result a reconnecting client still wants to FETCH. No
    // other thread exists yet, but the lock keeps the discipline
    // uniform (and the analysis quiet) for free.
    {
        MutexLock lock(jobsMutex_);
        nextJobId_ = store_.load() + 1;
    }

    if (!cfg_.socketPath.empty())
        listenFds_.push_back(listenUnix(cfg_.socketPath));
    if (cfg_.tcpPort >= 0)
        listenFds_.push_back(listenTcp(cfg_.tcpPort, tcpPort_));

    for (unsigned i = 0; i < cfg_.maxActive; ++i)
        runnerThreads_.emplace_back([this] { runnerLoop(); });
    for (int fd : listenFds_)
        listenThreads_.emplace_back([this, fd] { listenLoop(fd); });
}

void
JobServer::stop()
{
    if (!running_.load() || stopping_.exchange(true))
        return;

    // Wake and join the listeners first: no new connections.
    char byte = 0;
    (void)!::write(wakePipe_[1], &byte, 1);
    for (std::thread &t : listenThreads_)
        t.join();
    listenThreads_.clear();
    for (int fd : listenFds_)
        ::close(fd);
    listenFds_.clear();

    // Shut the connection sockets down BEFORE joining the runners: a
    // runner blocked in send() to a stalled client is unblocked by
    // the shutdown, so stop() cannot deadlock behind it (which is
    // also why this must not take the write mutexes). Readers wake
    // too and their threads run out.
    {
        MutexLock lock(connMutex_);
        for (ConnSlot &slot : connections_)
            slot.conn->shutdownFd();
    }

    // Cancel everything so the runners stop between simulations; the
    // pool close additionally fails workers blocked waiting for a
    // slot, so a runner cannot sit out a long lease queue first.
    {
        MutexLock lock(jobsMutex_);
        for (auto &entry : jobs_)
            entry.second->control.cancel();
    }
    queue_.close();
    pool_.close();
    for (std::thread &t : runnerThreads_)
        t.join();
    runnerThreads_.clear();

    std::vector<ConnSlot> slots;
    {
        MutexLock lock(connMutex_);
        slots.swap(connections_);
    }
    for (ConnSlot &slot : slots) {
        slot.thread.join();
        slot.conn->closeFd();
    }
    slots.clear();

    closeFd(wakePipe_[0]);
    closeFd(wakePipe_[1]);
    if (!cfg_.socketPath.empty())
        ::unlink(cfg_.socketPath.c_str());
    running_.store(false);
    stopping_.store(false);
}

void
JobServer::listenLoop(int listenFd)
{
    for (;;) {
        pollfd fds[2] = {{listenFd, POLLIN, 0}, {wakePipe_[0], POLLIN, 0}};
        int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents)
            return; // stop() woke us
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        // A client that stops reading mid-RESULT would otherwise park
        // the scheduler in send() forever; after the timeout the
        // delivery fails and the scheduler moves on (failure-modes
        // table in docs/job_server.md).
        timeval sndTimeout{};
        sndTimeout.tv_sec = 30;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &sndTimeout,
                     sizeof(sndTimeout));

        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        MutexLock lock(connMutex_);
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        // Reap connections whose reader already finished; their
        // threads are done, so join() returns immediately.
        for (std::size_t i = 0; i < connections_.size();) {
            if (connections_[i].conn->done.load()) {
                connections_[i].thread.join();
                connections_[i].conn->closeFd();
                connections_.erase(connections_.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        conn->clientId = nextClientId_++;
        ConnSlot slot;
        slot.conn = conn;
        slot.thread = std::thread([this, conn] { connectionLoop(conn); });
        connections_.push_back(std::move(slot));
    }
}

void
JobServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    conn->write("IMPSIM " + std::to_string(kProtocolVersion) + "\n");

    LineReader reader(conn->fd.load());
    std::string line;
    while (reader.readLine(line)) {
        std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        const std::string &cmd = tokens[0];
        if (cmd == "SUBMIT") {
            handleSubmit(*conn, reader, tokens);
        } else if (cmd == "STATUS") {
            handleStatus(*conn, tokens);
        } else if (cmd == "CANCEL") {
            handleCancel(*conn, tokens);
        } else if (cmd == "FETCH") {
            handleFetch(*conn, tokens);
        } else if (cmd == "LIST") {
            handleList(*conn);
        } else if (cmd == "WORKERS") {
            handleWorkers(*conn);
        } else if (cmd == "WORKER") {
            // The connection becomes a worker for good: handleWorker
            // runs its whole lease-serving life and only returns when
            // the peer is gone (or was rejected).
            handleWorker(conn, reader, tokens);
            break;
        } else if (cmd == "QUIT") {
            break;
        } else {
            if (!conn->write(errorFrame("unknown command '" + cmd + "'")))
                break;
        }
    }
    // The peer is gone (or QUIT). Its jobs keep running — finished
    // results land in the store, where a reconnecting client can LIST
    // and FETCH them (unwanted work is for CANCEL, not disconnect).
    // Only shut the fd down — the close happens after this thread is
    // joined (reaper or stop()), so the descriptor cannot be recycled
    // under a concurrent RESULT write.
    conn->shutdownFd();
    conn->done.store(true);
}

std::string
JobServer::errorFrame(std::string message)
{
    if (message.empty() || message.back() != '\n')
        message += '\n';
    return "ERROR " + std::to_string(message.size()) + "\n" + message;
}

std::string
JobServer::resultFrame(std::uint64_t id, const std::string &payload)
{
    return "RESULT " + std::to_string(id) + " " +
           std::to_string(payload.size()) + "\n" + payload + "DONE " +
           std::to_string(id) + "\n";
}

void
JobServer::handleSubmit(Connection &conn, LineReader &reader,
                        const std::vector<std::string> &tokens)
{
    SubmitRequest req;
    std::string error;
    if (!parseSubmitLine(tokens, req, error)) {
        // The announced payload length is unreadable, so the stream
        // is unframed from here; the reply is still well-formed and
        // the loop ends at the next garbage line.
        conn.write(errorFrame(error));
        return;
    }
    std::string text;
    if (!reader.readBytes(text, req.configBytes))
        return;

    auto job = std::make_shared<ServerJob>();
    try {
        job->exp = bindExperiment(
            ConfigFile::parseString(text, req.origin), req.cli);
    } catch (const ConfigError &e) {
        conn.write(errorFrame(e.what()));
        return;
    }
    job->clientId = conn.clientId;
    job->priority = req.priority;
    job->total = job->exp.runs.size();
    // Kept verbatim so the fabric can re-ship the job in LEASE
    // frames; the worker re-binds with the same binder, so both ends
    // expand the identical run list.
    job->configText = std::move(text);
    job->submit = req;

    std::shared_ptr<Connection> self;
    {
        MutexLock lock(connMutex_);
        for (const ConnSlot &slot : connections_) {
            if (slot.conn.get() == &conn) {
                self = slot.conn;
                break;
            }
        }
    }
    {
        MutexLock lock(jobsMutex_);
        job->id = nextJobId_++;
        jobs_[job->id] = job;
        if (self)
            jobConns_[job->id] = self;
    }

    // Holding writeMutex across push + QUEUED pins the wire order:
    // the scheduler cannot squeeze this job's RESULT in front of its
    // QUEUED, because delivery takes the same mutex.
    MutexLock wlock(conn.writeMutex);
    int fd = conn.fd.load();
    auto writeOrKill = [fd](const std::string &frame) {
        if (fd >= 0 && !writeAll(fd, frame))
            ::shutdown(fd, SHUT_RDWR); // partial frame: stream is dead
    };
    if (!queue_.push(job)) {
        {
            MutexLock lock(jobsMutex_);
            jobs_.erase(job->id);
            jobConns_.erase(job->id);
        }
        writeOrKill(errorFrame("queue full (" +
                               std::to_string(queue_.capacity()) +
                               " jobs queued); retry later"));
        return;
    }
    writeOrKill("QUEUED " + std::to_string(job->id) + "\n");
}

std::shared_ptr<ServerJob>
JobServer::findJob(const std::string &idToken)
{
    std::uint64_t id = 0;
    if (!parseNumber(idToken, id))
        return nullptr;
    MutexLock lock(jobsMutex_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

std::shared_ptr<JobServer::Connection>
JobServer::takeSubmitter(std::uint64_t jobId)
{
    MutexLock lock(jobsMutex_);
    auto it = jobConns_.find(jobId);
    if (it == jobConns_.end())
        return nullptr;
    std::shared_ptr<Connection> conn = std::move(it->second);
    jobConns_.erase(it);
    return conn;
}

void
JobServer::handleStatus(Connection &conn,
                        const std::vector<std::string> &tokens)
{
    if (tokens.size() != 2) {
        conn.write(errorFrame("STATUS: unknown job"));
        return;
    }
    if (std::shared_ptr<ServerJob> job = findJob(tokens[1])) {
        conn.write("STATUS " + std::to_string(job->id) + " " +
                   job->stateName() + " " +
                   std::to_string(job->done.load()) + "/" +
                   std::to_string(job->total) + "\n");
        return;
    }
    // Not live: terminal jobs answer from the store, until evicted.
    std::uint64_t id = 0;
    StoredResult meta;
    if (parseNumber(tokens[1], id) && store_.manifest(id, meta)) {
        conn.write("STATUS " + std::to_string(id) + " " + meta.state +
                   " " + std::to_string(meta.done) + "/" +
                   std::to_string(meta.total) + "\n");
        return;
    }
    // "gone" and "unknown" are different answers: gone means the id
    // was real and finished, but its archived result has since been
    // evicted — retrying cannot bring it back.
    if (parseNumber(tokens[1], id) && store_.wasEvicted(id)) {
        conn.write(errorFrame("STATUS: job " + std::to_string(id) +
                              " gone: its stored result was evicted"));
        return;
    }
    conn.write(errorFrame("STATUS: unknown job"));
}

void
JobServer::handleCancel(Connection &conn,
                        const std::vector<std::string> &tokens)
{
    std::shared_ptr<ServerJob> job =
        tokens.size() == 2 ? findJob(tokens[1]) : nullptr;
    if (!job) {
        std::uint64_t id = 0;
        StoredResult meta;
        if (tokens.size() == 2 && parseNumber(tokens[1], id) &&
            store_.manifest(id, meta)) {
            conn.write(errorFrame("CANCEL: job " + std::to_string(id) +
                                  " already " + meta.state));
        } else {
            conn.write(errorFrame("CANCEL: unknown job"));
        }
        return;
    }
    ServerJob::State s = job->state.load();
    if (s == ServerJob::State::Done || s == ServerJob::State::Cancelled) {
        conn.write(errorFrame("CANCEL: job " + std::to_string(job->id) +
                              " already " + job->stateName()));
        return;
    }

    job->control.cancel();
    if (std::shared_ptr<ServerJob> queued = queue_.remove(job->id)) {
        // Never ran; archive + notify the submitter directly.
        queued->state.store(ServerJob::State::Cancelled);
        finishJob(queued, std::string());
    }
    // A running job is reaped by its runner once the sweep notices.
    conn.write("CANCELLING " + std::to_string(job->id) + "\n");
}

void
JobServer::handleFetch(Connection &conn,
                       const std::vector<std::string> &tokens)
{
    std::uint64_t id = 0;
    if (tokens.size() != 2 || !parseNumber(tokens[1], id)) {
        conn.write(errorFrame("FETCH: unknown job"));
        return;
    }
    // Manifest first: a cancelled entry must not cost a payload read
    // or have its LRU slot refreshed ahead of fetchable results.
    StoredResult meta;
    if (store_.manifest(id, meta)) {
        if (meta.state != "done") {
            conn.write(errorFrame("FETCH: job " + std::to_string(id) +
                                  " was cancelled; no result"));
            return;
        }
        std::string payload;
        if (store_.fetch(id, meta, payload)) {
            conn.write(resultFrame(id, payload));
            return;
        }
        // Evicted (or files vanished) between the two lookups: fall
        // through to the unknown-job diagnostic.
    }
    if (std::shared_ptr<ServerJob> live = findJob(tokens[1])) {
        conn.write(errorFrame("FETCH: job " + std::to_string(id) +
                              " is still " + live->stateName() +
                              "; try again when done"));
        return;
    }
    if (store_.wasEvicted(id)) {
        conn.write(errorFrame("FETCH: job " + std::to_string(id) +
                              " gone: its stored result was evicted"));
        return;
    }
    conn.write(errorFrame("FETCH: unknown job"));
}

void
JobServer::handleList(Connection &conn)
{
    // One line per known job: live ones first-hand, terminal ones
    // from the store. A job mid-finish may appear in both; the live
    // entry wins (it carries the fresher state).
    std::map<std::uint64_t, std::string> lines;
    for (const StoredResult &meta : store_.list()) {
        lines[meta.id] = std::to_string(meta.id) + " " + meta.state +
                         " " + std::to_string(meta.done) + "/" +
                         std::to_string(meta.total) + " " +
                         std::to_string(meta.bytes) + " " +
                         escapeToken(meta.origin) + "\n";
    }
    {
        MutexLock lock(jobsMutex_);
        for (const auto &entry : jobs_) {
            const ServerJob &job = *entry.second;
            lines[job.id] = std::to_string(job.id) + " " +
                            job.stateName() + " " +
                            std::to_string(job.done.load()) + "/" +
                            std::to_string(job.total) + " 0 " +
                            escapeToken(job.submit.origin) + "\n";
        }
    }
    std::string payload;
    for (const auto &line : lines)
        payload += line.second;
    conn.write("JOBS " + std::to_string(payload.size()) + "\n" + payload);
}

void
JobServer::handleWorkers(Connection &conn)
{
    // Stage the payload under the fabric lock, write after — the lock
    // is never held across a socket write (a stalled client must not
    // block lease assignment).
    std::string payload;
    {
        MutexLock lock(fabricMutex_);
        for (const auto &worker : workers_) {
            FleetEntry e;
            e.workerId = worker.first;
            for (const auto &lease : leases_) {
                if (lease.second.workerId == worker.first)
                    ++e.activeLeases;
            }
            payload += formatFleetLine(e) + "\n";
        }
    }
    conn.write("FLEET " + std::to_string(payload.size()) + "\n" +
               payload);
}

void
JobServer::finishJob(const std::shared_ptr<ServerJob> &job,
                     const std::string &payload)
{
    // Archive first, then drop from the live table, then notify: a
    // STATUS/FETCH racing this sees the job in at least one of the
    // two places at every instant.
    StoredResult meta;
    meta.id = job->id;
    meta.state = job->state.load() == ServerJob::State::Done
                     ? "done"
                     : "cancelled";
    meta.done = job->done.load();
    meta.total = job->total;
    meta.origin = job->submit.origin;
    store_.put(meta, payload);

    std::shared_ptr<Connection> submitter = takeSubmitter(job->id);
    {
        MutexLock lock(jobsMutex_);
        jobs_.erase(job->id);
    }
    if (!submitter)
        return;
    if (meta.state == "done")
        submitter->write(resultFrame(job->id, payload));
    else
        submitter->write("CANCELLED " + std::to_string(job->id) + "\n");
}

void
JobServer::executeJob(const std::shared_ptr<ServerJob> &job)
{
    if (stopping_.load() || job->control.cancelled()) {
        job->state.store(ServerJob::State::Cancelled);
        finishJob(job, std::string());
        return;
    }
    job->state.store(ServerJob::State::Running);

    std::string payload;
    const bool completed = executeRows(job, payload);
    job->exp = Experiment{}; // the bound grid can be large
    job->configText = std::string();
    if (!completed) {
        job->state.store(ServerJob::State::Cancelled);
        finishJob(job, std::string());
        return;
    }
    job->done.store(job->total);
    job->state.store(ServerJob::State::Done);
    finishJob(job, payload);
}

// ---- Distributed sweep fabric (worker mode) --------------------------

namespace {

/** Bound on one ROW payload: a CSV row or a full single-run report. */
constexpr std::uint64_t kMaxRowBytes = 4u << 20;

} // namespace

void
JobServer::handleWorker(const std::shared_ptr<Connection> &conn,
                        LineReader &reader,
                        const std::vector<std::string> &tokens)
{
    std::uint64_t version = 0;
    if (tokens.size() < 2 || !parseNumber(tokens[1], version) ||
        version != static_cast<std::uint64_t>(kProtocolVersion)) {
        // A worker from a different build could expand a different
        // run list for the same config; refusing outright beats
        // silently corrupting a sweep.
        conn->write(errorFrame(
            "WORKER: protocol version mismatch (coordinator speaks " +
            std::to_string(kProtocolVersion) + ")"));
        return;
    }
    // Tokens after the version are ignored (forward compatibility).

    // REGISTERED goes out before the worker becomes visible to the
    // lease assigner, so no LEASE can overtake it on the wire.
    if (!conn->write("REGISTERED " + std::to_string(conn->clientId) +
                     "\n"))
        return;
    {
        MutexLock lock(fabricMutex_);
        workers_[conn->clientId] = conn;
        fabricCv_.notify_all();
    }
    assignPendingLeases();

    std::string line;
    while (reader.readLine(line)) {
        std::vector<std::string> t = splitTokens(line);
        if (t.empty())
            continue;
        std::uint64_t leaseId = 0;
        if (t[0] == "ROW" && t.size() == 4) {
            std::uint64_t run = 0;
            std::uint64_t nbytes = 0;
            if (!parseNumber(t[1], leaseId) || !parseNumber(t[2], run) ||
                !parseNumber(t[3], nbytes, kMaxRowBytes))
                break; // unframed stream: drop the worker
            std::string row;
            if (!reader.readBytes(row,
                                  static_cast<std::size_t>(nbytes)))
                break;
            handleWorkerRow(conn->clientId, leaseId, run, row);
        } else if (t[0] == "LEASEDONE" && t.size() == 2) {
            if (!parseNumber(t[1], leaseId))
                break;
            handleLeaseDone(conn->clientId, leaseId);
        } else if (t[0] == "LEASEFAIL" && t.size() == 3) {
            std::uint64_t nbytes = 0;
            if (!parseNumber(t[1], leaseId) ||
                !parseNumber(t[2], nbytes, kMaxRowBytes))
                break;
            std::string diag;
            if (!reader.readBytes(diag,
                                  static_cast<std::size_t>(nbytes)))
                break;
            // The worker could not even bind the lease's config — a
            // build-skew symptom. Drop the worker; its leases
            // re-queue to healthier peers (or the local fallback).
            std::fprintf(stderr,
                         "job server: worker %llu failed lease %llu: "
                         "%s\n",
                         static_cast<unsigned long long>(conn->clientId),
                         static_cast<unsigned long long>(leaseId),
                         diag.c_str());
            break;
        } else {
            break; // protocol violation
        }
    }
    unregisterWorker(conn->clientId);
}

void
JobServer::handleWorkerRow(std::uint64_t workerId, std::uint64_t leaseId,
                           std::uint64_t run, const std::string &row)
{
    MutexLock lock(fabricMutex_);
    auto lit = leases_.find(leaseId);
    if (lit == leases_.end() || lit->second.workerId != workerId)
        return; // stale: the lease was withdrawn or re-queued
    const Lease &lease = lit->second;
    if (run < lease.first || run >= lease.first + lease.count)
        return; // outside the leased range: ignore
    DistJob &dj = jobOf(lease);
    const auto idx = static_cast<std::size_t>(run);
    // A re-run after lease recovery can duplicate a row; the bytes
    // are identical by the determinism invariant, so first-in wins
    // and the count stays exact.
    if (dj.have[idx])
        return;
    dj.rows[idx] = row;
    dj.have[idx] = true;
    ++dj.haveCount;
    dj.job->done.store(dj.haveCount, std::memory_order_relaxed);
    fabricCv_.notify_all();
}

JobServer::DistJob &
JobServer::jobOf(const Lease &lease)
{
    auto jit = distJobs_.find(lease.jobId);
    IMPSIM_CHECK(jit != distJobs_.end(), "fabric lease outlived its job");
    return *jit->second;
}

void
JobServer::releaseLease(LeaseMap::iterator lit)
{
    Lease &lease = lit->second;
    const std::vector<bool> &have = jobOf(lease).have;
    for (std::size_t i = lease.first; i < lease.first + lease.count; ++i) {
        if (!have[i]) {
            lease.workerId = 0;
            return;
        }
    }
    // Every row arrived, even if the worker dropped before its
    // LEASEDONE: nothing of the lease is left to run.
    leases_.erase(lit);
}

void
JobServer::handleLeaseDone(std::uint64_t workerId, std::uint64_t leaseId)
{
    {
        MutexLock lock(fabricMutex_);
        auto lit = leases_.find(leaseId);
        if (lit == leases_.end() || lit->second.workerId != workerId)
            return; // stale
        releaseLease(lit);
    }
    assignPendingLeases(); // the worker is idle again
}

void
JobServer::unregisterWorker(std::uint64_t clientId)
{
    {
        MutexLock lock(fabricMutex_);
        if (workers_.erase(clientId) == 0)
            return;
        // The core of lease recovery: a SIGKILLed or severed worker
        // loses work, never the job.
        for (auto lit = leases_.begin(); lit != leases_.end(); ++lit) {
            if (lit->second.workerId == clientId) {
                releaseLease(lit);
                break;
            }
        }
        fabricCv_.notify_all();
    }
    assignPendingLeases();
}

void
JobServer::assignPendingLeases()
{
    struct Dispatch
    {
        std::shared_ptr<Connection> conn;
        std::string frame;
    };
    std::vector<Dispatch> out;
    {
        MutexLock lock(fabricMutex_);
        std::set<std::uint64_t> idle;
        for (const auto &worker : workers_)
            idle.insert(worker.first);
        for (const auto &entry : leases_)
            idle.erase(entry.second.workerId);
        auto next = idle.begin();
        for (auto lit = leases_.begin();
             lit != leases_.end() && next != idle.end(); ++lit) {
            Lease &lease = lit->second;
            if (lease.workerId != 0)
                continue;
            const ServerJob &job = *jobOf(lease).job;
            lease.workerId = *next++;
            LeaseRequest lr;
            lr.leaseId = lit->first;
            lr.firstRun = lease.first;
            lr.runCount = lease.count;
            lr.submit = job.submit;
            lr.submit.configBytes = job.configText.size();
            out.push_back(Dispatch{workers_.at(lease.workerId),
                                   formatLeaseLine(lr) + "\n" +
                                       job.configText});
        }
    }
    // Written after dropping the lock: a stalled worker must not
    // pin the fabric for its 30s send timeout. A failed write shuts
    // the connection down; its reader exits and unregisterWorker
    // frees the lease.
    for (Dispatch &d : out)
        d.conn->write(d.frame);
}

bool
JobServer::executeRows(const std::shared_ptr<ServerJob> &job,
                       std::string &payload)
{
    const std::size_t total = job->total;
    auto dist = std::make_shared<DistJob>();
    dist->job = job;
    dist->rows.assign(total, std::string());
    dist->have.assign(total, false);
    {
        // Contiguous sub-batches of leaseRuns runs (the last one
        // shorter), in run order. Rows are indexed by run, so the
        // split never reaches the output bytes.
        const std::size_t chunk = std::max<std::size_t>(cfg_.leaseRuns, 1);
        MutexLock lock(fabricMutex_);
        distJobs_[job->id] = dist;
        for (std::size_t first = 0; first < total; first += chunk) {
            leases_[nextLeaseId_++] =
                Lease{job->id, first, std::min(chunk, total - first), 0};
        }
    }
    assignPendingLeases();

    bool abort = false;
    struct Revoke
    {
        std::shared_ptr<Connection> conn;
        std::uint64_t id;
    };
    std::vector<Revoke> revokes;
    std::vector<std::size_t> missing;
    {
        MutexLock lock(fabricMutex_);
        for (;;) {
            if (dist->haveCount == total)
                break;
            if (job->control.cancelled() || stopping_.load()) {
                abort = true;
                break;
            }
            if (workers_.empty())
                break; // the local pool finishes the job
            // Timed wait: CANCEL flips an atomic the fabric is not
            // notified about, so poll it on a short period.
            fabricCv_.wait_for(lock, std::chrono::milliseconds(100));
        }
        // Withdraw the job from the fabric whatever the exit: erase
        // its leases, revoke the assigned ones (late ROW frames fail
        // the ownership check and fall harmlessly).
        for (auto it = leases_.begin(); it != leases_.end();) {
            if (it->second.jobId != job->id) {
                ++it;
                continue;
            }
            if (it->second.workerId != 0)
                revokes.push_back(
                    Revoke{workers_.at(it->second.workerId), it->first});
            it = leases_.erase(it);
        }
        distJobs_.erase(job->id);
        for (std::size_t i = 0; i < total; ++i) {
            if (!dist->have[i])
                missing.push_back(i);
        }
    }
    for (Revoke &r : revokes)
        r.conn->write("REVOKE " + std::to_string(r.id) + "\n");
    if (!revokes.empty())
        assignPendingLeases(); // their workers are idle again

    if (abort)
        return false;
    if (!missing.empty()) {
        // No worker is left (or none ever registered): run the
        // missing rows on the local pool. Progress resumes where the
        // fabric left off.
        ServerJob *raw = job.get();
        const std::size_t base = total - missing.size();
        job->control.onProgress = [raw,
                                   base](std::size_t done, std::size_t) {
            raw->done.store(base + done, std::memory_order_relaxed);
        };
        std::unique_ptr<WorkerPool::Lease> lease =
            pool_.lease(static_cast<double>(job->priority));
        ExperimentRunOptions opt;
        opt.csv = job->submit.csv;
        opt.jobs = pool_.slots();
        opt.control = &job->control;
        opt.lease = lease.get();
        std::vector<std::string> rows;
        bool ok;
        try {
            ok = runExperimentRuns(job->exp, missing, opt, rows);
        } catch (const TraceError &e) {
            // The SUBMIT-time bind only probed the trace header; a
            // trace that rots (or vanishes) between bind and run
            // surfaces here. Cancel the job, don't kill the runner.
            std::fprintf(stderr, "impsim_serve: job %llu: %s\n",
                         static_cast<unsigned long long>(job->id),
                         e.what());
            ok = false;
        }
        lease.reset();
        if (!ok)
            return false;
        for (std::size_t i = 0; i < missing.size(); ++i)
            dist->rows[missing[i]] = std::move(rows[i]);
    }

    // Rows are spliced by run index, so the bytes cannot depend on
    // which host ran which simulation.
    payload = experimentOutput(job->exp, job->submit.csv,
                               std::move(dist->rows));
    return true;
}

void
JobServer::runnerLoop()
{
    while (std::shared_ptr<ServerJob> job = queue_.pop()) {
        executeJob(job);
        // The quota slot frees only after the terminal state is
        // archived, so "active" counts whole jobs, not just sweeps.
        queue_.finished(job->clientId);
    }
}

} // namespace server
} // namespace impsim
