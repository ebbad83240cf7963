/**
 * @file
 * Remote worker implementation: registration handshake, lease queue,
 * and the executor that streams rows back.
 *
 * Threading: the main thread owns the socket's read side (LEASE and
 * REVOKE frames); one executor thread owns the write side after the
 * handshake (ROW/LEASEDONE/LEASEFAIL frames). One side reading and
 * one writing never collide, so no write lock is needed — the shared
 * state is only the lease queue and the active-lease cancellation
 * hook.
 */
#include "server/worker.hpp"

#include <cstdio>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/config_file.hpp"
#include "common/thread_annotations.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"

namespace impsim {
namespace server {

namespace {

/** One LEASE frame waiting for the executor. */
struct LeaseTask
{
    LeaseRequest req;
    std::string text;
};

/**
 * The reader/executor rendezvous: a FIFO of leases plus the hook to
 * cancel the one being executed (REVOKE, or coordinator EOF).
 */
class LeaseQueue
{
  public:
    void
    push(LeaseTask task)
    {
        {
            MutexLock lock(mutex_);
            queue_.push_back(std::move(task));
        }
        cv_.notify_all();
    }

    /** No more leases; pop() drains the backlog then fails. */
    void
    close()
    {
        {
            MutexLock lock(mutex_);
            closed_ = true;
            if (activeCtl_)
                activeCtl_->cancel();
        }
        cv_.notify_all();
    }

    /**
     * Drops @p leaseId if still queued, or cancels it if the
     * executor is on it right now; unknown ids (already finished,
     * or lost to a pop/activate race) are a no-op — any rows the
     * doomed batch still sends are stale on the coordinator side.
     */
    void
    revoke(std::uint64_t leaseId)
    {
        MutexLock lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->req.leaseId == leaseId) {
                queue_.erase(it);
                return;
            }
        }
        if (activeLease_ == leaseId && activeCtl_)
            activeCtl_->cancel();
    }

    /**
     * Blocks for the next lease and marks it active under the same
     * lock (so a REVOKE can never fall between pop and activation).
     * @return false when closed and drained.
     */
    bool
    pop(LeaseTask &task, SweepControl &ctl)
    {
        MutexLock lock(mutex_);
        while (queue_.empty() && !closed_)
            cv_.wait(lock);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
        activeLease_ = task.req.leaseId;
        activeCtl_ = &ctl;
        if (closed_)
            ctl.cancel(); // shutting down: don't start simulating
        return true;
    }

    void
    finish()
    {
        MutexLock lock(mutex_);
        activeLease_ = 0;
        activeCtl_ = nullptr;
    }

  private:
    Mutex mutex_;
    CondVar cv_;
    std::deque<LeaseTask> queue_ IMPSIM_GUARDED_BY(mutex_);
    bool closed_ IMPSIM_GUARDED_BY(mutex_) = false;
    std::uint64_t activeLease_ IMPSIM_GUARDED_BY(mutex_) = 0;
    SweepControl *activeCtl_ IMPSIM_GUARDED_BY(mutex_) = nullptr;
};

/** The byte-counted LEASEFAIL frame for @p diag. */
std::string
leaseFailFrame(std::uint64_t leaseId, std::string diag)
{
    if (diag.empty() || diag.back() != '\n')
        diag += '\n';
    return "LEASEFAIL " + std::to_string(leaseId) + " " +
           std::to_string(diag.size()) + "\n" + diag;
}

/**
 * Runs one lease and streams its outcome to @p fd. All rows plus the
 * LEASEDONE go out in one write, so a severed connection loses the
 * whole batch, never half a frame.
 * @return false when the socket is dead — time to exit.
 */
bool
serveLease(int fd, const LeaseTask &task, SweepControl &ctl,
           unsigned jobs)
{
    const LeaseRequest &req = task.req;
    Experiment exp;
    try {
        exp = bindExperiment(
            ConfigFile::parseString(task.text, req.submit.origin),
            req.submit.cli);
    } catch (const ConfigError &e) {
        // Binding succeeded on the coordinator, so either the two
        // ends run different builds, or the config replays a trace
        // this host doesn't have (workers re-open trace files from
        // their local filesystem — the bytes never travel in the
        // LEASE). LEASEFAIL carries the diagnostic back.
        return writeAll(fd, leaseFailFrame(req.leaseId, e.what()));
    }
    if (req.firstRun + req.runCount > exp.runs.size() ||
        req.firstRun + req.runCount < req.firstRun) {
        return writeAll(
            fd, leaseFailFrame(
                    req.leaseId,
                    "lease range [" + std::to_string(req.firstRun) +
                        ", +" + std::to_string(req.runCount) +
                        ") exceeds the experiment's " +
                        std::to_string(exp.runs.size()) + " runs"));
    }

    std::vector<std::size_t> indices;
    indices.reserve(req.runCount);
    for (std::size_t i = 0; i < req.runCount; ++i)
        indices.push_back(req.firstRun + i);

    ExperimentRunOptions opt;
    opt.csv = req.submit.csv;
    opt.jobs = jobs;
    opt.control = &ctl;
    std::vector<std::string> rows;
    bool ok;
    try {
        ok = runExperimentRuns(exp, indices, opt, rows);
    } catch (const TraceError &e) {
        // The trace bound (header OK) but failed to replay — corrupt
        // past the header, or truncated on this host's copy.
        return writeAll(fd, leaseFailFrame(req.leaseId, e.what()));
    }

    std::string frames;
    if (ok) {
        for (std::size_t i = 0; i < indices.size(); ++i) {
            frames += "ROW " + std::to_string(req.leaseId) + " " +
                      std::to_string(indices[i]) + " " +
                      std::to_string(rows[i].size()) + "\n";
            frames += rows[i];
        }
    }
    // Always close the lease out — a revoked batch yields LEASEDONE
    // with no rows, and the coordinator re-queues what's missing if
    // the job is still alive.
    frames += "LEASEDONE " + std::to_string(req.leaseId) + "\n";
    return writeAll(fd, frames);
}

} // namespace

int
runWorker(const WorkerOptions &opt)
{
    std::string error;
    int fd = connectToServer(opt.coordinator, error);
    if (fd < 0) {
        std::fprintf(stderr, "impsim worker: %s\n", error.c_str());
        return 1;
    }

    LineReader reader(fd);
    std::string line;
    if (!reader.readLine(line) || splitTokens(line).empty() ||
        splitTokens(line)[0] != "IMPSIM") {
        std::fprintf(stderr, "impsim worker: no IMPSIM greeting from %s\n",
                     opt.coordinator.c_str());
        ::close(fd);
        return 1;
    }
    if (!writeAll(fd, "WORKER " + std::to_string(kProtocolVersion) + "\n") ||
        !reader.readLine(line)) {
        std::fprintf(stderr, "impsim worker: registration failed\n");
        ::close(fd);
        return 1;
    }
    std::vector<std::string> tokens = splitTokens(line);
    if (tokens.empty() || tokens[0] != "REGISTERED") {
        std::uint64_t nbytes = 0;
        std::string diag = line;
        if (tokens.size() == 2 && tokens[0] == "ERROR" &&
            parseNumber(tokens[1], nbytes, 1u << 20))
            reader.readBytes(diag, static_cast<std::size_t>(nbytes));
        std::fprintf(stderr, "impsim worker: rejected by %s: %s\n",
                     opt.coordinator.c_str(), diag.c_str());
        ::close(fd);
        return 1;
    }
    std::fprintf(stderr, "impsim worker: registered as %s with %s\n",
                 tokens.size() > 1 ? tokens[1].c_str() : "?",
                 opt.coordinator.c_str());
    if (!opt.readyFile.empty()) {
        if (std::FILE *f = std::fopen(opt.readyFile.c_str(), "w"))
            std::fclose(f);
    }

    LeaseQueue queue;
    std::thread executor([&queue, fd, &opt] {
        LeaseTask task;
        for (;;) {
            SweepControl ctl;
            if (!queue.pop(task, ctl))
                return;
            std::fprintf(stderr,
                         "impsim worker: lease %llu runs [%zu, +%zu)\n",
                         static_cast<unsigned long long>(
                             task.req.leaseId),
                         task.req.firstRun, task.req.runCount);
            const bool alive = serveLease(fd, task, ctl, opt.jobs);
            queue.finish();
            std::fprintf(stderr, "impsim worker: lease %llu %s\n",
                         static_cast<unsigned long long>(
                             task.req.leaseId),
                         alive ? "closed" : "lost (socket dead)");
            if (!alive)
                return;
        }
    });

    int rc = 0;
    while (reader.readLine(line)) {
        tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        if (tokens[0] == "LEASE") {
            LeaseTask task;
            if (!parseLeaseLine(tokens, task.req, error)) {
                std::fprintf(stderr, "impsim worker: bad LEASE: %s\n",
                             error.c_str());
                rc = 1; // cannot frame the payload: stream is dead
                break;
            }
            if (!reader.readBytes(task.text, task.req.submit.configBytes))
                break;
            queue.push(std::move(task));
        } else if (tokens[0] == "REVOKE" && tokens.size() == 2) {
            std::uint64_t leaseId = 0;
            if (parseNumber(tokens[1], leaseId))
                queue.revoke(leaseId);
        } else {
            std::fprintf(stderr,
                         "impsim worker: unexpected frame '%s'\n",
                         line.c_str());
            rc = 1;
            break;
        }
    }

    // Coordinator EOF (or desync): cancel whatever is running, let
    // the executor drain out, and leave. The coordinator re-queues
    // anything this worker still owed.
    queue.close();
    ::shutdown(fd, SHUT_RDWR);
    executor.join();
    ::close(fd);
    return rc;
}

} // namespace server
} // namespace impsim
