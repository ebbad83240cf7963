/**
 * @file
 * The impsim sweep job server.
 *
 * JobServer listens on a Unix-domain socket (and optionally loopback
 * TCP), speaks the line-oriented protocol in server/protocol.hpp, and
 * executes submitted experiment configs concurrently over one shared
 * WorkerPool. Jobs are validated at SUBMIT time with the same
 * ConfigFile binder as `impsim_cli --config --check` (diagnostics
 * streamed back verbatim) and queued through a bounded FairJobQueue
 * (priority order, round-robin across clients, per-client quotas,
 * ERROR on overflow = backpressure). Up to `maxActive` runner threads
 * each pop a job and lease pool slots for it, weighted by its priority
 * (WorkerPool's grant rule, sim/experiment_runner.hpp) — results stay
 * bit-identical to an in-process run whatever the interleaving,
 * because per-job results are indexed by run, never by completion
 * time. Terminal jobs land in a ResultStore so a client that
 * disconnected mid-job can reconnect and FETCH later.
 *
 * Protocol reference and failure modes: docs/job_server.md.
 */
#ifndef IMPSIM_SERVER_JOB_SERVER_HPP
#define IMPSIM_SERVER_JOB_SERVER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "server/job_queue.hpp"
#include "server/protocol.hpp"
#include "server/result_store.hpp"
#include "sim/experiment_runner.hpp"

namespace impsim {
namespace server {

/** Listener endpoints and execution limits. */
struct JobServerConfig
{
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string socketPath;
    /**
     * Loopback TCP port; -1 disables, 0 binds an ephemeral port
     * (read back with JobServer::tcpPort()).
     */
    int tcpPort = -1;
    /** WorkerPool width (simulations at once); 0 = hardware. */
    unsigned workers = 0;
    /** Max jobs queued (excluding running ones) before ERROR. */
    std::size_t queueCapacity = 16;
    /** Jobs executing concurrently, each leasing pool slots. */
    unsigned maxActive = 1;
    /** Max concurrently active jobs per client; 0 = unlimited. */
    std::size_t perClientQuota = 0;
    /**
     * Result-store directory; empty keeps finished results in memory
     * only (lost on restart).
     */
    std::string resultsDir;
    /** Result-store payload-byte bound before LRU eviction. */
    std::uint64_t resultsMaxBytes = 256ull << 20;
    /**
     * Runs per LEASE sub-batch when sweeps are sharded over remote
     * workers — the trade between load-balance granularity and
     * framing overhead. Rows left to the local pool run as one batch
     * whatever this is.
     */
    std::size_t leaseRuns = 4;
};

/**
 * A running job server. start() binds and spawns the listener,
 * per-connection and runner threads; stop() (or the destructor)
 * cancels outstanding jobs and joins everything. Thread-safe to
 * cancel from any client. A disconnecting client's jobs keep
 * running — it can reconnect and FETCH the stored results.
 */
class JobServer
{
  public:
    explicit JobServer(JobServerConfig cfg);
    ~JobServer();

    JobServer(const JobServer &) = delete;
    JobServer &operator=(const JobServer &) = delete;

    /** Binds listeners and starts serving. @throws std::runtime_error */
    void start();

    /** Idempotent; cancels jobs, closes sockets, joins threads. */
    void stop() IMPSIM_EXCLUDES(connMutex_, jobsMutex_);

    /** Actual TCP port once started (0 when TCP is disabled). */
    std::uint16_t tcpPort() const { return tcpPort_; }
    const JobServerConfig &config() const { return cfg_; }

  private:
    /**
     * One client socket. All writes serialize on writeMutex. The fd
     * is only *closed* (swapped to -1, under writeMutex) after its
     * reader thread has been joined — by the accept-loop reaper or by
     * stop() — so a late RESULT write from the scheduler either wins
     * the lock while the fd is live or observes -1, never a recycled
     * descriptor. shutdown(), by contrast, is safe without the lock
     * (the fd stays valid) and is how both the reader's exit path and
     * stop() unblock a send() in flight — stop() must NOT take
     * writeMutex there, or a scheduler blocked in send() would hold
     * it and deadlock the shutdown that was meant to free it.
     */
    struct Connection
    {
        std::atomic<int> fd{-1};
        std::uint64_t clientId = 0;
        Mutex writeMutex;
        std::atomic<bool> done{false};

        /** Serialized write. @return false on a closed/broken peer. */
        bool write(const std::string &s) IMPSIM_EXCLUDES(writeMutex);
        /** Wakes blocked reads/writes; never closes. Lock-free. */
        void shutdownFd();
        /** Closes; only call once the reader thread is joined. */
        void closeFd() IMPSIM_EXCLUDES(writeMutex);
    };

    void listenLoop(int listenFd) IMPSIM_EXCLUDES(connMutex_);
    void connectionLoop(std::shared_ptr<Connection> conn);
    /** One of cfg_.maxActive job-execution threads. */
    void runnerLoop();
    /** Runs one popped job to a terminal state and delivers it. */
    void executeJob(const std::shared_ptr<ServerJob> &job);
    /**
     * Runs @p job's rows: leases go to the registered remote workers,
     * and whatever rows are still missing once no worker is left (or
     * none ever registered) run on the local pool. On success
     * @p payload holds the assembled output — byte-identical to an
     * in-process runExperiment() because rows are spliced by run
     * index. A trace that fails to replay locally cancels the job
     * (its diagnostic goes to stderr).
     * @return false iff the job was cancelled, failed, or the server
     *         is stopping before every run's row arrived.
     */
    bool executeRows(const std::shared_ptr<ServerJob> &job,
                     std::string &payload) IMPSIM_EXCLUDES(fabricMutex_);
    /**
     * Terminal bookkeeping shared by every exit path: archives the
     * job in the store, drops it from the live table, and notifies
     * the submitter (RESULT or CANCELLED) when still connected.
     */
    void finishJob(const std::shared_ptr<ServerJob> &job,
                   const std::string &payload)
        IMPSIM_EXCLUDES(jobsMutex_);

    void handleSubmit(Connection &conn, LineReader &reader,
                      const std::vector<std::string> &tokens)
        IMPSIM_EXCLUDES(connMutex_, jobsMutex_);
    void handleStatus(Connection &conn,
                      const std::vector<std::string> &tokens);
    void handleCancel(Connection &conn,
                      const std::vector<std::string> &tokens);
    void handleFetch(Connection &conn,
                     const std::vector<std::string> &tokens);
    void handleList(Connection &conn) IMPSIM_EXCLUDES(jobsMutex_);
    /** Answers WORKERS with a FLEET frame enumerating the fabric. */
    void handleWorkers(Connection &conn) IMPSIM_EXCLUDES(fabricMutex_);
    std::shared_ptr<ServerJob> findJob(const std::string &idToken)
        IMPSIM_EXCLUDES(jobsMutex_);
    /** The submitting connection of @p jobId, unregistered. */
    std::shared_ptr<Connection> takeSubmitter(std::uint64_t jobId)
        IMPSIM_EXCLUDES(jobsMutex_);

    // ---- Distributed sweep fabric (worker mode) -------------------

    /**
     * Serves one connection that sent WORKER: registration handshake,
     * then the ROW/LEASEDONE/LEASEFAIL loop until the peer drops.
     * The connection never returns to the client command set.
     */
    void handleWorker(const std::shared_ptr<Connection> &conn,
                      LineReader &reader,
                      const std::vector<std::string> &tokens)
        IMPSIM_EXCLUDES(fabricMutex_);
    /** Records one run's output bytes; stale/duplicate rows ignored. */
    void handleWorkerRow(std::uint64_t workerId, std::uint64_t leaseId,
                         std::uint64_t run, const std::string &row)
        IMPSIM_EXCLUDES(fabricMutex_);
    /** Frees @p workerId's lease @p leaseId; stale ids are ignored. */
    void handleLeaseDone(std::uint64_t workerId, std::uint64_t leaseId)
        IMPSIM_EXCLUDES(fabricMutex_);
    /** Frees @p clientId's lease, if any, and forgets the worker. */
    void unregisterWorker(std::uint64_t clientId)
        IMPSIM_EXCLUDES(fabricMutex_);
    /**
     * Hands each pending lease, oldest first, to an idle worker,
     * lowest worker id first. LEASE frames are written after dropping
     * the fabric lock, so a stalled worker cannot hold it for a send
     * timeout.
     */
    void assignPendingLeases() IMPSIM_EXCLUDES(fabricMutex_);

    /** The full ERROR frame (header line + payload) for @p message. */
    static std::string errorFrame(std::string message);
    /** The full RESULT+DONE frame for a finished job's payload. */
    static std::string resultFrame(std::uint64_t id,
                                   const std::string &payload);

    JobServerConfig cfg_;
    WorkerPool pool_;
    FairJobQueue queue_;
    ResultStore store_;

    std::vector<int> listenFds_;
    int wakePipe_[2] = {-1, -1};
    std::uint16_t tcpPort_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::vector<std::thread> listenThreads_;
    std::vector<std::thread> runnerThreads_;

    struct ConnSlot
    {
        std::shared_ptr<Connection> conn;
        std::thread thread;
    };
    Mutex connMutex_;
    std::vector<ConnSlot> connections_ IMPSIM_GUARDED_BY(connMutex_);
    std::uint64_t nextClientId_ IMPSIM_GUARDED_BY(connMutex_) = 1;

    Mutex jobsMutex_;
    /** Live (queued or running) jobs; terminal ones move to store_. */
    std::map<std::uint64_t, std::shared_ptr<ServerJob>> jobs_
        IMPSIM_GUARDED_BY(jobsMutex_);
    /** Submitting connection per unfinished job (result delivery). */
    std::map<std::uint64_t, std::shared_ptr<Connection>> jobConns_
        IMPSIM_GUARDED_BY(jobsMutex_);
    std::uint64_t nextJobId_ IMPSIM_GUARDED_BY(jobsMutex_) = 1;

    /** One sub-batch of a distributed job, pending or leased out. */
    struct Lease
    {
        std::uint64_t jobId = 0;
        /** Run range [first, first + count) of the job's experiment. */
        std::size_t first = 0;
        std::size_t count = 0;
        /** Holding worker's clientId; 0 while the lease is pending. */
        std::uint64_t workerId = 0;
    };
    using LeaseMap = std::map<std::uint64_t, Lease>;

    /** Row-assembly state of one job sharded over the fabric. */
    struct DistJob
    {
        std::shared_ptr<ServerJob> job;
        /** Per-run output bytes, indexed by run. */
        std::vector<std::string> rows;
        std::vector<bool> have;
        std::size_t haveCount = 0;
    };

    /** The live job @p lease belongs to; panics if there is none. */
    DistJob &jobOf(const Lease &lease) IMPSIM_REQUIRES(fabricMutex_);
    /**
     * Frees the lease at @p lit from its worker: it closes when its
     * job already holds every row in its range, else it is pending
     * again and keeps its id, so it goes out before newer leases.
     */
    void releaseLease(LeaseMap::iterator lit)
        IMPSIM_REQUIRES(fabricMutex_);

    /**
     * Fabric state. Lock ordering: never taken while holding — or
     * held while taking — connMutex_/jobsMutex_, and never held
     * across a socket write (frames are staged under the lock,
     * written after).
     */
    Mutex fabricMutex_;
    /** Signals row arrival and worker arrival/departure. */
    CondVar fabricCv_;
    /** Registered workers by clientId. Each holds at most one lease. */
    std::map<std::uint64_t, std::shared_ptr<Connection>> workers_
        IMPSIM_GUARDED_BY(fabricMutex_);
    /**
     * Every lease of every job on the fabric, by id (so oldest
     * first); the only record of which worker holds what. Each lease
     * belongs to a live distJobs_ entry: executeRows erases both
     * under one lock.
     */
    LeaseMap leases_ IMPSIM_GUARDED_BY(fabricMutex_);
    std::map<std::uint64_t, std::shared_ptr<DistJob>> distJobs_
        IMPSIM_GUARDED_BY(fabricMutex_);
    std::uint64_t nextLeaseId_ IMPSIM_GUARDED_BY(fabricMutex_) = 1;
};

} // namespace server
} // namespace impsim

#endif // IMPSIM_SERVER_JOB_SERVER_HPP
