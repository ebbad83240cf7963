/**
 * @file
 * Remote sweep worker: the other end of the distributed fabric.
 *
 * `impsim_serve --worker-of ADDR` runs one of these instead of a
 * listener. The worker dials the coordinator, registers with a
 * `WORKER` frame, and then serves `LEASE` sub-batches: each lease
 * carries a run range plus the verbatim config text and SUBMIT-style
 * overrides, which the worker re-binds with the same binder as the
 * coordinator — so a run index means the same simulation on both
 * ends, and the rows it streams back (`ROW` frames, one per run)
 * splice bit-identically into the coordinator's output. `REVOKE`
 * cancels a lease mid-batch (job cancelled upstream); coordinator
 * EOF ends the worker. Protocol reference and the failure/recovery
 * matrix: docs/job_server.md.
 */
#ifndef IMPSIM_SERVER_WORKER_HPP
#define IMPSIM_SERVER_WORKER_HPP

#include <string>

namespace impsim {
namespace server {

/** How to run one worker process. */
struct WorkerOptions
{
    /** Coordinator address: socket path or "tcp:HOST:PORT". */
    std::string coordinator;
    /** Simulation threads per lease batch; 0 = hardware. */
    unsigned jobs = 0;
    /** Touched once registered and removed when runWorker returns
     *  (test/CI synchronization); "" = none. */
    std::string readyFile;
};

/**
 * Connects, registers, and serves leases until the coordinator hangs
 * up. Blocks for the whole worker lifetime.
 * @return a process exit code: 0 after a clean coordinator EOF, 1 on
 *         connect/registration failure or a desynchronized stream.
 */
int runWorker(const WorkerOptions &opt);

} // namespace server
} // namespace impsim

#endif // IMPSIM_SERVER_WORKER_HPP
