/**
 * @file
 * Trace replay "kernel": turns a recorded IMPTRACE file back into a
 * Workload. Each decoded record becomes one MemAccess of its core's
 * trace, barrier flag included, so the replay reproduces the recorded
 * per-core access streams bit-exactly and the simulator cannot tell
 * the two apart.
 *
 * Branch records are folded into the following access's instruction
 * gap (a branch is one non-memory instruction); branches after a
 * core's last access fold into its tail-instruction count.
 */
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

namespace impsim {

namespace {

std::string
baseName(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

Workload
makeTraceReplay(const WorkloadParams &params)
{
    IMPSIM_CHECK(!params.tracePath.empty(),
                 "trace replay needs WorkloadParams::tracePath");
    const std::string &path = params.tracePath;

    TraceReader reader(openTraceSource(path));
    const TraceSummary &sum = reader.summary();
    if (sum.numCores != params.numCores)
        throw TraceError(path, 0,
                         "recorded for " + std::to_string(sum.numCores) +
                             " cores, but this run wants " +
                             std::to_string(params.numCores));

    Workload w;
    w.name = std::string(kTraceAppPrefix) + baseName(path);
    w.mem = std::make_shared<FuncMem>();
    reader.readMemoryImage(*w.mem);

    // Decode into per-core traces, folding branches into gaps and
    // validating the stream-position-relative fields as we go. Sized
    // by what is actually decoded, never by the header's claim.
    w.traces.resize(sum.numCores);
    std::vector<std::uint64_t> pendingGap(sum.numCores, 0);
    TraceRecord r;
    while (reader.next(r)) {
        std::uint64_t off = reader.lastRecordOffset();
        std::vector<MemAccess> &stream = w.traces[r.core].accesses;
        switch (r.kind) {
          case TraceRecordKind::Branch:
            pendingGap[r.core] += std::uint64_t{r.gap} + 1;
            break;
          case TraceRecordKind::Tail:
            w.traces[r.core].tailInstructions += r.addr;
            break;
          default: {
            if (r.dep > stream.size())
                throw TraceError(
                    path, off,
                    "dep back-link " + std::to_string(r.dep) +
                        " reaches before the start of core " +
                        std::to_string(r.core) + "'s stream");
            std::uint64_t gap = pendingGap[r.core] + r.gap;
            if (gap > UINT32_MAX)
                throw TraceError(path, off,
                                 "instruction gap overflows 32 bits "
                                 "after folding branch records");
            pendingGap[r.core] = 0;
            MemAccess a;
            a.addr = r.addr;
            a.pc = r.pc;
            a.gap = static_cast<std::uint32_t>(gap);
            a.dep = r.dep;
            a.size = r.size;
            a.type = r.type;
            if (r.kind == TraceRecordKind::Store)
                a.flags |= kFlagWrite;
            if (r.kind == TraceRecordKind::SwPrefetch)
                a.flags |= kFlagSwPrefetch;
            if (r.flags & kTraceFlagBarrierBefore)
                a.flags |= kFlagBarrierBefore;
            stream.push_back(a);
            break;
          }
        }
    }
    // Branches after a core's last access, and barriers: crossing k
    // is the k-th barrier-flagged access of *every* core, so unequal
    // counts would deadlock the simulated barrier network.
    const std::uint64_t crossings = w.traces[0].barrierCount();
    for (std::uint32_t c = 0; c < sum.numCores; ++c) {
        w.traces[c].tailInstructions += pendingGap[c];
        std::uint64_t n = w.traces[c].barrierCount();
        if (n != crossings)
            throw TraceError(path, 0,
                             "barrier count mismatch: core 0 crosses " +
                                 std::to_string(crossings) +
                                 " barriers, core " + std::to_string(c) +
                                 " crosses " + std::to_string(n));
    }
    return w;
}

} // namespace impsim
