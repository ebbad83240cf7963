/**
 * @file
 * The paper's application suite (§5.3) as trace-generating kernels.
 */
#ifndef IMPSIM_WORKLOADS_WORKLOAD_HPP
#define IMPSIM_WORKLOADS_WORKLOAD_HPP

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/func_mem.hpp"
#include "cpu/trace.hpp"

namespace impsim {

/** Application identifiers, in the paper's figure order. */
enum class AppId {
    Pagerank,
    TriCount,
    Graph500,
    Sgd,
    Lsh,
    Spmv,
    Symgs,
    Streaming, ///< Dense no-indirection control (SPLASH-2 stand-in).
    Trace,     ///< Replays a recorded IMPTRACE file (docs/traces.md).
};

/** App-spec prefix selecting trace replay: "trace:<path>". */
inline constexpr const char *kTraceAppPrefix = "trace:";

/** True if @p spec names a trace replay ("trace:<path>"). */
bool isTraceAppSpec(const std::string &spec);

/** The path part of a "trace:<path>" spec (may be empty). */
std::string traceAppPath(const std::string &spec);

/** The seven evaluated applications (Fig 1/2/9/...). */
inline constexpr std::array<AppId, 7> kPaperApps{
    AppId::Pagerank, AppId::TriCount, AppId::Graph500, AppId::Sgd,
    AppId::Lsh,      AppId::Spmv,     AppId::Symgs,
};

/** Every application, including the dense control. */
inline constexpr std::array<AppId, 8> kAllApps{
    AppId::Pagerank, AppId::TriCount, AppId::Graph500, AppId::Sgd,
    AppId::Lsh,      AppId::Spmv,     AppId::Symgs,    AppId::Streaming,
};

/** Short name as used in the paper's figures. */
const char *appName(AppId app);

/**
 * Parses a figure-style app name ("spmv", "tri_count", ...).
 * @return false if @p name matches no app; @p out is untouched.
 */
bool parseAppName(const std::string &name, AppId &out);

/**
 * Largest input-size multiplier the generators support. At 1024
 * every 32-bit element count stays below 2^31; the largest,
 * tri_count's edge count, is 2^30 there and wraps at 4096.
 */
inline constexpr std::uint32_t kMaxWorkloadScale = 1024;

/** Generation parameters. */
struct WorkloadParams
{
    std::uint32_t numCores = 64;
    /** Emit Mowry-style software prefetches (§5.4). */
    bool swPrefetch = false;
    /** Input size multiplier (1.0 = default evaluation size), in
     * (0, kMaxWorkloadScale]. */
    double scale = 1.0;
    std::uint64_t seed = 42;
    /** Trace file to replay; required by (and only by) AppId::Trace. */
    std::string tracePath;
};

/** A generated workload: per-core traces over one memory image. */
struct Workload
{
    std::string name;
    std::vector<CoreTrace> traces;
    std::shared_ptr<FuncMem> mem;

    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t n = 0;
        for (const auto &t : traces)
            n += t.instructionCount();
        return n;
    }

    std::uint64_t
    totalAccesses() const
    {
        std::uint64_t n = 0;
        for (const auto &t : traces)
            n += t.accesses.size();
        return n;
    }
};

/** Builds @p app for @p params. */
Workload makeWorkload(AppId app, const WorkloadParams &params);

// Individual kernels (exposed for tests).
Workload makePagerank(const WorkloadParams &params);
Workload makeTriCount(const WorkloadParams &params);
Workload makeGraph500(const WorkloadParams &params);
Workload makeSgd(const WorkloadParams &params);
Workload makeLsh(const WorkloadParams &params);
Workload makeSpmv(const WorkloadParams &params);
Workload makeSymgs(const WorkloadParams &params);
Workload makeStreaming(const WorkloadParams &params);
/**
 * Replays params.tracePath through TraceBuilder, reproducing the
 * recorded per-core access streams and memory image bit-exactly.
 * @throws TraceError on any file, framing or semantic problem.
 */
Workload makeTraceReplay(const WorkloadParams &params);

} // namespace impsim

#endif // IMPSIM_WORKLOADS_WORKLOAD_HPP
