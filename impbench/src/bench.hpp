/**
 * @file
 * Shared pieces of the impbench benchmark: options, the metric sets a
 * workload reports, timing helpers and the in-memory span tracer.
 *
 * Everything here measures the simulator from outside, by timing
 * calls into its public functions; nothing in src/ is instrumented.
 */
#ifndef IMPBENCH_BENCH_HPP
#define IMPBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "workloads/workload.hpp"

namespace impbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return 1e3 * secondsBetween(a, b);
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    /** Length of the measured phase. */
    double seconds = 25;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Self-test scale: tiny inputs, outputs checked in-process. */
    bool tiny = false;
    /** Self-test: corrupt one expected row; it must count as failed. */
    bool injectBadRow = false;
    /** Rewrite the pinned seed-42 rows from this run's first pass. */
    bool writeExpected = false;
    /** Scratch directory for traces and the server socket. */
    std::string workDir = ".";
    /** Where the traced run writes its spans (JSON lines). */
    std::string spansOut;
};

/** Pinned seed-42 CSV rows, relative to the checkout root. */
inline constexpr const char *kExpectedDir = "impbench/expected";

/** Operations attempted and failed, with a printed reason per failure. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Counts one operation; a non-empty @p why marks it failed. */
    void record(const std::string &why);
};

/** The user-visible metrics (BENCHMARK.json "end_to_end"). */
struct EndToEnd
{
    double wallS = 0;     ///< One pass: config text in to last row out.
    double setupS = 0;    ///< Median set-up before System::run.
    double simMips = 0;   ///< Simulated instructions per host second.
    double peakRssMib = 0;
    double jobP50Ms = 0;
    double jobP90Ms = 0;
    double jobsPerS = 0;
};

/** Nanoseconds per operation of each component, driven in isolation. */
struct UnitCosts
{
    double eventQueue = 0;  ///< Per executed event.
    double flatMap = 0;     ///< Per find/insert/erase.
    double sectorCache = 0; ///< Per tag lookup.
    double streamPf = 0;    ///< Per StreamPrefetcher::onAccess.
    double dram = 0;        ///< Per DramModel::access.
    double imp = 0;         ///< Per ImpPrefetcher::onAccess.
    double directory = 0;   ///< Per onGetS/onGetX/onEvict.
    double noc = 0;         ///< Per MeshNoc::send.
    double tlb = 0;         ///< Per DTLB lookup.
};

/** Simulated work of one pass, summed over its simulations. */
struct SimCounts
{
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memAccesses = 0;
    /** Memory accesses of runs with an IMP engine attached. */
    std::uint64_t impMemAccesses = 0;
    impsim::CacheStats l1;
    impsim::CacheStats l2;
    impsim::NocStats noc;
    impsim::DramStats dram;
    impsim::TlbStats tlb;

    void add(const impsim::SimStats &s, std::uint64_t events, bool imp);
};

/** The per-layer metrics (BENCHMARK.json "per_layer"); 0 = not on path. */
struct PerLayer
{
    // Spans around public calls: per pass (simulation workloads) or
    // per job (service), medians over the traced passes or jobs.
    double bindMs = 0;
    double genMs = 0;
    double decodeMs = 0;
    double decodeMbS = 0;
    double buildMs = 0;
    double runMs = 0;
    double nsPerEvent = 0;
    double emitMs = 0;
    double connectMs = 0;
    double ackMs = 0;
    double execMs = 0;
    double resultMs = 0;
    double overheadMs = 0;
    UnitCosts unit;
    SimCounts counts;
    double tracedWallS = 0;
    double untracedWallS = 0;
    /** Geomean of Base cycles / IMP cycles (reported, not gated). */
    double impSpeedup = 0;
};

/** One run's complete result. */
struct Outcome
{
    Checks checks;
    EndToEnd e2e;
    PerLayer layers;
};

/** Prints the human-readable metric lines and the final JSON line. */
void printResult(const Options &opt, const Outcome &out);

/**
 * Spans kept in memory during a traced run and written out once at
 * the end, so the run itself does no I/O. Each span has a name, the
 * run (simulation or job) it belongs to, its parent span and its
 * start and end relative to process start, so spans recorded by
 * different threads' tracers line up. Not thread-safe: each thread
 * records into its own tracer.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** Starts a span; returns its id (0 when off). */
    std::uint64_t open(const char *name, std::uint64_t run,
                       std::uint64_t parent, Clock::time_point start);

    /** Ends span @p id (a no-op for id 0). */
    void close(std::uint64_t id, Clock::time_point end);

    /** open() and close() in one call, for a span already timed. */
    std::uint64_t
    record(const char *name, std::uint64_t run, std::uint64_t parent,
           Clock::time_point start, Clock::time_point end)
    {
        std::uint64_t id = open(name, run, parent, start);
        close(id, end);
        return id;
    }

    /** Moves @p other's spans into this tracer. */
    void absorb(Tracer &other);

    /** Writes every span to @p path as JSON lines. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t run;
        std::uint64_t parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    bool on_;
    std::vector<Span> spans_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** The @p q quantile (0..1) of @p v, interpolated (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process so far, in MiB. */
double peakRssMib();

/** Reads a whole file; false if it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

/** Splits @p text into lines, dropping the newlines. */
std::vector<std::string> splitLines(const std::string &text);

/** The CSV row without its label column. */
std::string rowBody(const std::string &row);

/**
 * Drives each component's public API with access streams sampled from
 * @p workloads (the workload's own traces), sized by @p cfg.
 */
UnitCosts measureUnitCosts(
    const std::vector<const impsim::Workload *> &workloads,
    const impsim::SystemConfig &cfg, bool tiny);

/** fig9_16c, uniproc_ooo and tlb_replay (sim_workloads.cpp). */
Outcome runSimWorkload(const Options &opt);

/** service (service.cpp). */
Outcome runService(const Options &opt);

} // namespace impbench

#endif // IMPBENCH_BENCH_HPP
