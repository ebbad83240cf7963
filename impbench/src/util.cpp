/**
 * @file
 * Result printing, span tracer and small helpers shared by every
 * workload.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/resource.h>

#include "bench.hpp"

namespace impbench {

void
Checks::record(const std::string &why)
{
    ++attempted;
    if (why.empty())
        return;
    // The first few reasons are enough to debug; the count carries
    // the rest.
    if (failed < 8)
        std::cout << "FAILED: " << why << "\n";
    ++failed;
}

void
SimCounts::add(const impsim::SimStats &s, std::uint64_t ev, bool imp)
{
    events += ev;
    instructions += s.core.instructions;
    memAccesses += s.core.memAccesses;
    if (imp)
        impMemAccesses += s.core.memAccesses;
    l1.merge(s.l1);
    l2.merge(s.l2);
    noc.merge(s.noc);
    dram.merge(s.dram);
    tlb.merge(s.tlb);
}

namespace {

/** The origin every span is measured from. */
const Clock::time_point kProcessStart = Clock::now();

std::int64_t
nsSinceStart(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - kProcessStart)
        .count();
}

} // namespace

std::uint64_t
Tracer::open(const char *name, std::uint64_t run, std::uint64_t parent,
             Clock::time_point start)
{
    if (!on_)
        return 0;
    std::int64_t t = nsSinceStart(start);
    spans_.push_back(Span{name, run, parent, t, t});
    return spans_.size();
}

void
Tracer::close(std::uint64_t id, Clock::time_point end)
{
    if (id != 0)
        spans_[id - 1].endNs = nsSinceStart(end);
}

void
Tracer::absorb(Tracer &other)
{
    // Ids are positions; re-base the absorbed parents onto this list.
    std::uint64_t base = spans_.size();
    for (Span s : other.spans_) {
        if (s.parent)
            s.parent += base;
        spans_.push_back(s);
    }
    other.spans_.clear();
}

void
Tracer::write(const std::string &path) const
{
    if (!on_ || path.empty())
        return;
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\": " << i + 1 << ", \"name\": \"" << s.name
           << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
           << "}\n";
    }
    if (!os)
        std::cerr << "impbench: could not write spans to " << path << "\n";
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
rowBody(const std::string &row)
{
    std::size_t comma = row.find(',');
    return comma == std::string::npos ? row : row.substr(comma);
}

namespace {

struct Named
{
    const char *name;
    double value;
    const char *unit;
};

std::vector<Named>
endToEndMetrics(const EndToEnd &e)
{
    return {
        {"wall_s", e.wallS, "s"},
        {"setup_s", e.setupS, "s"},
        {"sim_mips", e.simMips, "MIPS"},
        {"peak_rss_mib", e.peakRssMib, "MiB"},
        {"job_p50_ms", e.jobP50Ms, "ms"},
        {"job_p90_ms", e.jobP90Ms, "ms"},
        {"jobs_per_s", e.jobsPerS, "1/s"},
    };
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::vector<Named>
perLayerMetrics(const PerLayer &p)
{
    const SimCounts &c = p.counts;
    const UnitCosts &u = p.unit;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    // L1 demand accesses are counted by type; L2 slices count lookups
    // as hits and misses only.
    double l1_acc = 0;
    for (std::uint64_t v : c.l1.accessesByType)
        l1_acc += d(v);
    double l2_acc = d(c.l2.hits + c.l2.misses);
    double issued = d(c.l1.prefIssued + c.l2.prefIssued);
    double useful = d(c.l1.prefUsefulFirstTouch + c.l2.prefUsefulFirstTouch);
    double rows = d(c.dram.rowHits + c.dram.rowMisses);
    // Estimated share of System::run time: count x isolated unit cost.
    double run_ns = p.runMs * 1e6;
    auto share = [&](double count, double ns) {
        return ratio(count * ns, run_ns);
    };
    return {
        {"config_file.bind_ms", p.bindMs, "ms"},
        {"workloads.gen_ms", p.genMs, "ms"},
        {"trace_io.decode_ms", p.decodeMs, "ms"},
        {"trace_io.decode_mb_s", p.decodeMbS, "MB/s"},
        {"system.build_ms", p.buildMs, "ms"},
        {"system.run_ms", p.runMs, "ms"},
        {"system.ns_per_event", p.nsPerEvent, "ns"},
        {"report.emit_ms", p.emitMs, "ms"},
        {"server.connect_ms", p.connectMs, "ms"},
        {"server.ack_ms", p.ackMs, "ms"},
        {"server.exec_ms", p.execMs, "ms"},
        {"server.result_ms", p.resultMs, "ms"},
        {"server.overhead_ms", p.overheadMs, "ms"},
        {"event_queue.ns_per_event", u.eventQueue, "ns"},
        {"flat_map.ns_per_op", u.flatMap, "ns"},
        {"sector_cache.ns_per_lookup", u.sectorCache, "ns"},
        {"stream_pf.ns_per_access", u.streamPf, "ns"},
        {"dram.ns_per_access", u.dram, "ns"},
        {"imp.ns_per_access", u.imp, "ns"},
        {"directory.ns_per_op", u.directory, "ns"},
        {"noc.ns_per_send", u.noc, "ns"},
        {"tlb.ns_per_lookup", u.tlb, "ns"},
        {"system.events", d(c.events), "count"},
        {"cpu.instructions", d(c.instructions), "count"},
        {"cpu.mem_accesses", d(c.memAccesses), "count"},
        {"l1.accesses", l1_acc, "count"},
        {"l1.misses", d(c.l1.misses), "count"},
        {"l1.demand_merges", d(c.l1.demandMerges), "count"},
        {"l2.accesses", l2_acc, "count"},
        {"l2.misses", d(c.l2.misses), "count"},
        {"pf.issued", issued, "count"},
        {"pf.accuracy", ratio(useful, issued), "frac"},
        {"pf.coverage", c.l1.coverage(), "frac"},
        {"pf.late", d(c.l1.prefLate + c.l2.prefLate), "count"},
        {"noc.messages", d(c.noc.messages), "count"},
        {"noc.flit_hops", d(c.noc.flitHops), "count"},
        {"noc.queue_cycles", d(c.noc.queueCycles), "count"},
        {"dram.reads", d(c.dram.reads), "count"},
        {"dram.row_hit_frac", ratio(d(c.dram.rowHits), rows), "frac"},
        {"tlb.walks", d(c.tlb.walks), "count"},
        {"tlb.walk_accesses", d(c.tlb.walkAccesses), "count"},
        {"tlb.pf_cross_dropped", d(c.tlb.pfCrossDropped), "count"},
        {"event_queue.est_share", share(d(c.events), u.eventQueue), "frac"},
        {"sector_cache.est_share", share(l1_acc + l2_acc, u.sectorCache),
         "frac"},
        {"directory.est_share", share(l2_acc, u.directory), "frac"},
        {"noc.est_share", share(d(c.noc.messages), u.noc), "frac"},
        {"dram.est_share", share(d(c.dram.reads), u.dram), "frac"},
        {"tlb.est_share",
         c.tlb.enabled ? share(d(c.tlb.lookups()), u.tlb) : 0.0, "frac"},
        {"imp.est_share", share(d(c.impMemAccesses), u.imp), "frac"},
        {"tracing.traced_wall_s", p.tracedWallS, "s"},
        {"tracing.untraced_wall_s", p.untracedWallS, "s"},
        {"tracing.overhead_pct",
         p.untracedWallS > 0 ? 100.0 * (p.tracedWallS / p.untracedWallS - 1)
                             : 0.0,
         "%"},
        {"sim.imp_speedup", p.impSpeedup, "x"},
    };
}

/** All the digits a double carries; non-finite values print as 0. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
printResult(const Options &opt, const Outcome &out)
{
    std::vector<Named> metrics = opt.trace ? perLayerMetrics(out.layers)
                                           : endToEndMetrics(out.e2e);
    std::cout << opt.workload << " seed " << opt.seed
              << (opt.trace ? " (traced run, per-layer metrics)"
                            : " (end-to-end metrics)")
              << ":\n";
    for (const Named &m : metrics) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %16.6g %s\n", m.name,
                      m.value, m.unit);
        std::cout << line;
    }
    std::cout << "  operations: " << out.checks.attempted << " attempted, "
              << out.checks.failed << " failed\n";

    bool correct = out.checks.failed == 0 && out.checks.attempted > 0;
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.checks.attempted
       << ", \"failed\": " << out.checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

} // namespace impbench
