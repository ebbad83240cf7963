/**
 * @file
 * Unit-cost microbenchmarks: each component's public API driven in
 * isolation with access streams sampled from the workload's own
 * traces, so a change to one component shows up here even when the
 * whole-run numbers hide it.
 */
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "cache/sector_cache.hpp"
#include "coherence/directory.hpp"
#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "core/imp.hpp"
#include "core/stream_prefetcher.hpp"
#include "core/tlb.hpp"
#include "dram/dram.hpp"
#include "noc/mesh.hpp"

namespace impbench {

namespace {

using namespace impsim;

/** One sampled access, with the outcome of a small L1 stand-in. */
struct Sample
{
    Addr addr;
    std::uint32_t pc;
    std::uint32_t gap;
    std::uint8_t size;
    bool write;
    CoreId core;
    /** Missed the per-core direct-mapped filter (an L1 stand-in). */
    bool miss;
    /** Line the miss displaced from the filter, or kNoAddr. */
    Addr victim;
};

/** Samples of one workload, which owns the memory image. */
struct Stream
{
    const FuncMem *mem;
    std::uint32_t cores;
    std::vector<Sample> samples;
};

/** Lines in the filter: a 32 KiB direct-mapped L1 stand-in. */
constexpr std::size_t kFilterLines = 512;

/**
 * Takes up to @p budget accesses from @p w, round-robin over its cores
 * so the interleaving resembles a parallel run.
 */
Stream
sampleStream(const Workload &w, std::size_t budget)
{
    Stream s{w.mem.get(), static_cast<std::uint32_t>(w.traces.size()), {}};
    std::vector<std::vector<Addr>> filter(
        w.traces.size(), std::vector<Addr>(kFilterLines, kNoAddr));
    for (std::size_t i = 0; s.samples.size() < budget; ++i) {
        bool any = false;
        for (CoreId c = 0; c < w.traces.size() && s.samples.size() < budget;
             ++c) {
            const auto &acc = w.traces[c].accesses;
            if (i >= acc.size())
                continue;
            any = true;
            const MemAccess &a = acc[i];
            Addr line = lineAlign(a.addr);
            Addr &slot = filter[c][lineOf(line) % kFilterLines];
            bool miss = slot != line;
            Addr victim = miss ? slot : kNoAddr;
            slot = line;
            s.samples.push_back(Sample{a.addr, a.pc, a.gap, a.size,
                                       a.isWrite(), c, miss, victim});
        }
        if (!any)
            break;
    }
    return s;
}

/**
 * Median over @p reps of nanoseconds per operation. @p body runs one
 * repetition, timing only the component calls, and adds the elapsed
 * nanoseconds and the operation count to its two arguments.
 */
template <typename Body>
double
nsPerOp(int reps, Body &&body)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        double ns = 0, ops = 0;
        body(ns, ops);
        if (ops > 0)
            v.push_back(ns / ops);
    }
    return median(v);
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return 1e9 * secondsBetween(a, b);
}

/**
 * A prefetcher host that answers from a per-core direct-mapped
 * residency array and the workload's memory image, and records
 * prefetch fills for delivery after the access that caused them.
 */
class RecordingHost final : public PrefetchHost
{
  public:
    explicit RecordingHost(const FuncMem &mem)
        : mem_(mem), lines_(kFilterLines, kNoAddr)
    {}

    bool
    linePresent(Addr addr) const override
    {
        Addr line = lineAlign(addr);
        return lines_[lineOf(line) % kFilterLines] == line;
    }

    bool
    issuePrefetch(const PrefetchRequest &req) override
    {
        if (linePresent(req.addr))
            return false;
        install(req.addr);
        fills_.emplace_back(lineAlign(req.addr), req.patternId);
        return true;
    }

    std::uint64_t
    readValue(Addr addr, std::uint32_t bytes) const override
    {
        std::uint64_t v = 0;
        mem_.read(addr, &v, std::min<std::uint32_t>(bytes, 8));
        return v;
    }

    Tick now() const override { return tick_; }

    void install(Addr addr)
    {
        Addr line = lineAlign(addr);
        lines_[lineOf(line) % kFilterLines] = line;
    }

    /** One demand access through @p pf, then its prefetch fills. */
    void
    access(Prefetcher &pf, const Sample &s)
    {
        ++tick_;
        AccessInfo info;
        info.addr = s.addr;
        info.pc = s.pc;
        info.size = s.size;
        info.write = s.write;
        info.l1Hit = linePresent(s.addr);
        if (!info.l1Hit)
            install(s.addr);
        pf.onAccess(info);
        if (!info.l1Hit)
            pf.onMiss(info);
        // Fills are delivered after the access, like a fill that
        // returns before the next one; swap so callbacks may issue.
        scratch_.swap(fills_);
        for (const auto &f : scratch_)
            pf.onPrefetchFill(f.first, f.second);
        scratch_.clear();
    }

  private:
    const FuncMem &mem_;
    std::vector<Addr> lines_;
    std::vector<std::pair<Addr, std::uint16_t>> fills_;
    std::vector<std::pair<Addr, std::uint16_t>> scratch_;
    Tick tick_ = 0;
};

/** Prefetcher cost per access; @p make builds one engine per core. */
template <typename Make>
double
prefetcherCost(const std::vector<Stream> &streams, int reps, Make &&make)
{
    return nsPerOp(reps, [&](double &ns, double &ops) {
        for (const Stream &st : streams) {
            std::vector<std::unique_ptr<RecordingHost>> hosts;
            std::vector<std::unique_ptr<Prefetcher>> pfs;
            for (std::uint32_t c = 0; c < st.cores; ++c) {
                hosts.push_back(std::make_unique<RecordingHost>(*st.mem));
                pfs.push_back(make(*hosts.back()));
            }
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples)
                hosts[s.core]->access(*pfs[s.core], s);
            ns += nsBetween(t0, Clock::now());
            ops += static_cast<double>(st.samples.size());
        }
    });
}

/** One core's chain of events, each scheduling the next. */
struct EventChain
{
    EventQueue *eq;
    std::vector<std::uint32_t> delays;
    std::size_t next = 0;

    void
    step()
    {
        if (next < delays.size())
            eq->scheduleAfter(delays[next++], [this] { step(); });
    }
};

} // namespace

UnitCosts
measureUnitCosts(const std::vector<const Workload *> &workloads,
                 const SystemConfig &cfg, bool tiny)
{
    const std::size_t budget = tiny ? 20000 : 240000;
    const int reps = 3;
    std::vector<Stream> streams;
    for (const Workload *w : workloads)
        streams.push_back(sampleStream(*w, budget / workloads.size()));

    UnitCosts u;

    u.eventQueue = nsPerOp(reps, [&](double &ns, double &ops) {
        for (const Stream &st : streams) {
            // Hit-like and miss-like delays from the stream itself.
            EventQueue eq;
            std::vector<EventChain> chains(st.cores, EventChain{&eq, {}});
            for (const Sample &s : st.samples)
                chains[s.core].delays.push_back(1 + s.gap % 16 +
                                                (s.miss ? 100 : 0));
            for (EventChain &ch : chains)
                ch.step();
            Clock::time_point t0 = Clock::now();
            eq.run();
            ns += nsBetween(t0, Clock::now());
            ops += static_cast<double>(eq.executed());
        }
    });

    u.flatMap = nsPerOp(reps, [&](double &ns, double &ops) {
        // An MSHR-style table: probe every line, track misses, retire
        // the oldest once 64 are outstanding.
        for (const Stream &st : streams) {
            FlatHashMap<Addr, std::uint32_t> map;
            std::vector<Addr> ring(64, kNoAddr);
            std::size_t head = 0;
            double n = 0;
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                Addr line = lineAlign(s.addr);
                ++n;
                if (map.find(line) != map.end())
                    continue;
                if (ring[head] != kNoAddr) {
                    map.erase(ring[head]);
                    ++n;
                }
                map.try_emplace(line, s.pc);
                ring[head] = line;
                head = (head + 1) % ring.size();
                ++n;
            }
            ns += nsBetween(t0, Clock::now());
            ops += n;
        }
    });

    u.sectorCache = nsPerOp(reps, [&](double &ns, double &ops) {
        for (const Stream &st : streams) {
            std::vector<SectorCache> caches(
                st.cores, SectorCache(cfg.l1SizeBytes, cfg.l1Ways));
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                SectorCache &c = caches[s.core];
                Addr line = lineAlign(s.addr);
                if (CacheLine *l = c.find(line)) {
                    c.touch(*l);
                } else {
                    CacheLine *v = c.victim(line);
                    c.fill(*v, line, CState::S, c.allSectors(), false);
                }
            }
            ns += nsBetween(t0, Clock::now());
            ops += static_cast<double>(st.samples.size());
        }
    });

    u.streamPf = prefetcherCost(streams, reps, [&](RecordingHost &h) {
        return std::make_unique<StreamPrefetcher>(h, cfg.imp, cfg.stream);
    });
    u.imp = prefetcherCost(streams, reps, [&](RecordingHost &h) {
        return std::make_unique<ImpPrefetcher>(h, cfg.imp, cfg.stream,
                                               cfg.gp, false);
    });

    u.dram = nsPerOp(reps, [&](double &ns, double &ops) {
        for (const Stream &st : streams) {
            std::unique_ptr<DramModel> dram = makeDram(cfg);
            McMap mcs(cfg.meshDim());
            Tick t = 0;
            double n = 0;
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                t += 1 + s.gap;
                if (!s.miss)
                    continue;
                Addr line = lineAlign(s.addr);
                dram->access(mcs.mcOf(line), line, kLineSize, s.write, t);
                ++n;
            }
            ns += nsBetween(t0, Clock::now());
            ops += n;
        }
    });

    u.directory = nsPerOp(reps, [&](double &ns, double &ops) {
        for (const Stream &st : streams) {
            Directory dir(cfg.ackwisePointers, st.cores);
            double n = 0;
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                if (!s.miss)
                    continue;
                if (s.victim != kNoAddr) {
                    dir.onEvict(s.victim, s.core);
                    ++n;
                }
                Addr line = lineAlign(s.addr);
                if (s.write)
                    dir.onGetX(line, s.core);
                else
                    dir.onGetS(line, s.core);
                ++n;
            }
            ns += nsBetween(t0, Clock::now());
            ops += n;
        }
    });

    u.noc = nsPerOp(reps, [&](double &ns, double &ops) {
        // Request to the line's home slice and the data reply back.
        for (const Stream &st : streams) {
            MeshNoc noc(cfg.meshDim(), cfg.hopCycles, cfg.flitBytes,
                        cfg.headerFlits);
            Tick t = 0;
            double n = 0;
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                t += 1 + s.gap;
                if (!s.miss)
                    continue;
                Addr line = lineAlign(s.addr);
                CoreId home = homeTileOf(line, st.cores);
                Tick at = noc.send(s.core, home, 0, t);
                noc.send(home, s.core, kLineSize, at);
                n += 2;
            }
            ns += nsBetween(t0, Clock::now());
            ops += n;
        }
    });

    u.tlb = nsPerOp(reps, [&](double &ns, double &ops) {
        std::uint32_t page_bits = cfg.tlb.pageBits();
        for (const Stream &st : streams) {
            std::vector<TlbArray> dtlb(
                st.cores, TlbArray(cfg.tlb.l1Entries, cfg.tlb.l1Ways));
            TlbArray stlb(cfg.tlb.l2Entries, cfg.tlb.l2Ways);
            Clock::time_point t0 = Clock::now();
            for (const Sample &s : st.samples) {
                std::uint64_t vpn = s.addr >> page_bits;
                if (dtlb[s.core].lookup(vpn))
                    continue;
                if (!stlb.lookup(vpn))
                    stlb.insert(vpn);
                dtlb[s.core].insert(vpn);
            }
            ns += nsBetween(t0, Clock::now());
            ops += static_cast<double>(st.samples.size());
        }
    });
    return u;
}

} // namespace impbench
