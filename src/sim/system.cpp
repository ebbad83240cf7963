/**
 * @file
 * System assembly and run loop.
 */
#include "sim/system.hpp"

#include <sstream>

#include "common/logging.hpp"
#include "core/prefetcher_registry.hpp"
#include "cpu/inorder_core.hpp"
#include "cpu/ooo_core.hpp"

namespace impsim {

System::System(const SystemConfig &cfg,
               const std::vector<CoreTrace> &traces, const FuncMem &mem)
    : cfg_(cfg), traces_(traces)
{
    cfg_.validate();
    IMPSIM_CHECK(traces_.size() == cfg_.numCores,
                 "trace count must match core count");
    hier_ = std::make_unique<MemHierarchy>(cfg_, eq_, mem);
    barrier_ = std::make_unique<Barrier>(eq_, cfg_.numCores);
    attachL2Prefetchers();
    buildCores();
}

void
System::attachL2Prefetchers()
{
    for (CoreId t = 0; t < cfg_.numCores; ++t) {
        if (auto pf = makePrefetcher(cfg_.effectiveL2PrefetcherSpec(t),
                                     hier_->l2(t), cfg_, AttachLevel::L2))
            hier_->l2(t).attachPrefetcher(std::move(pf));
    }
}

void
System::buildCores()
{
    CoreParams params;
    params.l1HitCycles = cfg_.l1LatencyCycles;
    params.storeBufferEntries = cfg_.storeBufferEntries;
    params.robEntries = cfg_.robEntries;
    params.maxOutstandingLoads = cfg_.maxOutstandingLoads;

    // Every core gets the barrier; one only touches it on an access
    // flagged kFlagBarrierBefore, so no trace needs scanning for one.
    Barrier *bar = barrier_.get();
    cores_.reserve(cfg_.numCores);
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (auto pf = makePrefetcher(cfg_.effectivePrefetcherSpec(c),
                                     hier_->l1(c), cfg_, AttachLevel::L1))
            hier_->l1(c).attachPrefetcher(std::move(pf));
        params.id = c;
        auto on_finish = [this] { ++coresDone_; };
        if (cfg_.coreModel == CoreModel::InOrder) {
            cores_.push_back(std::make_unique<InOrderCore>(
                params, eq_, hier_->l1(c), bar, traces_[c], on_finish));
        } else {
            cores_.push_back(std::make_unique<OoOCore>(
                params, eq_, hier_->l1(c), bar, traces_[c], on_finish));
        }
    }
}

SimStats
System::run(Tick limit)
{
    for (auto &core : cores_)
        core->start();

    if (!eq_.run(limit)) {
        std::ostringstream msg;
        msg << "simulation hit its tick limit at tick " << eq_.now()
            << " (limit " << limit << ") with " << eq_.pending()
            << " events pending";
        IMPSIM_PANIC(msg.str().c_str());
    }
    if (coresDone_ != cfg_.numCores) {
        std::ostringstream msg;
        msg << "event queue drained with "
            << cfg_.numCores - coresDone_ << " of " << cfg_.numCores
            << " cores unfinished (deadlock)";
        const char *sep = ":";
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (cores_[c]->done())
                continue;
            msg << sep << " core " << c << " committed "
                << cores_[c]->stats().instructions << " instructions";
            sep = ";";
        }
        IMPSIM_PANIC(msg.str().c_str());
    }

    SimStats s;
    s.perCore.reserve(cores_.size());
    for (auto &core : cores_) {
        s.perCore.push_back(core->stats());
        s.core.merge(core->stats());
    }
    s.cycles = s.core.finishTick;
    s.l1 = hier_->l1Stats();
    s.l2 = hier_->l2Stats();
    s.noc = hier_->noc().stats();
    s.dram = hier_->dram().stats();
    s.tlb = hier_->tlbStats();
    return s;
}

} // namespace impsim
