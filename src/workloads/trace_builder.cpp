/**
 * @file
 * TraceBuilder implementation.
 */
#include "workloads/trace_builder.hpp"

#include "common/logging.hpp"

namespace impsim {

namespace {

/** PC of the sync loads syncEmptyPhases() emits. */
constexpr std::uint32_t kPcBarrierSync = 0x5f00;

} // namespace

TraceBuilder::TraceBuilder(std::uint32_t num_cores)
    : numCores_(num_cores), mem_(std::make_shared<FuncMem>())
{
    IMPSIM_CHECK(num_cores > 0, "need at least one core");
    traces_.resize(num_cores);
    barrierPending_.assign(num_cores, 0);
}

Addr
TraceBuilder::allocArray(const std::string &name, std::uint64_t bytes)
{
    return alloc_.alloc(name, bytes);
}

std::size_t
TraceBuilder::emit(std::uint32_t core, MemAccess a)
{
    IMPSIM_CHECK(core < numCores_, "core out of range");
    if (barrierPending_[core]) {
        a.flags |= kFlagBarrierBefore;
        barrierPending_[core] = 0;
    }
    auto &t = traces_[core].accesses;
    t.push_back(a);
    return t.size() - 1;
}

std::size_t
TraceBuilder::load(std::uint32_t core, std::uint32_t pc, Addr addr,
                   std::uint8_t size, AccessType type, std::uint32_t gap,
                   std::uint32_t dep)
{
    MemAccess a;
    a.addr = addr;
    a.pc = pc;
    a.gap = gap;
    a.dep = dep;
    a.size = size;
    a.type = type;
    return emit(core, a);
}

std::size_t
TraceBuilder::store(std::uint32_t core, std::uint32_t pc, Addr addr,
                    std::uint8_t size, AccessType type, std::uint32_t gap,
                    std::uint32_t dep)
{
    MemAccess a;
    a.addr = addr;
    a.pc = pc;
    a.gap = gap;
    a.dep = dep;
    a.size = size;
    a.flags = kFlagWrite;
    a.type = type;
    return emit(core, a);
}

std::size_t
TraceBuilder::swPrefetch(std::uint32_t core, std::uint32_t pc, Addr addr,
                         std::uint32_t gap)
{
    MemAccess a;
    a.addr = addr;
    a.pc = pc;
    a.gap = gap;
    a.size = 4;
    a.flags = kFlagSwPrefetch;
    a.type = AccessType::Other;
    return emit(core, a);
}

void
TraceBuilder::reserve(std::uint32_t core, std::size_t accesses)
{
    IMPSIM_CHECK(core < numCores_, "core out of range");
    traces_[core].accesses.reserve(accesses);
}

void
TraceBuilder::syncEmptyPhases()
{
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        if (!barrierPending_[c])
            continue;
        if (syncBase_ == 0)
            syncBase_ = alloc_.alloc("barrier_sync",
                                     std::uint64_t{numCores_} * kLineSize);
        load(c, kPcBarrierSync, syncBase_ + std::uint64_t{c} * kLineSize,
             4, AccessType::Other, 2);
    }
}

void
TraceBuilder::barrier()
{
    syncEmptyPhases();
    barrierPending_.assign(numCores_, 1);
}

void
TraceBuilder::tail(std::uint32_t core, std::uint64_t instructions)
{
    traces_[core].tailInstructions += instructions;
}

std::vector<CoreTrace>
TraceBuilder::take()
{
    syncEmptyPhases();
    return std::move(traces_);
}

} // namespace impsim
