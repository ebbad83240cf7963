/**
 * @file
 * Prefetch Table implementation.
 */
#include "core/prefetch_table.hpp"

#include "common/logging.hpp"
#include "core/ipd.hpp"

namespace impsim {

PrefetchTable::PrefetchTable(const ImpConfig &cfg,
                             const StreamConfig &stream_cfg, Ipd *ipd)
    : cfg_(cfg), streamCfg_(stream_cfg), ipd_(ipd)
{
    entries_.resize(cfg_.ptEntries);
    pcHint_.fill(kNoEntry);
}

std::int16_t
PrefetchTable::findByPc(std::uint32_t pc) const
{
    std::int16_t hint = pcHint_[pc & 0xff];
    if (hint != kNoEntry) {
        const PtEntry &e = entries_[hint];
        if (e.valid && !e.secondary && e.pc == pc)
            return hint;
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const PtEntry &e = entries_[i];
        if (e.valid && !e.secondary && e.pc == pc) {
            pcHint_[pc & 0xff] = static_cast<std::int16_t>(i);
            return static_cast<std::int16_t>(i);
        }
    }
    return kNoEntry;
}

void
PrefetchTable::clearEntry(PtEntry &e)
{
    // Unlink any secondaries hanging off this entry.
    if (e.nextWay != kNoEntry)
        release(e.nextWay);
    if (e.nextLevel != kNoEntry)
        release(e.nextLevel);
    std::uint64_t lru = e.lru;
    e = PtEntry{};
    e.lru = lru;
}

PtEntry &
PrefetchTable::reuse(std::int16_t id)
{
    PtEntry &e = entries_[id];
    if (e.valid)
        clearEntry(e);
    if (ipd_)
        ipd_->releaseFor(id);
    return e;
}

std::int16_t
PrefetchTable::allocate(std::uint32_t pc, Addr addr)
{
    // Prefer an invalid frame; otherwise evict the LRU entry that is
    // not an active secondary (secondaries die with their parents).
    std::int16_t victim = kNoEntry;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        PtEntry &e = entries_[i];
        if (!e.valid) {
            victim = static_cast<std::int16_t>(i);
            break;
        }
        if (e.secondary)
            continue;
        if (victim == kNoEntry || e.lru < entries_[victim].lru)
            victim = static_cast<std::int16_t>(i);
    }
    if (victim == kNoEntry)
        return kNoEntry; // Pathological: every entry is secondary.

    PtEntry &e = reuse(victim);
    e.valid = true;
    e.secondary = false;
    e.pc = pc;
    e.lastAddr = addr;
    e.stride = 0;
    e.streamHits = 0;
    e.nextPrefetchLine = lineOf(addr) + 1;
    e.lru = ++lruClock_;
    pcHint_[pc & 0xff] = victim;
    return victim;
}

std::int16_t
PrefetchTable::allocSecondary(std::int16_t parent, IndType type)
{
    IMPSIM_CHECK(parent >= 0 && parent < static_cast<int>(entries_.size()),
                 "bad parent entry");
    // Find an invalid frame or the LRU entry that is neither the
    // parent chain nor an enabled indirect pattern.
    std::int16_t victim = kNoEntry;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        PtEntry &e = entries_[i];
        if (static_cast<std::int16_t>(i) == parent)
            continue;
        if (!e.valid) {
            victim = static_cast<std::int16_t>(i);
            break;
        }
        if (e.secondary || e.indEnable)
            continue;
        if (victim == kNoEntry || e.lru < entries_[victim].lru)
            victim = static_cast<std::int16_t>(i);
    }
    if (victim == kNoEntry)
        return kNoEntry;

    PtEntry &e = reuse(victim);
    e.valid = true;
    e.secondary = true;
    e.indType = type;
    e.prev = parent;
    e.lru = ++lruClock_;
    return victim;
}

void
PrefetchTable::release(std::int16_t id)
{
    if (id == kNoEntry)
        return;
    PtEntry &e = entries_[id];
    if (!e.valid)
        return;
    if (e.prev != kNoEntry && entries_[e.prev].valid) {
        if (entries_[e.prev].nextWay == id)
            entries_[e.prev].nextWay = kNoEntry;
        if (entries_[e.prev].nextLevel == id)
            entries_[e.prev].nextLevel = kNoEntry;
    }
    clearEntry(e);
    e.valid = false;
}

} // namespace impsim
