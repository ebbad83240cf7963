/**
 * @file
 * TLB arrays, radix page table and MMU implementation.
 */
#include "core/tlb.hpp"

#include "common/logging.hpp"

namespace impsim {

// ---------------------------------------------------------------- TlbArray

TlbArray::TlbArray(std::uint32_t entries, std::uint32_t ways)
    : slots_(entries), ways_(ways), setMask_(entries / ways - 1)
{}

TlbArray::Slot *
TlbArray::setBase(std::uint64_t vpn)
{
    return &slots_[(vpn & setMask_) * ways_];
}

const TlbArray::Slot *
TlbArray::setBase(std::uint64_t vpn) const
{
    return &slots_[(vpn & setMask_) * ways_];
}

bool
TlbArray::lookup(std::uint64_t vpn)
{
    Slot *set = setBase(vpn);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].use = ++useClock_;
            return true;
        }
    }
    return false;
}

bool
TlbArray::present(std::uint64_t vpn) const
{
    const Slot *set = setBase(vpn);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn)
            return true;
    }
    return false;
}

void
TlbArray::insert(std::uint64_t vpn)
{
    Slot *set = setBase(vpn);
    Slot *victim = &set[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].use = ++useClock_;
            return;
        }
        // Prefer an invalid slot, else strict least-recently-used;
        // use stamps are unique so ties cannot occur.
        if (!victim->valid)
            continue;
        if (!set[w].valid || set[w].use < victim->use)
            victim = &set[w];
    }
    victim->vpn = vpn;
    victim->valid = true;
    victim->use = ++useClock_;
}

// --------------------------------------------------------------- PageTable

PageTable::PageTable(std::uint32_t page_bits, std::uint32_t levels)
    : pageBits_(page_bits), levels_(levels)
{
    IMPSIM_CHECK(levels_ > 0, "page table needs at least one level");
}

Addr
PageTable::nodeAddr(std::uint32_t level, std::uint64_t prefix)
{
    std::uint64_t key = (std::uint64_t{level} << 58) | prefix;
    auto it = nodes_.find(key);
    if (it != nodes_.end())
        return it->second;
    Addr base = nextNode_;
    nextNode_ += 4096;
    IMPSIM_CHECK(nextNode_ <= (Addr{1} << kAddrBits),
                 "page-table region exhausted");
    nodeCount_ += 1;
    nodes_.emplace(key, base);
    return base;
}

void
PageTable::walkPath(Addr vaddr, std::vector<Addr> &out)
{
    std::uint64_t vpn = vaddr >> pageBits_;
    for (std::uint32_t l = 0; l < levels_; ++l) {
        // Node at level l is named by the indices above it (9 bits per
        // level); the root's prefix is empty. Index = this level's
        // 9-bit VPN slice.
        std::uint64_t prefix = vpn >> (9u * (levels_ - l));
        std::uint64_t idx = (vpn >> (9u * (levels_ - 1 - l))) & 511u;
        out.push_back(nodeAddr(l, prefix) + idx * 8);
    }
}

// --------------------------------------------------------------------- Mmu

Mmu::Mmu(const SystemConfig &cfg, EventQueue &eq)
    : tcfg_(cfg.tlb), eq_(eq), pageBits_(cfg.tlb.pageBits()),
      stlb_(cfg.tlb.l2Entries, cfg.tlb.l2Ways),
      pt_(cfg.tlb.pageBits(), cfg.tlb.walkLevels())
{
    dtlb_.reserve(cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        dtlb_.emplace_back(tcfg_.l1Entries, tcfg_.l1Ways);
    stats_.enabled = true;
}

void
Mmu::connectWalkPorts(std::vector<TlbWalkPort *> ports)
{
    IMPSIM_CHECK(ports.size() == dtlb_.size(),
                 "one walk port per core required");
    ports_ = std::move(ports);
}

Tick
Mmu::l2PortAccess()
{
    Tick start = eq_.now() > l2NextFree_ ? eq_.now() : l2NextFree_;
    l2NextFree_ = start + 1;
    return start + tcfg_.l2LatencyCycles;
}

bool
Mmu::dtlbLookup(CoreId c, Addr vaddr)
{
    if (dtlb_[c].lookup(vpnOf(vaddr))) {
        stats_.l1Hits += 1;
        return true;
    }
    stats_.l1Misses += 1;
    return false;
}

void
Mmu::translateMiss(CoreId c, Addr vaddr, EventFn done)
{
    missAccess(c, vaddr, true, std::move(done));
}

void
Mmu::missAccess(CoreId c, Addr vaddr, bool demand, EventFn done)
{
    std::uint64_t vpn = vpnOf(vaddr);
    Tick now = eq_.now();

    // MSHR-style coalescing: a walk already in flight for this page
    // serves every further miss on it, demand or prefetch.
    if (auto it = walks_.find(vpn); it != walks_.end()) {
        stats_.walkJoins += 1;
        it->second.waiters.push_back(Waiter{c, now, demand, std::move(done)});
        return;
    }

    Tick ready = l2PortAccess();
    if (stlb_.lookup(vpn)) {
        if (demand) {
            stats_.l2Hits += 1;
            stats_.stallCycles += ready - now;
        }
        dtlb_[c].insert(vpn);
        eq_.schedule(ready, std::move(done));
        return;
    }
    if (demand)
        stats_.l2Misses += 1;

    // The walk launches once the L2-TLB miss is known, at `ready`.
    stats_.walks += 1;
    Walk w;
    w.started = ready;
    w.port = c;
    pt_.walkPath(vaddr, w.path);
    w.waiters.push_back(Waiter{c, now, demand, std::move(done)});
    walks_.emplace(vpn, std::move(w));
    eq_.schedule(ready, [this, vpn] { issueNextPte(vpn); });
}

void
Mmu::issueNextPte(std::uint64_t vpn)
{
    auto it = walks_.find(vpn);
    IMPSIM_CHECK(it != walks_.end(), "walk step without an entry");
    Walk &w = it->second;
    if (w.next == w.path.size()) {
        finishWalk(vpn);
        return;
    }
    Addr pte = w.path[w.next];
    w.next += 1;
    stats_.walkAccesses += 1;
    // Levels are serial: each PTE read's data yields the next level's
    // node pointer. No member access after walkAccess — the map may
    // move the entry once further walks start.
    ports_[w.port]->walkAccess(pte, [this, vpn] { issueNextPte(vpn); });
}

void
Mmu::finishWalk(std::uint64_t vpn)
{
    Tick when = eq_.now();
    auto it = walks_.find(vpn);
    Walk w = std::move(it->second);
    walks_.erase(it);

    stats_.walkCycles += when - w.started;
    stlb_.insert(vpn);
    for (auto &wt : w.waiters) {
        dtlb_[wt.core].insert(vpn);
        if (wt.demand)
            stats_.stallCycles += when - wt.enqueued;
    }
    for (auto &wt : w.waiters)
        wt.done();
}

Mmu::PfGate
Mmu::prefetchGate(CoreId c, Addr vaddr, TlbPfCross policy, EventFn done)
{
    std::uint64_t vpn = vpnOf(vaddr);
    if (dtlb_[c].present(vpn)) {
        stats_.pfSamePage += 1;
        return PfGate::Ready;
    }
    switch (policy) {
    case TlbPfCross::Default: // Callers resolve; treat like Drop.
    case TlbPfCross::Drop:
        stats_.pfCrossDropped += 1;
        return PfGate::Dropped;
    case TlbPfCross::Stall:
        stats_.pfCrossStalled += 1;
        missAccess(c, vaddr, false, std::move(done));
        return PfGate::Deferred;
    case TlbPfCross::Translate: {
        // Opportunistic: spend the L2-TLB port only if it is idle
        // right now, and never launch a speculative walk.
        if (l2NextFree_ > eq_.now() || walks_.count(vpn) != 0) {
            stats_.pfTranslateDropped += 1;
            return PfGate::Dropped;
        }
        Tick ready = l2PortAccess();
        if (!stlb_.lookup(vpn)) {
            stats_.pfTranslateDropped += 1;
            return PfGate::Dropped;
        }
        stats_.pfCrossTranslated += 1;
        dtlb_[c].insert(vpn);
        eq_.schedule(ready, std::move(done));
        return PfGate::Deferred;
    }
    }
    return PfGate::Dropped; // Unreachable.
}

} // namespace impsim
