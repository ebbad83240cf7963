/**
 * @file
 * L1 controller implementation.
 */
#include "sim/l1_controller.hpp"

#include "common/intmath.hpp"
#include "common/logging.hpp"
#include "core/ghb.hpp"
#include "core/imp.hpp"
#include "core/stream_prefetcher.hpp"

namespace impsim {

namespace {

/** Outstanding prefetch fills allowed per L1 (MSHR-style bound). */
constexpr std::uint32_t kMaxPrefetchFills = 32;

} // namespace

L1Controller::L1Controller(CoreId core, const SystemConfig &cfg,
                           EventQueue &eq, MeshNoc &noc,
                           const FuncMem &mem,
                           std::vector<L2Controller *> l2s, Mmu *mmu)
    : core_(core), cfg_(cfg), eq_(eq), noc_(noc), mem_(mem),
      l2s_(std::move(l2s)), mmu_(mmu),
      cache_(cfg.l1SizeBytes, cfg.l1Ways,
             cfg.partial != PartialMode::Off ? cfg.gp.l1SectorBytes
                                             : kLineSize)
{}

void
L1Controller::attachPrefetcher(std::unique_ptr<Prefetcher> pf)
{
    prefetcher_ = std::move(pf);
    pfImp_ = dynamic_cast<ImpPrefetcher *>(prefetcher_.get());
    pfStream_ = dynamic_cast<StreamPrefetcher *>(prefetcher_.get());
    pfGhb_ = dynamic_cast<GhbPrefetcher *>(prefetcher_.get());
    if (prefetcher_ == nullptr)
        pfKind_ = PfKind::None;
    else if (pfImp_ != nullptr)
        pfKind_ = PfKind::Imp;
    else if (pfStream_ != nullptr)
        pfKind_ = PfKind::Stream;
    else if (pfGhb_ != nullptr)
        pfKind_ = PfKind::Ghb;
    else
        pfKind_ = PfKind::Other;
}

void
L1Controller::notifyAccess(const AccessInfo &info)
{
    // The engine classes are final, so these calls bind statically.
    switch (pfKind_) {
    case PfKind::None:
        break;
    case PfKind::Imp:
        pfImp_->onAccess(info);
        break;
    case PfKind::Stream:
        pfStream_->onAccess(info);
        break;
    case PfKind::Ghb:
        pfGhb_->onAccess(info);
        break;
    case PfKind::Other:
        prefetcher_->onAccess(info);
        break;
    }
}

void
L1Controller::notifyMiss(const AccessInfo &info)
{
    switch (pfKind_) {
    case PfKind::None:
        break;
    case PfKind::Imp:
        pfImp_->onMiss(info);
        break;
    case PfKind::Stream:
        pfStream_->onMiss(info);
        break;
    case PfKind::Ghb:
        pfGhb_->onMiss(info);
        break;
    case PfKind::Other:
        prefetcher_->onMiss(info);
        break;
    }
}

std::uint32_t
L1Controller::maskFor(Addr addr, std::uint32_t size) const
{
    return sectorMaskClipped(addr, size, cache_.sectorBytes());
}

CoreId
L1Controller::homeOf(Addr line_addr) const
{
    return homeTileOf(line_addr, cfg_.numCores);
}

bool
L1Controller::linePresent(Addr addr) const
{
    return cache_.find(lineAlign(addr)) != nullptr;
}

std::uint64_t
L1Controller::readValue(Addr addr, std::uint32_t bytes) const
{
    return mem_.loadIndex(addr, bytes);
}

void
L1Controller::applyWrite(Addr addr, std::uint32_t size)
{
    CacheLine *line = cache_.find(lineAlign(addr));
    if (line == nullptr)
        return; // Lost to a concurrent invalidation: drop silently.
    line->state = CState::M;
    line->dirtyMask |= maskFor(addr, size) & line->validMask;
}

void
L1Controller::finishDemand(const MemAccess &access, EventFn &done)
{
    if (access.isWrite())
        applyWrite(access.addr, access.size);
    done();
}

void
L1Controller::demandAccess(const MemAccess &access, EventFn done)
{
    // Counted here, outside the re-enterable body: retried and
    // replayed demands pass through demandAccessImpl again but are
    // still one architectural access.
    stats_.accessesByType[static_cast<int>(access.type)] += 1;
    if (mmu_ != nullptr && !mmu_->dtlbLookup(core_, access.addr)) {
        demandAccessTlbMiss(access, std::move(done));
        return;
    }
    demandAccessImpl(access, std::move(done));
}

IMPSIM_NOINLINE void
L1Controller::demandAccessTlbMiss(const MemAccess &access,
                                  EventFn done)
{
    // DTLB miss: the access (and its prefetcher notification) waits
    // for the translation, then runs at the ready tick. Kept out of
    // line so the continuation capture stays off demandAccess's
    // frame — TLB-off runs take that path tens of millions of times.
    mmu_->translateMiss(core_, access.addr,
                        [this, access, done = std::move(done)]() mutable {
                            demandAccessImpl(access, std::move(done));
                        });
}

void
L1Controller::demandAccessImpl(const MemAccess &access, EventFn &&done,
                               bool notify)
{
    AccessType type = access.type;

    if (cfg_.magicMemory) {
        stats_.hits += 1;
        eq_.scheduleAfter(cfg_.l1LatencyCycles, std::move(done));
        return;
    }
    if (cfg_.perfectMemory) {
        perfectAccess(access, std::move(done));
        return;
    }

    Addr line_addr = lineAlign(access.addr);
    std::uint32_t need = maskFor(access.addr, access.size);
    CacheLine *line = cache_.find(line_addr);

    bool sectors_ok = line != nullptr &&
                      (line->validMask & need) == need;
    bool state_ok = line != nullptr &&
                    (!access.isWrite() || line->state == CState::E ||
                     line->state == CState::M);

    AccessInfo info{access.addr, access.pc, access.size, access.isWrite(),
                    sectors_ok && state_ok};

    if (sectors_ok && state_ok) {
        // Hit.
        stats_.hits += 1;
        cache_.touch(*line);
        if (line->prefetched && !line->touched) {
            line->touched = true;
            stats_.prefUsefulFirstTouch += 1;
        }
        if (access.isWrite())
            applyWrite(access.addr, access.size);
        if (notify)
            notifyAccess(info);
        eq_.scheduleAfter(cfg_.l1LatencyCycles, std::move(done));
        return;
    }

    // Miss or upgrade. Check for an in-flight fill first.
    if (auto it = pending_.find(line_addr); it != pending_.end()) {
        PendingFill &pf = it->second;
        bool satisfies = !pf.invalidated &&
                         (pf.mask & need) == need &&
                         (!access.isWrite() || pf.exclusive);
        if (satisfies) {
            if (pf.isPrefetch)
                stats_.prefLate += 1; // Covered, but only partially.
            else
                stats_.demandMerges += 1;
            pf.demandMerged = true;
            pf.waiters.push_back(Waiter{access, std::move(done)});
            if (notify)
                notifyAccess(info);
            return;
        }
        // Insufficient fill (e.g. needs exclusivity): retry after it.
        // No prefetcher notification here — the retried demandAccess
        // observes this access again, and notifying both times would
        // train the engine twice per architectural access.
        stats_.retries += 1;
        Tick retry = pf.completion + 1;
        eq_.schedule(retry,
                     [this, access, done = std::move(done)]() mutable {
                         demandAccessImpl(access, std::move(done));
                     });
        return;
    }

    // True miss.
    bool pure_upgrade = sectors_ok && !state_ok;
    if (line != nullptr && !sectors_ok)
        stats_.sectorMisses += 1;
    if (!pure_upgrade) {
        stats_.misses += 1;
        stats_.missesByType[static_cast<int>(type)] += 1;
    } else if (line->prefetched && !line->touched) {
        // A store consuming a prefetched line: the data fetch was
        // covered even though ownership still must be acquired.
        line->touched = true;
        stats_.prefUsefulFirstTouch += 1;
    }

    // Demand misses always fetch the full (remaining) line: partial
    // accessing is triggered only by IMP's indirect prefetches (§4.2).
    std::uint32_t fetch = cache_.allSectors();
    if (line != nullptr)
        fetch = sectors_ok ? 0 : (cache_.allSectors() & ~line->validMask);

    PendingFill *pf =
        launchFill(line_addr, fetch, access.isWrite(), false, false,
                   kNoPattern, notify ? &access : nullptr);
    pf->demandMerged = true;
    pf->waiters.push_back(Waiter{access, std::move(done)});

    if (notify) {
        notifyAccess(info);
        if (!pure_upgrade)
            notifyMiss(info);
    }
}

void
L1Controller::perfectAccess(const MemAccess &access, EventFn &&done)
{
    // PerfPref (§5.4): an oracle issued this access's line "several
    // thousand cycles" early, so the demand sees L1-hit latency unless
    // the memory system's backlog exceeds that lead. Cache state and
    // traffic are modeled for real so bandwidth limits still bind.
    Addr line_addr = lineAlign(access.addr);
    std::uint32_t need = maskFor(access.addr, access.size);
    CacheLine *line = cache_.find(line_addr);
    Tick lead = cfg_.perfectLeadCycles;

    Tick ready = eq_.now() + cfg_.l1LatencyCycles;
    if (line != nullptr && (line->validMask & need) == need) {
        stats_.hits += 1;
        cache_.touch(*line);
        if (access.isWrite())
            applyWrite(access.addr, access.size);
    } else if (auto it = pending_.find(line_addr);
               it != pending_.end()) {
        Tick completion = it->second.completion;
        if (completion > eq_.now() + lead)
            ready = completion - lead;
    } else {
        stats_.misses += 1;
        stats_.missesByType[static_cast<int>(access.type)] += 1;
        std::uint32_t fetch =
            line != nullptr ? (cache_.allSectors() & ~line->validMask)
                            : cache_.allSectors();
        Tick completion =
            launchFill(line_addr, fetch, access.isWrite(), false, false,
                       kNoPattern, &access)
                ->completion;
        if (completion > eq_.now() + lead)
            ready = completion - lead;
    }
    if (access.isWrite()) {
        // Ensure the write lands once the line is resident.
        Addr a = access.addr;
        std::uint8_t sz = access.size;
        eq_.schedule(ready, [this, a, sz, done = std::move(done)] {
            applyWrite(a, sz);
            done();
        });
        return;
    }
    eq_.schedule(ready, std::move(done));
}

void
L1Controller::softwarePrefetch(Addr addr, std::uint32_t pc)
{
    (void)pc;
    if (cfg_.magicMemory)
        return;
    PrefetchRequest req;
    req.addr = lineAlign(addr);
    req.bytes = kLineSize;
    issuePrefetch(req);
}

bool
L1Controller::issuePrefetch(const PrefetchRequest &req)
{
    if (cfg_.magicMemory)
        return false;
    if (mmu_ != nullptr)
        return issuePrefetchGated(req);
    return issuePrefetchNow(req);
}

IMPSIM_NOINLINE bool
L1Controller::issuePrefetchGated(const PrefetchRequest &req)
{
    // Page-crossing gate (docs/tlb.md): a prefetch whose page is
    // absent from this core's DTLB is dropped, stalled for a full
    // translation, or granted an opportunistic L2-TLB port,
    // per-engine. A deferred request re-enters the normal issue
    // path at translation-ready and is dropped silently there if
    // the line arrived some other way in the meantime.
    TlbPfCross policy = cfg_.tlb.resolveCross(req.cross);
    Mmu::PfGate gate =
        mmu_->prefetchGate(core_, req.addr, policy,
                           [this, req] { issuePrefetchNow(req); });
    if (gate == Mmu::PfGate::Dropped)
        return false;
    if (gate == Mmu::PfGate::Deferred)
        return true;
    return issuePrefetchNow(req);
}

bool
L1Controller::issuePrefetchNow(const PrefetchRequest &req)
{
    Addr line_addr = lineAlign(req.addr);
    std::uint32_t mask = maskFor(req.addr, req.bytes);

    const CacheLine *line = cache_.find(line_addr);
    if (line != nullptr && (line->validMask & mask) == mask &&
        (!req.exclusive ||
         line->state == CState::E || line->state == CState::M)) {
        return false; // Already covered.
    }
    if (prefetchesInFlight_ >= kMaxPrefetchFills)
        return false;

    std::uint32_t fetch =
        line != nullptr ? (mask & ~line->validMask) : mask;
    // launchFill rejects lines already in flight, so no separate
    // pending_ probe here.
    if (launchFill(line_addr, fetch, req.exclusive, true, req.indirect,
                   req.patternId) == nullptr)
        return false;
    ++prefetchesInFlight_;
    if (fetch == 0) {
        // Exclusivity-only upgrade of a fully valid line: no data
        // moves, so counting it as an issued prefetch would skew the
        // paper's coverage/accuracy stats.
        stats_.prefUpgrades += 1;
        return true;
    }
    stats_.prefIssued += 1;
    if (req.indirect)
        stats_.prefIssuedIndirect += 1;
    else
        stats_.prefIssuedStream += 1;
    return true;
}

L1Controller::PendingFill *
L1Controller::launchFill(Addr line_addr, std::uint32_t mask,
                         bool exclusive, bool is_prefetch, bool indirect,
                         std::uint16_t pattern_id,
                         const MemAccess *origin)
{
    if (pending_.count(line_addr))
        return nullptr;

    Tick t0 = eq_.now() + cfg_.l1LatencyCycles;
    CoreId home = homeOf(line_addr);
    Tick at_home = noc_.send(core_, home, 0, t0);
    L2DemandHint hint;
    const L2DemandHint *hp = nullptr;
    if (origin != nullptr) {
        hint = L2DemandHint{origin->addr, origin->pc, origin->size,
                            origin->isWrite()};
        hp = &hint;
    }
    L2FillResult res = l2s_[home]->handleFill(line_addr, mask, exclusive,
                                              core_, at_home, hp);
    Tick done = noc_.send(home, core_, res.payloadBytes, res.ready);
    if (done < eq_.now() + 2)
        done = eq_.now() + 2;

    PendingFill pf;
    pf.mask = mask;
    pf.exclusive = exclusive || res.exclusiveGranted;
    pf.isPrefetch = is_prefetch;
    pf.indirect = indirect;
    pf.patternId = pattern_id;
    pf.completion = done;
    // Inserted only after handleFill: a back-invalidation raised by the
    // L2's own evictions must not mark this not-yet-live fill.
    auto ins = pending_.emplace(line_addr, std::move(pf));

    eq_.schedule(done, [this, line_addr] { completeFill(line_addr); });
    return &ins.first->second;
}

void
L1Controller::completeFill(Addr line_addr)
{
    auto it = pending_.find(line_addr);
    IMPSIM_CHECK(it != pending_.end(), "fill completion without entry");
    PendingFill pf = std::move(it->second);
    pending_.erase(it);
    if (pf.isPrefetch && prefetchesInFlight_ > 0)
        --prefetchesInFlight_;

    Tick now = eq_.now();

    if (!pf.invalidated) {
        CacheLine *line = cache_.find(line_addr);
        if (line != nullptr) {
            line->validMask |= pf.mask;
            if (pf.exclusive && line->state == CState::S)
                line->state = CState::E;
            cache_.touch(*line);
        } else if (pf.mask != 0) {
            CacheLine *victim = cache_.victim(line_addr);
            if (victim->valid())
                evictFrame(*victim);
            cache_.fill(*victim, line_addr,
                        pf.exclusive ? CState::E : CState::S, pf.mask,
                        pf.isPrefetch);
            if (pf.isPrefetch && pf.demandMerged)
                victim->touched = true; // Late coverage counted already.
        } else {
            // Upgrade raced with an eviction: the data is gone. Replay
            // the waiting demands from scratch — silently: their first
            // pass already notified the prefetchers.
            for (auto &w : pf.waiters) {
                eq_.schedule(now + 1,
                             [this, access = w.access,
                              done = std::move(w.done)]() mutable {
                                 demandAccessImpl(access, std::move(done),
                                                  false);
                             });
            }
            pf.waiters.clear();
        }
    }

    for (auto &w : pf.waiters)
        finishDemand(w.access, w.done);

    if (pf.isPrefetch && prefetcher_ && !pf.invalidated)
        prefetcher_->onPrefetchFill(line_addr, pf.patternId);
}

void
L1Controller::evictFrame(CacheLine &frame)
{
    stats_.evictions += 1;
    if (frame.prefetched && !frame.touched)
        stats_.prefUnused += 1;
    if (prefetcher_)
        prefetcher_->onEvict(frame.lineAddr);

    Addr line_addr = frame.lineAddr;
    CoreId home = homeOf(line_addr);
    if (frame.dirtyMask != 0) {
        stats_.writebacks += 1;
        std::uint32_t bytes =
            cfg_.partial != PartialMode::Off
                ? popcount(frame.dirtyMask) * cache_.sectorBytes()
                : kLineSize;
        Tick arr = noc_.send(core_, home, bytes, eq_.now());
        l2s_[home]->handleWriteback(line_addr, frame.dirtyMask, core_,
                                    arr);
    } else {
        // Clean evictions are silent (no NoC message); the directory
        // is updated directly — see DESIGN.md.
        l2s_[home]->noteL1Evict(line_addr, core_);
    }
    cache_.invalidate(frame);
}

void
L1Controller::walkAccess(Addr addr, EventFn done)
{
    // A page walker's PTE read: real traffic through the normal
    // L1 -> home L2 -> DRAM path, but architecturally invisible — it
    // never trains prefetchers and never touches the demand hit/miss
    // counters (the MMU keeps its own walkAccesses count).
    Addr line_addr = lineAlign(addr);
    std::uint32_t need = cache_.allSectors();

    CacheLine *line = cache_.find(line_addr);
    if (line != nullptr && (line->validMask & need) == need) {
        cache_.touch(*line);
        eq_.scheduleAfter(cfg_.l1LatencyCycles, std::move(done));
        return;
    }

    if (auto it = pending_.find(line_addr); it != pending_.end()) {
        PendingFill &pf = it->second;
        if (!pf.invalidated && (pf.mask & need) == need) {
            // Ride the in-flight fill. A walk waiter must not set
            // demandMerged (it would skew late-coverage accounting),
            // and finishDemand on a read-shaped access is just done().
            MemAccess pte;
            pte.addr = addr;
            pte.size = 8;
            pf.waiters.push_back(Waiter{pte, std::move(done)});
            return;
        }
        // Unusable fill (partial sectors or invalidated): retry once
        // it drains, like a demand retry.
        Tick retry = pf.completion + 1;
        eq_.schedule(retry, [this, addr, done = std::move(done)]() mutable {
            walkAccess(addr, std::move(done));
        });
        return;
    }

    std::uint32_t fetch =
        line != nullptr ? (need & ~line->validMask) : need;
    MemAccess pte;
    pte.addr = addr;
    pte.size = 8;
    PendingFill *pf = launchFill(line_addr, fetch, false, false, false,
                                 kNoPattern);
    pf->waiters.push_back(Waiter{pte, std::move(done)});
}

std::uint32_t
L1Controller::backInvalidate(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    if (auto it = pending_.find(line_addr); it != pending_.end())
        it->second.invalidated = true;

    CacheLine *line = cache_.find(line_addr);
    if (line == nullptr)
        return 0;
    std::uint32_t dirty = line->dirtyMask;
    if (line->prefetched && !line->touched)
        stats_.prefUnused += 1;
    if (prefetcher_)
        prefetcher_->onEvict(line_addr);
    cache_.invalidate(*line);
    return dirty;
}

std::uint32_t
L1Controller::downgrade(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    // An exclusive fill still in flight must land in S, or this core
    // would silently upgrade a line the directory now counts shared.
    if (auto it = pending_.find(line_addr); it != pending_.end())
        it->second.exclusive = false;

    CacheLine *line = cache_.find(line_addr);
    if (line == nullptr)
        return 0;
    std::uint32_t dirty = line->dirtyMask;
    line->dirtyMask = 0;
    line->state = CState::S;
    return dirty;
}

} // namespace impsim
