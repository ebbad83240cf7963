/**
 * @file
 * IMP implementation.
 */
#include "core/imp.hpp"

#include <algorithm>

#include "core/addr_gen.hpp"
#include "core/stream_prefetcher.hpp"

namespace impsim {

ImpPrefetcher::ImpPrefetcher(PrefetchHost &host, const ImpConfig &cfg,
                             const StreamConfig &stream_cfg,
                             const GpConfig &gp_cfg, bool partial,
                             bool line_granular, TlbPfCross cross)
    : host_(host), cfg_(cfg), streamCfg_(stream_cfg), partial_(partial),
      lineGranular_(line_granular), cross_(cross),
      pt_(cfg, stream_cfg, &ipd_), ipd_(cfg), gp_(gp_cfg, cfg.ptEntries)
{}

std::uint32_t
ImpPrefetcher::indexBytes(const PtEntry &e) const
{
    // A line-granular host observes one access per index line, so the
    // stride is the line pitch, not the element size; the access's own
    // size (remembered in the entry) is the element size.
    if (lineGranular_ && e.elemSize != 0)
        return e.elemSize;
    return e.elemBytes();
}

void
ImpPrefetcher::onAccess(const AccessInfo &info)
{
    if (partial_)
        gp_.onDemandTouch(info.addr, info.size);

    // Step A: confidence — does this access match a pattern's
    // predicted indirect address? (§3.2.3)
    confidenceCheck(info);

    // Step B: stream tracking. Stores participate in stream detection
    // (output arrays stream too) but never feed index values.
    StreamObservation obs = pt_.observe(info.pc, info.addr);
    if (obs.entry == kNoEntry)
        return;
    if (obs.resynced)
        ++stats_.resyncs;
    if (!obs.confirmed)
        return;

    PtEntry &e = pt_.at(obs.entry);
    issueStreamPrefetches(host_, e, obs.entry, info.addr,
                          streamCfg_.prefetchDegree, cross_);
    if (!info.write && obs.streamHit)
        handleIndexAccess(obs.entry, info);
}

void
ImpPrefetcher::confidenceCheck(const AccessInfo &info)
{
    Addr access_line = lineOf(info.addr);
    pt_.forEach([&](std::int16_t id, PtEntry &e) {
        if (!e.indEnable)
            return;
        Addr expected = indirectAddr(e.index, e.shift, e.baseAddr);
        if (lineOf(expected) != access_line)
            return;
        // Read/write predictor (2-bit saturating): every access that
        // matches the pattern's current target votes. Writes vote
        // double so read-modify-write patterns (e.g. SGD's factor
        // rows) settle on exclusive prefetches.
        if (info.write) {
            e.writeCtr = e.writeCtr >= 2 ? 3 : e.writeCtr + 2;
        } else if (e.writeCtr > 0) {
            --e.writeCtr;
        }
        if (!e.indexValid)
            return;
        // Match: the predicted indirect access happened.
        e.indexValid = false;
        if (e.indHits < cfg_.indirectCounterMax)
            ++e.indHits;
        // Multi-level detection: the value this access loads may index
        // another array (§3.3.2). Only primary patterns root a second
        // level, and only while none is attached.
        if (cfg_.secondaryIndirection && !info.write &&
            e.indType == IndType::Primary && e.nextLevel == kNoEntry &&
            cfg_.maxIndirectLevels >= 2 && e.backoffLeft == 0 &&
            e.shift >= 0) {
            std::uint32_t vbytes =
                std::min<std::uint32_t>(coeffBytes(e.shift), 8);
            std::uint64_t value = host_.readValue(expected, vbytes);
            auto res = ipd_.feedIndex(id, IndType::SecondLevel, value);
            if (res == Ipd::FeedResult::Failed)
                applyDetectionFailure(e);
        }
    });
}

void
ImpPrefetcher::handleIndexAccess(std::int16_t id, const AccessInfo &info)
{
    PtEntry &e = pt_.at(id);
    if (lineGranular_)
        e.elemSize = info.size > 8 ? 8 : info.size;
    std::uint64_t value = host_.readValue(info.addr, indexBytes(e));

    if (e.backoffLeft > 0)
        --e.backoffLeft;

    if (!e.indEnable) {
        // Detection phase (§3.2.2), gated by exponential back-off.
        if (e.backoffLeft > 0)
            return;
        auto res = ipd_.feedIndex(id, IndType::Primary, value);
        if (res == Ipd::FeedResult::Failed) {
            ++stats_.failedDetections;
            applyDetectionFailure(e);
        }
        return;
    }

    // Prefetch phase (§3.2.3).
    e.index = value;
    e.indexValid = true;
    e.indexAddr = info.addr;
    maybeIssueIndirect(id, info.addr);

    // Multi-way detection: another pattern may hang off the same
    // index stream (§3.3.2).
    if (cfg_.secondaryIndirection && e.waysUsed < cfg_.maxIndirectWays &&
        e.nextWay == kNoEntry && e.backoffLeft == 0) {
        auto res = ipd_.feedIndex(id, IndType::SecondWay, value);
        if (res == Ipd::FeedResult::Failed)
            applyDetectionFailure(e);
    }
}

void
ImpPrefetcher::applyDetectionFailure(PtEntry &e)
{
    e.backoff = e.backoff == 0
                    ? cfg_.backoffInitial
                    : std::min(e.backoff * 2, cfg_.backoffMax);
    e.backoffLeft = e.backoff;
}

void
ImpPrefetcher::onMiss(const AccessInfo &info)
{
    for (const IpdDetection &det : ipd_.onMiss(info.addr))
        installDetection(det);
}

void
ImpPrefetcher::installDetection(const IpdDetection &det)
{
    PtEntry &parent = pt_.at(det.ptId);
    if (!parent.valid)
        return;

    switch (det.purpose) {
      case IndType::Primary: {
        if (parent.indEnable)
            return; // Already armed (stale detection).
        parent.indEnable = true;
        parent.indType = IndType::Primary;
        parent.shift = det.shift;
        parent.baseAddr = det.baseAddr;
        parent.indHits = 0;
        parent.indexValid = false;
        parent.distance = 1;
        parent.writeCtr = 0;
        parent.backoff = 0;
        parent.backoffLeft = 0;
        parent.waysUsed = 1;
        parent.levelsUsed = 1;
        gp_.allocPattern(static_cast<std::uint16_t>(det.ptId));
        ++stats_.primaryDetections;
        return;
      }
      case IndType::SecondWay:
      case IndType::SecondLevel: {
        if (!parent.indEnable)
            return;
        // Refuse duplicates of the parent's own pattern.
        if (det.shift == parent.shift && det.baseAddr == parent.baseAddr)
            return;
        bool is_way = det.purpose == IndType::SecondWay;
        if (is_way && (parent.nextWay != kNoEntry ||
                       parent.waysUsed >= cfg_.maxIndirectWays))
            return;
        if (!is_way && (parent.nextLevel != kNoEntry ||
                        parent.indType != IndType::Primary))
            return;
        std::int16_t sec = pt_.allocSecondary(det.ptId, det.purpose);
        if (sec == kNoEntry)
            return;
        PtEntry &child = pt_.at(sec);
        child.indEnable = true;
        child.shift = det.shift;
        child.baseAddr = det.baseAddr;
        child.writeCtr = 0;
        if (is_way) {
            parent.nextWay = sec;
            ++parent.waysUsed;
            ++stats_.wayDetections;
        } else {
            parent.nextLevel = sec;
            ++parent.levelsUsed;
            ++stats_.levelDetections;
        }
        gp_.allocPattern(static_cast<std::uint16_t>(sec));
        return;
      }
      case IndType::None:
        return;
    }
}

void
ImpPrefetcher::maybeIssueIndirect(std::int16_t id, Addr index_access_addr)
{
    PtEntry &e = pt_.at(id);
    if (e.indHits < cfg_.indirectThreshold)
        return;

    // Distance ramps linearly with use (§3.2.3).
    if (e.distance < cfg_.maxPrefetchDistance)
        ++e.distance;

    std::int64_t offset =
        static_cast<std::int64_t>(e.distance) * e.stride;
    Addr target_idx = static_cast<Addr>(
        static_cast<std::int64_t>(index_access_addr) + offset);
    Addr idx_line = lineAlign(target_idx);

    if (host_.linePresent(idx_line)) {
        std::uint64_t value = host_.readValue(target_idx, indexBytes(e));
        issueIndirectFor(id, value);
        return;
    }

    // B[i + delta] is not resident yet: prefetch its line and chain
    // the indirect issue to the fill (§3.1: "IMP will prefetch and
    // read the value of B[i + delta]").
    PrefetchRequest req;
    req.addr = idx_line;
    req.bytes = kLineSize;
    req.patternId = static_cast<std::uint16_t>(id);
    req.cross = cross_;
    if (host_.issuePrefetch(req))
        ++stats_.indexLinePrefetches;
    if (pendingIndex_.size() < kPendingCap)
        pendingIndex_[idx_line].emplace_back(id, target_idx);
}

void
ImpPrefetcher::issueIndirectFor(std::int16_t id, std::uint64_t value)
{
    PtEntry &e = pt_.at(id);
    Addr target = indirectAddr(value, e.shift, e.baseAddr);

    std::uint32_t sector_bytes = kLineSize / gp_.sectorsPerLine();
    PrefetchRequest req;
    if (partial_) {
        std::uint32_t granu =
            gp_.granuSectors(static_cast<std::uint16_t>(id));
        Addr aligned = target & ~Addr{sector_bytes - 1};
        Addr line_end = lineAlign(target) + kLineSize;
        std::uint64_t span = std::uint64_t{granu} * sector_bytes;
        if (aligned + span > line_end)
            span = line_end - aligned;
        req.addr = aligned;
        req.bytes = static_cast<std::uint32_t>(span);
    } else {
        req.addr = lineAlign(target);
        req.bytes = kLineSize;
    }
    req.exclusive = e.writeCtr >= 2;
    req.indirect = true;
    req.patternId = static_cast<std::uint16_t>(id);
    req.cross = cross_;

    bool accepted = host_.issuePrefetch(req);
    if (accepted) {
        ++stats_.indirectIssued;
        if (partial_)
            gp_.maybeSample(static_cast<std::uint16_t>(id), target);
    }

    // Second level: chase the loaded value once available (§3.3.2).
    if (e.nextLevel != kNoEntry && e.shift >= 0) {
        if (!accepted && host_.linePresent(target)) {
            // Value already on chip: chain immediately.
            std::uint32_t vbytes =
                std::min<std::uint32_t>(coeffBytes(e.shift), 8);
            std::uint64_t v2 = host_.readValue(target, vbytes);
            ++stats_.chainedIssued;
            issueIndirectFor(e.nextLevel, v2);
        } else if (pendingLevel2_.size() < kPendingCap) {
            pendingLevel2_[lineAlign(target)].emplace_back(id, target);
        }
    }

    // Second ways share this index value (§3.3.2): issue immediately.
    if (e.nextWay != kNoEntry)
        issueIndirectFor(e.nextWay, value);
}

void
ImpPrefetcher::onPrefetchFill(Addr line_addr, std::uint16_t)
{
    line_addr = lineAlign(line_addr);

    if (auto it = pendingIndex_.find(line_addr);
        it != pendingIndex_.end()) {
        auto work = std::move(it->second);
        pendingIndex_.erase(it);
        for (auto [id, idx_addr] : work) {
            PtEntry &e = pt_.at(id);
            if (!e.valid || !e.indEnable)
                continue;
            std::uint64_t value =
                host_.readValue(idx_addr, indexBytes(e));
            issueIndirectFor(id, value);
        }
    }

    if (auto it = pendingLevel2_.find(line_addr);
        it != pendingLevel2_.end()) {
        auto work = std::move(it->second);
        pendingLevel2_.erase(it);
        for (auto [parent_id, target] : work) {
            PtEntry &parent = pt_.at(parent_id);
            if (!parent.valid || !parent.indEnable ||
                parent.nextLevel == kNoEntry || parent.shift < 0)
                continue;
            std::uint32_t vbytes =
                std::min<std::uint32_t>(coeffBytes(parent.shift), 8);
            std::uint64_t v2 = host_.readValue(target, vbytes);
            ++stats_.chainedIssued;
            issueIndirectFor(parent.nextLevel, v2);
        }
    }
}

void
ImpPrefetcher::onEvict(Addr line_addr)
{
    if (partial_)
        gp_.onEvict(line_addr);
}

} // namespace impsim
