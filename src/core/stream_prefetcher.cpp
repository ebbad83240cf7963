/**
 * @file
 * Stream prefetcher implementation.
 */
#include "core/stream_prefetcher.hpp"

namespace impsim {

void
issueStreamPrefetches(PrefetchHost &host, PtEntry &e, std::int16_t entry_id,
                      Addr addr, std::uint32_t degree, TlbPfCross cross)
{
    if (e.stride == 0)
        return;
    bool forward = e.stride > 0;
    std::int64_t cur = static_cast<std::int64_t>(lineOf(addr));
    std::int64_t target = forward ? cur + degree : cur - degree;
    std::int64_t frontier = static_cast<std::int64_t>(e.nextPrefetchLine);

    // Keep the frontier just ahead of the access point even after a
    // resync moved the stream.
    if (forward && frontier <= cur)
        frontier = cur + 1;
    if (!forward && frontier >= cur)
        frontier = cur - 1;

    while (forward ? frontier <= target : frontier >= target) {
        Addr line = static_cast<Addr>(frontier) << kLineBits;
        if (!host.linePresent(line)) {
            PrefetchRequest req;
            req.addr = line;
            req.bytes = kLineSize;
            req.indirect = false;
            req.patternId = static_cast<std::uint16_t>(entry_id);
            req.cross = cross;
            host.issuePrefetch(req);
        }
        frontier += forward ? 1 : -1;
    }
    e.nextPrefetchLine = static_cast<Addr>(frontier);
}

StreamPrefetcher::StreamPrefetcher(PrefetchHost &host,
                                   const ImpConfig &imp_cfg,
                                   const StreamConfig &stream_cfg,
                                   TlbPfCross cross)
    : host_(host), streamCfg_(stream_cfg), cross_(cross),
      table_(imp_cfg, stream_cfg)
{}

void
StreamPrefetcher::onAccess(const AccessInfo &info)
{
    StreamObservation obs = table_.observe(info.pc, info.addr);
    if (obs.entry == kNoEntry)
        return;
    PtEntry &e = table_.at(obs.entry);
    if (obs.confirmed) {
        issueStreamPrefetches(host_, e, obs.entry, info.addr,
                              streamCfg_.prefetchDegree, cross_);
    }
}

} // namespace impsim
