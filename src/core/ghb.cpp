/**
 * @file
 * GHB prefetcher implementation.
 */
#include "core/ghb.hpp"

namespace impsim {

GhbPrefetcher::GhbPrefetcher(PrefetchHost &host, const GhbConfig &cfg,
                             TlbPfCross cross)
    : host_(host), cfg_(cfg), cross_(cross)
{
    history_.resize(cfg_.historyEntries);
    // The index never outgrows its bound, so size it once up front
    // and the hot path never rehashes.
    index_.reserve(cfg_.indexEntries);
}

void
GhbPrefetcher::onAccess(const AccessInfo &)
{
    // GHB is miss-driven.
}

void
GhbPrefetcher::onMiss(const AccessInfo &info)
{
    Addr line = lineAlign(info.addr);

    // Look up the previous occurrence before inserting this one.
    std::int64_t prev = -1;
    if (auto it = index_.find(line); it != index_.end())
        prev = it->second;

    // Prefetch the miss addresses that followed the previous
    // occurrence of this line.
    if (prev >= 0 && head_ - prev <= static_cast<std::int64_t>(
                                         history_.size())) {
        for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
            std::int64_t pos = prev + d;
            if (pos >= head_)
                break;
            if (head_ - pos > static_cast<std::int64_t>(history_.size()))
                continue; // Overwritten.
            const Slot &s = history_[pos % history_.size()];
            if (s.line == kNoAddr || s.line == line)
                continue;
            if (!host_.linePresent(s.line)) {
                PrefetchRequest req;
                req.addr = s.line;
                req.bytes = kLineSize;
                req.cross = cross_;
                host_.issuePrefetch(req);
            }
        }
    }

    // Insert this miss at the head.
    Slot &slot = history_[head_ % history_.size()];
    if (slot.line != kNoAddr) {
        // Evicting the oldest slot; drop a stale index mapping.
        auto it = index_.find(slot.line);
        if (it != index_.end() &&
            it->second == head_ - static_cast<std::int64_t>(history_.size()))
            index_.erase(it);
    }
    slot.line = line;
    slot.prevOccurrence = static_cast<std::int32_t>(prev < 0 ? -1 : 0);
    // Bound the index table like hardware would: evict the mapping
    // whose history position is oldest. (The unordered_map original
    // erased begin() — whatever hashed first, a layout accident; the
    // stalest mapping is the deterministic choice and the one least
    // likely to still be linked from the circular history.)
    if (index_.size() >= cfg_.indexEntries && !index_.count(line)) {
        auto victim = index_.begin();
        for (auto it = index_.begin(); it != index_.end(); ++it)
            if (it->second < victim->second)
                victim = it;
        index_.erase(victim);
    }
    index_[line] = head_;
    ++head_;
}

std::uint32_t
GhbPrefetcher::historySize() const
{
    std::uint32_t n = 0;
    for (const auto &s : history_)
        n += s.line != kNoAddr ? 1 : 0;
    return n;
}

} // namespace impsim
