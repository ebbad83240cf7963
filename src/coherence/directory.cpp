/**
 * @file
 * ACKwise directory implementation.
 */
#include "coherence/directory.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace impsim {

Directory::Directory(std::uint32_t max_pointers, std::uint32_t num_cores)
    : maxPointers_(std::min<std::uint32_t>(max_pointers, 4)),
      numCores_(num_cores)
{
    IMPSIM_CHECK(maxPointers_ > 0, "need at least one sharer pointer");
    IMPSIM_CHECK(num_cores <= DirEntry::kNone,
                 "core count exceeds the packed 16-bit directory ids");
}

DirEntry &
Directory::entry(Addr line)
{
    return entries_[lineAlign(line)];
}

void
Directory::addSharer(DirEntry &e, CoreId core)
{
    if (!e.broadcast) {
        for (std::uint32_t i = 0; i < maxPointers_; ++i) {
            if (e.pointers[i] == core)
                return; // Already tracked.
        }
        for (std::uint32_t i = 0; i < maxPointers_; ++i) {
            if (e.pointers[i] == DirEntry::kNone) {
                e.pointers[i] = static_cast<std::uint16_t>(core);
                ++e.sharerCount;
                return;
            }
        }
        // Pointer overflow: ACKwise switches to counting mode.
        e.broadcast = true;
    }
    ++e.sharerCount;
}

void
Directory::dropEntryIfIdle(Addr line)
{
    auto it = entries_.find(lineAlign(line));
    if (it != entries_.end() && it->second.state == DirState::Uncached)
        entries_.erase(it);
}

DirAction
Directory::onGetS(Addr line, CoreId req)
{
    DirEntry &e = entry(line);
    DirAction act;
    switch (e.state) {
      case DirState::Uncached:
        // Sole reader: grant Exclusive so later writes upgrade
        // silently (standard MESI optimisation; paper §3.2.3 notes
        // prefetches may load in S or E).
        e.state = DirState::Exclusive;
        e.owner = static_cast<std::uint16_t>(req);
        e.sharerCount = 1;
        e.broadcast = false;
        std::fill(std::begin(e.pointers), std::end(e.pointers),
                  DirEntry::kNone);
        act.grantExclusive = true;
        return act;
      case DirState::Shared:
        addSharer(e, req);
        return act;
      case DirState::Exclusive:
        if (e.owner == req) {
            // Re-request from the owner (e.g. sector refill); keep E.
            act.grantExclusive = true;
            return act;
        }
        // Downgrade the owner to S; both become sharers.
        act.downgrade = e.owner;
        e.state = DirState::Shared;
        std::fill(std::begin(e.pointers), std::end(e.pointers),
                  DirEntry::kNone);
        e.sharerCount = 0;
        e.broadcast = false;
        addSharer(e, e.owner);
        addSharer(e, req);
        e.owner = DirEntry::kNone;
        return act;
    }
    IMPSIM_PANIC("bad directory state");
}

DirAction
Directory::onGetX(Addr line, CoreId req)
{
    DirEntry &e = entry(line);
    DirAction act;
    act.grantExclusive = true;
    switch (e.state) {
      case DirState::Uncached:
        break;
      case DirState::Shared:
        if (e.broadcast) {
            act.broadcastInvalidate = true;
        } else {
            for (std::uint32_t i = 0; i < maxPointers_; ++i) {
                std::uint16_t c = e.pointers[i];
                if (c != DirEntry::kNone && c != req)
                    act.invalidate.push_back(c);
            }
        }
        break;
      case DirState::Exclusive:
        if (e.owner != req)
            act.downgrade = e.owner; // Fetch dirty data + invalidate.
        break;
    }
    e.state = DirState::Exclusive;
    e.owner = static_cast<std::uint16_t>(req);
    e.sharerCount = 1;
    e.broadcast = false;
    std::fill(std::begin(e.pointers), std::end(e.pointers),
                  DirEntry::kNone);
    return act;
}

void
Directory::onEvict(Addr line, CoreId core)
{
    auto it = entries_.find(lineAlign(line));
    if (it == entries_.end())
        return;
    DirEntry &e = it->second;
    switch (e.state) {
      case DirState::Uncached:
        break;
      case DirState::Shared:
        if (!e.broadcast) {
            for (std::uint32_t i = 0; i < maxPointers_; ++i) {
                if (e.pointers[i] == core) {
                    e.pointers[i] = DirEntry::kNone;
                    --e.sharerCount;
                    break;
                }
            }
        } else if (e.sharerCount > 0) {
            --e.sharerCount;
        }
        if (e.sharerCount == 0)
            e.state = DirState::Uncached;
        break;
      case DirState::Exclusive:
        if (e.owner == core) {
            e.state = DirState::Uncached;
            e.owner = DirEntry::kNone;
            e.sharerCount = 0;
        }
        break;
    }
    dropEntryIfIdle(line);
}

DirEntry
Directory::peek(Addr line) const
{
    auto it = entries_.find(lineAlign(line));
    return it == entries_.end() ? DirEntry{} : it->second;
}

} // namespace impsim
