/**
 * @file
 * Global History Buffer correlation prefetcher (Nesbit & Smith), the
 * comparison point of paper §5.4.
 *
 * G/AC organisation: a circular miss-history buffer with an index
 * table hashing the last miss line to its most recent history slot.
 * On a miss, the addresses that followed the previous occurrence of
 * the same line are prefetched. Captures repeated irregular
 * sequences; cannot capture first-visit indirect patterns — which is
 * exactly the paper's point.
 */
#ifndef IMPSIM_CORE_GHB_HPP
#define IMPSIM_CORE_GHB_HPP

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "core/prefetcher.hpp"

namespace impsim {

/** The GHB prefetcher. */
class GhbPrefetcher final : public Prefetcher
{
  public:
    GhbPrefetcher(PrefetchHost &host, const GhbConfig &cfg);

    void onAccess(const AccessInfo &info) override;
    void onMiss(const AccessInfo &info) override;

    /** History occupancy (tests). */
    std::uint32_t historySize() const;

  private:
    struct Slot
    {
        Addr line = kNoAddr;
        std::int32_t prevOccurrence = -1; ///< Link to same-line slot.
    };

    PrefetchHost &host_;
    GhbConfig cfg_;
    std::vector<Slot> history_;
    std::int64_t head_ = 0; ///< Total pushes (mod size gives slot).
    /** line -> most recent history position (absolute). */
    FlatHashMap<Addr, std::int64_t> index_;
};

} // namespace impsim

#endif // IMPSIM_CORE_GHB_HPP
