/**
 * @file
 * The Indirect Memory Prefetcher (paper §3 — the contribution).
 *
 * IMP snoops its L1's access and miss streams and works in three
 * steps (Fig 3):
 *   1. the Prefetch Table's stream halves capture index-array scans
 *      (word granularity, PC keyed, §3.3.1 nested-loop resync);
 *   2. the Indirect Pattern Detector pairs index values with nearby
 *      misses and solves Eq. 2 for (shift, BaseAddr);
 *   3. on each index access of a confident pattern, the address
 *      generator prefetches A[B[i + delta]] — reading B[i + delta]
 *      from the cache (prefetching its line first when absent), with
 *      a linearly ramping distance, an S/E read-write predictor,
 *      multi-way and multi-level secondary indirections (Fig 6), and
 *      partial-cacheline footprints from the Granularity Predictor
 *      (§4).
 */
#ifndef IMPSIM_CORE_IMP_HPP
#define IMPSIM_CORE_IMP_HPP

#include <cstdint>
#include "common/flat_map.hpp"
#include <vector>

#include "common/config.hpp"
#include "core/granularity_predictor.hpp"
#include "core/ipd.hpp"
#include "core/prefetch_table.hpp"
#include "core/prefetcher.hpp"

namespace impsim {

/** Internal IMP event counters (ablation benches and tests). */
struct ImpStats
{
    std::uint64_t primaryDetections = 0;
    std::uint64_t wayDetections = 0;
    std::uint64_t levelDetections = 0;
    std::uint64_t failedDetections = 0;
    std::uint64_t indirectIssued = 0;
    std::uint64_t indexLinePrefetches = 0;
    std::uint64_t chainedIssued = 0; ///< Second-level prefetches.
    std::uint64_t resyncs = 0;
};

/** The prefetcher. */
class ImpPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param partial enable Granularity-Predictor-sized footprints
     *                (the system must also run sectored caches).
     * @param line_granular the host observes one access per line (an
     *                L2-attached instance trains on the L1 miss
     *                stream): index element sizes come from the access
     *                size instead of the observed stride.
     */
    ImpPrefetcher(PrefetchHost &host, const ImpConfig &cfg,
                  const StreamConfig &stream_cfg, const GpConfig &gp_cfg,
                  bool partial, bool line_granular = false);

    void onAccess(const AccessInfo &info) override;
    void onMiss(const AccessInfo &info) override;
    void onPrefetchFill(Addr line_addr, std::uint16_t pattern_id) override;
    void onEvict(Addr line_addr) override;

    // ---- Inspection (tests / benches) ----
    PrefetchTable &table() { return pt_; }
    Ipd &ipd() { return ipd_; }
    GranularityPredictor &gp() { return gp_; }
    const ImpStats &impStats() const { return stats_; }

  private:
    void confidenceCheck(const AccessInfo &info);
    void handleIndexAccess(std::int16_t id, const AccessInfo &info);
    std::uint32_t indexBytes(const PtEntry &e) const;
    void installDetection(const IpdDetection &det);
    void maybeIssueIndirect(std::int16_t id, Addr index_access_addr);
    void issueIndirectFor(std::int16_t id, std::uint64_t value);
    void applyDetectionFailure(PtEntry &e);

    static constexpr std::size_t kPendingCap = 1024;

    PrefetchHost &host_;
    ImpConfig cfg_;
    StreamConfig streamCfg_;
    bool partial_;
    bool lineGranular_;
    PrefetchTable pt_;
    Ipd ipd_;
    GranularityPredictor gp_;

    /** Index line in flight -> indirect issues waiting on its value. */
    FlatHashMap<Addr, std::vector<std::pair<std::int16_t, Addr>>>
        pendingIndex_;
    /** Parent prefetch line in flight -> level-2 chains to fire. */
    FlatHashMap<Addr, std::vector<std::pair<std::int16_t, Addr>>>
        pendingLevel2_;

    ImpStats stats_;
};

} // namespace impsim

#endif // IMPSIM_CORE_IMP_HPP
