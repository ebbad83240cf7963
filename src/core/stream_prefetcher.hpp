/**
 * @file
 * PC-keyed stream prefetcher — the paper's Baseline (§5.4), and the
 * stream-table substrate IMP builds on.
 */
#ifndef IMPSIM_CORE_STREAM_PREFETCHER_HPP
#define IMPSIM_CORE_STREAM_PREFETCHER_HPP

#include "common/config.hpp"
#include "core/prefetch_table.hpp"
#include "core/prefetcher.hpp"

namespace impsim {

/**
 * Issues line prefetches ahead of a confirmed stream, tracked by the
 * entry's frontier so each line is requested once.
 *
 * Shared between the standalone StreamPrefetcher and IMP (whose PT
 * stream half behaves identically).
 */
void issueStreamPrefetches(PrefetchHost &host, PtEntry &e,
                           std::int16_t entry_id, Addr addr,
                           std::uint32_t degree);

/** The baseline stream prefetcher. */
class StreamPrefetcher final : public Prefetcher
{
  public:
    StreamPrefetcher(PrefetchHost &host, const ImpConfig &imp_cfg,
                     const StreamConfig &stream_cfg);

    void onAccess(const AccessInfo &info) override;

    /** Table inspection for tests. */
    PrefetchTable &table() { return table_; }

  private:
    PrefetchHost &host_;
    StreamConfig streamCfg_;
    PrefetchTable table_;
};

} // namespace impsim

#endif // IMPSIM_CORE_STREAM_PREFETCHER_HPP
