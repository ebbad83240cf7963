/**
 * @file
 * Main-memory models (Table 1).
 *
 * Two interchangeable models, as in the paper (§5.1):
 *  - SimpleDram: fixed 100 ns latency + 10 GB/s per controller.
 *  - Ddr3Dram:  DRAMSim-style bank timing, 10-10-10-24, 8 banks/rank,
 *               open-page policy, one rank per controller.
 *
 * Memory controllers sit on mesh tiles in a diamond arrangement
 * (Abts et al., §5.1) and lines interleave across controllers.
 */
#ifndef IMPSIM_DRAM_DRAM_HPP
#define IMPSIM_DRAM_DRAM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bandwidth.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace impsim {

/**
 * Abstract DRAM timing model. One instance serves all controllers;
 * per-controller state is indexed by controller id.
 */
class DramModel
{
  public:
    virtual ~DramModel() = default;

    /**
     * Performs a DRAM transfer.
     * @param mc     controller id
     * @param addr   (line) address accessed
     * @param bytes  bytes moved (partial accesses may be < 64)
     * @param write  true for writebacks
     * @param when   request arrival at the controller
     * @return tick the transfer completes at the controller
     */
    virtual Tick access(std::uint32_t mc, Addr addr, std::uint32_t bytes,
                        bool write, Tick when) = 0;

    DramStats &stats() { return stats_; }
    const DramStats &stats() const { return stats_; }

  protected:
    DramStats stats_;
};

/** Fixed-latency, bandwidth-limited model. */
class SimpleDram : public DramModel
{
  public:
    SimpleDram(std::uint32_t num_mcs, std::uint32_t latency_cycles,
               double bytes_per_cycle);

    Tick access(std::uint32_t mc, Addr addr, std::uint32_t bytes,
                bool write, Tick when) override;

  private:
    std::uint32_t latency_;
    double bytesPerCycle_;
    /** Channel bandwidth, one resource per controller. */
    BandwidthArray channels_;
};

/** Bank-state model with open-page row buffers. */
class Ddr3Dram : public DramModel
{
  public:
    Ddr3Dram(std::uint32_t num_mcs, const SystemConfig &cfg);

    Tick access(std::uint32_t mc, Addr addr, std::uint32_t bytes,
                bool write, Tick when) override;

  private:
    struct Bank
    {
        Tick readyAt = 0;       ///< Earliest next activate/CAS.
        std::uint64_t openRow = ~0ull;
    };

    std::uint32_t banksPerRank_;
    std::uint32_t rowBytes_;
    std::uint32_t tCas_, tRcd_, tRp_, tRas_;
    std::uint32_t tCtrl_;
    double bytesPerCycle_;
    BandwidthArray channels_; ///< One resource per controller.
    std::vector<Bank> banks_; ///< num_mcs * banksPerRank_, mc-major.
};

/**
 * Address-to-controller interleaving plus controller placement on the
 * mesh (diamond pattern).
 */
class McMap
{
  public:
    /** @param dim mesh edge; one controller per mesh row. */
    explicit McMap(std::uint32_t dim);

    std::uint32_t numControllers() const { return dim_; }

    /** Controller owning @p line_addr (line interleaved). */
    std::uint32_t mcOf(Addr line_addr) const;

    /** Mesh tile hosting controller @p mc. */
    CoreId tileOf(std::uint32_t mc) const;

  private:
    std::uint32_t dim_;
    std::vector<CoreId> tiles_;
};

/** Factory following SystemConfig::dramModel. */
std::unique_ptr<DramModel> makeDram(const SystemConfig &cfg);

} // namespace impsim

#endif // IMPSIM_DRAM_DRAM_HPP
