/**
 * @file
 * DRAM model implementations.
 */
#include "dram/dram.hpp"

#include "common/intmath.hpp"
#include "common/logging.hpp"

namespace impsim {

namespace {

Tick
transferCycles(std::uint32_t bytes, double bytes_per_cycle)
{
    return static_cast<Tick>(
        ceilDiv(bytes, static_cast<std::uint64_t>(bytes_per_cycle)));
}

} // namespace

// --------------------------------------------------------------------
// SimpleDram
// --------------------------------------------------------------------

SimpleDram::SimpleDram(std::uint32_t num_mcs, std::uint32_t latency_cycles,
                       double bytes_per_cycle)
    : latency_(latency_cycles), bytesPerCycle_(bytes_per_cycle),
      channels_(num_mcs, bytes_per_cycle)
{
    IMPSIM_CHECK(num_mcs > 0, "need at least one memory controller");
}

Tick
SimpleDram::access(std::uint32_t mc, Addr, std::uint32_t bytes, bool write,
                   Tick when)
{
    BwGrant g = channels_.claim(mc, when, bytes);
    stats_.queueCycles += g.queueDelay;
    Tick xfer = transferCycles(bytes, bytesPerCycle_);

    if (write) {
        stats_.writes += 1;
        stats_.bytesWritten += bytes;
        // Writebacks complete at the controller once enqueued.
        return g.start + xfer;
    }
    stats_.reads += 1;
    stats_.bytesRead += bytes;
    return g.start + latency_ + xfer;
}

// --------------------------------------------------------------------
// Ddr3Dram
// --------------------------------------------------------------------

Ddr3Dram::Ddr3Dram(std::uint32_t num_mcs, const SystemConfig &cfg)
    : banksPerRank_(cfg.dramBanksPerRank), rowBytes_(cfg.dramRowBytes),
      tCas_(cfg.tCas), tRcd_(cfg.tRcd), tRp_(cfg.tRp), tRas_(cfg.tRas),
      tCtrl_(cfg.dramControllerCycles),
      bytesPerCycle_(cfg.dramBytesPerCycle),
      channels_(num_mcs, cfg.dramBytesPerCycle)
{
    IMPSIM_CHECK(num_mcs > 0, "need at least one memory controller");
    banks_.assign(std::size_t{num_mcs} * banksPerRank_, Bank{});
}

Tick
Ddr3Dram::access(std::uint32_t mc, Addr addr, std::uint32_t bytes,
                 bool write, Tick when)
{
    // Bank selection: consecutive rows of a controller's address slice
    // spread across banks.
    std::uint64_t row = addr / rowBytes_;
    std::uint32_t bank_idx = static_cast<std::uint32_t>(row % banksPerRank_);
    Bank &bank = banks_.at(std::size_t{mc} * banksPerRank_ + bank_idx);

    // Channel bandwidth first (order-robust), then bank timing. The
    // bank busy-until is a bounded approximation (<= tRAS of error
    // for out-of-order claims).
    BwGrant g = channels_.claim(mc, when, bytes);
    Tick start = std::max(g.start, bank.readyAt);
    stats_.queueCycles += start - when;

    Tick access_lat;
    if (bank.openRow == row) {
        stats_.rowHits += 1;
        access_lat = tCas_;
    } else {
        bool first_touch = bank.openRow == ~0ull;
        stats_.rowMisses += 1;
        // Precharge the old row (skip on a cold bank), then activate.
        access_lat = (first_touch ? 0 : tRp_) + tRcd_ + tCas_;
        bank.openRow = row;
        // tRAS lower-bounds the activate-to-precharge window.
        bank.readyAt = start + std::max<Tick>(access_lat, tRas_);
    }

    Tick xfer = transferCycles(bytes, bytesPerCycle_);
    if (bank.readyAt < start + access_lat + xfer)
        bank.readyAt = start + access_lat + xfer;

    if (write) {
        stats_.writes += 1;
        stats_.bytesWritten += bytes;
        return start + access_lat + xfer;
    }
    stats_.reads += 1;
    stats_.bytesRead += bytes;
    return start + tCtrl_ + access_lat + xfer;
}

// --------------------------------------------------------------------
// McMap
// --------------------------------------------------------------------

McMap::McMap(std::uint32_t dim)
    : dim_(dim)
{
    IMPSIM_CHECK(dim > 0, "mesh dimension must be positive");
    // Diamond placement (Abts et al.): controller m sits in row m at a
    // column that staggers by two per row, spreading X-Y traffic
    // uniformly across the bisection.
    tiles_.reserve(dim_);
    for (std::uint32_t m = 0; m < dim_; ++m) {
        std::uint32_t col = (2 * m + dim_ / 2) % dim_;
        tiles_.push_back(m * dim_ + col);
    }
}

std::uint32_t
McMap::mcOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(lineOf(line_addr) % dim_);
}

CoreId
McMap::tileOf(std::uint32_t mc) const
{
    return tiles_.at(mc);
}

// --------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------

std::unique_ptr<DramModel>
makeDram(const SystemConfig &cfg)
{
    std::uint32_t mcs = cfg.numMemControllers();
    switch (cfg.dramModel) {
      case DramModelKind::Simple:
        return std::make_unique<SimpleDram>(mcs, cfg.dramLatencyCycles,
                                            cfg.dramBytesPerCycle);
      case DramModelKind::Ddr3:
        return std::make_unique<Ddr3Dram>(mcs, cfg);
    }
    IMPSIM_PANIC("unknown DRAM model");
}

} // namespace impsim
