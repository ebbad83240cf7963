/**
 * @file
 * §6.4: hardware storage cost of IMP, computed analytically from the
 * configured table geometries, compared against the paper's numbers
 * (PT < 2 Kbit, IPD 3.5 Kbit, total ~5.5 Kbit / 0.7 KB; GP 3.4 Kbit;
 * sector-cache valid bits 1.6%/0.4% of L1/L2).
 */
#include <cstdio>

#include "harness.hpp"

#include "common/intmath.hpp"

using namespace impsim;
using namespace impsim::bench;

namespace {

struct StorageModel
{
    std::uint64_t ptBits;
    std::uint64_t ipdBits;
    std::uint64_t gpBits;
    double l1ValidOverhead;
    double l2ValidOverhead;
};

StorageModel
computeStorage(const SystemConfig &cfg)
{
    StorageModel m{};
    // PT indirect half (§6.4.1): enable(1) + shift(3) + BaseAddr(48) +
    // index(48) + hit cnt(3) + distance(5) + links (Fig 6: type 2 +
    // 3 entry pointers of log2(PT)) + rw predictor(2).
    std::uint64_t ptr = ceilLog2(cfg.imp.ptEntries);
    std::uint64_t ind_entry =
        1 + 3 + kAddrBits + kAddrBits + 3 + 5 + 2 + 3 * ptr + 2;
    m.ptBits = std::uint64_t{cfg.imp.ptEntries} * ind_entry;

    // IPD (§6.4.1): two indices (48 each) + baseaddr array
    // [shifts][slots] of 48 + pt id + miss counter.
    std::uint64_t ipd_entry =
        2 * kAddrBits +
        std::uint64_t{cfg.imp.shifts.size()} * cfg.imp.baseAddrSlots *
            kAddrBits +
        ptr + 3;
    m.ipdBits = std::uint64_t{cfg.imp.ipdEntries} * ipd_entry;

    // GP (§6.4.2): per entry: samples * (tag 42 + touch bits) +
    // tot_sector(6) + min_granu(4) + granu(4) + evict(3).
    std::uint64_t sectors = kLineSize / cfg.gp.l1SectorBytes;
    std::uint64_t sample = (kAddrBits - kLineBits) + sectors;
    std::uint64_t gp_entry =
        std::uint64_t{cfg.gp.samples} * sample + 6 + 4 + 4 + 3;
    m.gpBits = std::uint64_t{cfg.imp.ptEntries} * gp_entry;

    // Sector-cache valid bits relative to data capacity.
    m.l1ValidOverhead =
        static_cast<double>(kLineSize / cfg.gp.l1SectorBytes) /
        (kLineSize * 8);
    m.l2ValidOverhead =
        static_cast<double>(kLineSize / cfg.gp.l2SectorBytes) /
        (kLineSize * 8);
    return m;
}

} // namespace

int
main()
{
    SystemConfig cfg = makePreset(ConfigPreset::ImpPartialNocDram, 64);
    StorageModel m = computeStorage(cfg);

    banner("Section 6.4: storage cost",
           "paper: PT < 2 Kbit, IPD 3.5 Kbit, IMP total 5.5 Kbit "
           "(~0.7 KB); GP 3.4 Kbit (~420 B); valid bits 1.6%/0.4%");
    std::printf("%-34s %10.2f Kbit  (paper: < 2)\n",
                "Prefetch Table (indirect halves)",
                m.ptBits / 1024.0);
    std::printf("%-34s %10.2f Kbit  (paper: 3.5)\n",
                "Indirect Pattern Detector", m.ipdBits / 1024.0);
    std::printf("%-34s %10.2f Kbit  (paper: 5.5)\n", "IMP total",
                (m.ptBits + m.ipdBits) / 1024.0);
    std::printf("%-34s %10.2f KB    (paper: ~0.7)\n", "IMP total",
                (m.ptBits + m.ipdBits) / 8.0 / 1024.0);
    std::printf("%-34s %10.2f Kbit  (paper: 3.4)\n",
                "Granularity Predictor", m.gpBits / 1024.0);
    std::printf("%-34s %9.1f%%   (paper: 1.6%%)\n",
                "L1 sector valid-bit overhead",
                m.l1ValidOverhead * 100.0);
    std::printf("%-34s %9.1f%%   (paper: 0.4%%)\n",
                "L2 sector valid-bit overhead",
                m.l2ValidOverhead * 100.0);

    // Sensitivity: halving the tables (§6.4.1 suggestion).
    SystemConfig small = cfg;
    small.imp.ptEntries = 8;
    small.imp.ipdEntries = 2;
    StorageModel ms = computeStorage(small);
    std::printf("%-34s %10.2f Kbit\n", "IMP total @ PT=8/IPD=2",
                (ms.ptBits + ms.ipdBits) / 1024.0);
    return 0;
}
