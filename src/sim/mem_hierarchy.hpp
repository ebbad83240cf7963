/**
 * @file
 * The assembled memory hierarchy: NoC, DRAM, L2 slices and L1s.
 */
#ifndef IMPSIM_SIM_MEM_HIERARCHY_HPP
#define IMPSIM_SIM_MEM_HIERARCHY_HPP

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/func_mem.hpp"
#include "core/tlb.hpp"
#include "dram/dram.hpp"
#include "noc/mesh.hpp"
#include "sim/l1_controller.hpp"
#include "sim/l2_controller.hpp"

namespace impsim {

/** Owns and wires every shared memory-system component. */
class MemHierarchy
{
  public:
    MemHierarchy(const SystemConfig &cfg, EventQueue &eq,
                 const FuncMem &mem);

    L1Controller &l1(CoreId core) { return *l1s_[core]; }
    L2Controller &l2(CoreId tile) { return *l2s_[tile]; }
    MeshNoc &noc() { return noc_; }
    DramModel &dram() { return *dram_; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(l1s_.size());
    }

    /** Aggregated L1 statistics. */
    CacheStats l1Stats() const;
    /** Aggregated L2 statistics. */
    CacheStats l2Stats() const;

    /** The translation model, or nullptr when it is off. */
    Mmu *mmu() { return mmu_.get(); }
    /** TLB statistics (enabled=false when the model is off). */
    TlbStats tlbStats() const;

  private:
    MeshNoc noc_;
    McMap mcMap_;
    std::unique_ptr<DramModel> dram_;
    std::unique_ptr<Mmu> mmu_; ///< Null unless cfg.tlb.enable.
    std::vector<std::unique_ptr<L2Controller>> l2s_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
};

} // namespace impsim

#endif // IMPSIM_SIM_MEM_HIERARCHY_HPP
