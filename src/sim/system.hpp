/**
 * @file
 * Whole-machine assembly and simulation driver.
 */
#ifndef IMPSIM_SIM_SYSTEM_HPP
#define IMPSIM_SIM_SYSTEM_HPP

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/func_mem.hpp"
#include "common/stats.hpp"
#include "cpu/barrier.hpp"
#include "cpu/core_iface.hpp"
#include "cpu/trace.hpp"
#include "sim/mem_hierarchy.hpp"

namespace impsim {

/** Default safety tick bound of System::run, which every run uses. */
inline constexpr Tick kDefaultRunLimit = Tick{4} * 1000 * 1000 * 1000;

/**
 * A complete simulated machine bound to one set of per-core traces.
 *
 * Usage:
 *   System sys(cfg, traces, mem);
 *   SimStats stats = sys.run();
 */
class System
{
  public:
    /**
     * @param traces one trace per core; traces.size() must equal
     *               cfg.numCores
     * @param mem    functional memory image backing index values
     */
    System(const SystemConfig &cfg, const std::vector<CoreTrace> &traces,
           const FuncMem &mem);

    /**
     * Runs to completion. Panics, naming the case, if @p limit is
     * hit or the queue drains with cores unfinished (a deadlock in
     * the modeled machine).
     * @param limit safety tick bound
     */
    SimStats run(Tick limit = kDefaultRunLimit);

    // ---- Component access for tests and examples ----
    EventQueue &eventQueue() { return eq_; }
    MemHierarchy &hierarchy() { return *hier_; }
    TraceCore &core(CoreId c) { return *cores_[c]; }
    const SystemConfig &config() const { return cfg_; }

  private:
    void buildCores();
    void attachL2Prefetchers();

    SystemConfig cfg_;
    const std::vector<CoreTrace> &traces_;
    EventQueue eq_;
    std::unique_ptr<MemHierarchy> hier_;
    std::unique_ptr<Barrier> barrier_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    std::uint32_t coresDone_ = 0;
};

} // namespace impsim

#endif // IMPSIM_SIM_SYSTEM_HPP
