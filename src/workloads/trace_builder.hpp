/**
 * @file
 * Trace construction helper used by every application kernel.
 *
 * Kernels allocate named arrays (optionally materialising their
 * contents into functional memory for IMP to read), then emit labelled
 * loads, stores, software prefetches and barriers per core.
 */
#ifndef IMPSIM_WORKLOADS_TRACE_BUILDER_HPP
#define IMPSIM_WORKLOADS_TRACE_BUILDER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/func_mem.hpp"
#include "common/virt_alloc.hpp"
#include "cpu/trace.hpp"

namespace impsim {

/** Builder for a set of per-core traces over one memory image. */
class TraceBuilder
{
  public:
    explicit TraceBuilder(std::uint32_t num_cores);

    std::uint32_t numCores() const { return numCores_; }
    FuncMem &mem() { return *mem_; }
    VirtAlloc &alloc() { return alloc_; }

    /** Allocates an array whose contents never matter. */
    Addr allocArray(const std::string &name, std::uint64_t bytes);

    /** Allocates an array and writes @p data into functional memory. */
    template <typename T>
    Addr
    putArray(const std::string &name, const std::vector<T> &data)
    {
        Addr base = alloc_.alloc(name, data.size() * sizeof(T));
        mem_->write(base, data.data(),
                    static_cast<std::uint32_t>(data.size() * sizeof(T)));
        return base;
    }

    /**
     * Emits a load for @p core.
     * @param dep back-distance to the access producing this address
     * @return index of the emitted access in the core's trace
     */
    std::size_t load(std::uint32_t core, std::uint32_t pc, Addr addr,
                     std::uint8_t size, AccessType type,
                     std::uint32_t gap, std::uint32_t dep = 0);

    /** Emits a store. */
    std::size_t store(std::uint32_t core, std::uint32_t pc, Addr addr,
                      std::uint8_t size, AccessType type,
                      std::uint32_t gap, std::uint32_t dep = 0);

    /** Emits a software prefetch instruction. */
    std::size_t swPrefetch(std::uint32_t core, std::uint32_t pc,
                           Addr addr, std::uint32_t gap);

    /**
     * Sizes @p core's trace storage for @p accesses accesses in total,
     * so a kernel that knows its count up front allocates each trace
     * once instead of regrowing it.
     */
    void reserve(std::uint32_t core, std::size_t accesses);

    /** Index the next emitted access for @p core will occupy. */
    std::size_t
    position(std::uint32_t core) const
    {
        return traces_[core].accesses.size();
    }

    /**
     * Inserts a global barrier: the next access each core emits waits
     * for all cores. A core that emitted nothing since the previous
     * barrier first gets a sync load (see syncEmptyPhases()), so every
     * core crosses every barrier.
     */
    void barrier();

    /** Adds trailing non-memory instructions to a core. */
    void tail(std::uint32_t core, std::uint64_t instructions);

    /** Finalises and moves the traces out. */
    std::vector<CoreTrace> take();

    /** Shared ownership of the memory image. */
    std::shared_ptr<FuncMem> memPtr() const { return mem_; }

  private:
    std::size_t emit(std::uint32_t core, MemAccess a);

    /**
     * Gives each core with no access since the last barrier one
     * 4-byte load of its own line of a sync array (allocated on first
     * use), the access that carries the barrier flag. Kernels whose
     * phases split work over cores leave a core empty whenever it has
     * fewer items than there are cores.
     */
    void syncEmptyPhases();

    std::uint32_t numCores_;
    std::shared_ptr<FuncMem> mem_;
    VirtAlloc alloc_;
    std::vector<CoreTrace> traces_;
    std::vector<std::uint8_t> barrierPending_;
    Addr syncBase_ = 0; ///< The sync array; 0 until a core needs it.
};

} // namespace impsim

#endif // IMPSIM_WORKLOADS_TRACE_BUILDER_HPP
