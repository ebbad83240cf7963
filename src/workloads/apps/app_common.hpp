/**
 * @file
 * Shared helpers for the application kernels.
 */
#ifndef IMPSIM_WORKLOADS_APPS_APP_COMMON_HPP
#define IMPSIM_WORKLOADS_APPS_APP_COMMON_HPP

#include <algorithm>
#include <cstdint>

#include "common/intmath.hpp"
#include "workloads/trace_builder.hpp"
#include "workloads/workload.hpp"

namespace impsim {

/** Half-open index range assigned to one core. */
struct Range
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    std::uint32_t size() const { return end - begin; }
};

/** Contiguous block partition of @p total items over @p cores. */
inline Range
coreSlice(std::uint32_t total, std::uint32_t cores, std::uint32_t c)
{
    std::uint64_t b = (std::uint64_t{total} * c) / cores;
    std::uint64_t e = (std::uint64_t{total} * (c + 1)) / cores;
    return Range{static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(e)};
}

/** Scales a baseline size, clamped below. */
inline std::uint32_t
scaled(std::uint32_t base, double scale, std::uint32_t min_value)
{
    auto v = static_cast<std::uint32_t>(static_cast<double>(base) * scale);
    return std::max(v, min_value);
}

/** Rounds down to a power of two (RMAT needs pow2 vertex counts);
 * 1 for 0. */
inline std::uint32_t
pow2Floor(std::uint32_t v)
{
    return v == 0 ? 1u : 1u << floorLog2(v);
}

/** Software-prefetch distance used by the Mowry-style variants. The
 * paper tunes per loop; this value was best for our loop bodies. */
inline constexpr std::uint32_t kSwPrefetchDistance = 8;

} // namespace impsim

#endif // IMPSIM_WORKLOADS_APPS_APP_COMMON_HPP
