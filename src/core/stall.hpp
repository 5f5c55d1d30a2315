#pragma once

#include <cstdint>
#include <limits>

namespace btwc {

/**
 * Relative execution-time increase of a stalled run: stall cycles per
 * work cycle (the paper's Fig. 16 x-axis). An all-stall run — stalls
 * recorded but zero work cycles — is an infinite slowdown, not a free
 * one, so it saturates to +inf instead of reading as 0.
 */
inline double
stall_execution_time_increase(uint64_t stall_cycles, uint64_t work_cycles)
{
    if (work_cycles == 0) {
        return stall_cycles == 0
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(stall_cycles) /
           static_cast<double>(work_cycles);
}

} // namespace btwc
