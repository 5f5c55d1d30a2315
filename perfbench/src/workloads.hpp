#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One reported figure: name, value as measured, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions
{
    std::string workload;
    /** Workload seed; operation i simulates seed + i * kSeedStride. */
    uint64_t seed = 1;
    /** Harness-loop time to accumulate before stopping. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Stop after this many operations (0 = only the time limit). */
    uint64_t max_ops = 0;
    /** Simulated cycles per operation (0 = the workload's default). */
    uint64_t op_cycles = 0;
};

/** Seed stride between consecutive operations of one run. */
constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

struct RunResult
{
    /** Every operation matched run_scenario and passed its checks,
        and the traced accounting added up. */
    bool correct = true;
    uint64_t attempted = 0;  ///< operations run
    uint64_t failed = 0;     ///< operations whose output check failed
    std::vector<Metric> metrics;
    /** Human-readable report lines (printed before the JSON line). */
    std::vector<std::string> lines;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workload_names();

/**
 * Run one workload: operations of a fixed simulated volume, each a
 * fresh set-up followed by one harness loop driven through the same
 * public calls the harness makes, until `seconds` of loop time have
 * accumulated (or `max_ops`). Each operation's simulated metrics are
 * then compared with `run_scenario` on the same spec and seed.
 *
 * Throws std::invalid_argument for an unknown workload.
 */
RunResult run_workload(const RunOptions &options);

} // namespace perfbench
