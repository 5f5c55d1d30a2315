#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

/** Names of the per-layer figures that are simulated counts, not times. */
bool
is_count_or_count_ratio(const std::string &name)
{
    static const std::set<std::string> kRatios = {
        "decoders.tier_chain.onchip_ratio",
        "matching.union_find.absorb_ratio",
        "decoders.stream_window.carry_ratio",
        "core.offchip_service.delivered_ratio",
        "core.system.retried_per_kcycle",
        "core.system.degraded_per_kcycle",
        "core.offchip_service.shed_per_kcycle",
        "fabric.migrations_per_kcycle",
        "fabric.audit_failed_ratio",
    };
    const std::string suffix = ".n";
    return kRatios.count(name) > 0 ||
           (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0);
}

std::map<std::string, double>
counts_of(const RunResult &result)
{
    std::map<std::string, double> counts;
    for (const Metric &m : result.metrics) {
        if (is_count_or_count_ratio(m.name)) {
            counts[m.name] = m.value;
        }
    }
    return counts;
}

RunOptions
small_run(const std::string &workload, uint64_t op_cycles, bool trace)
{
    RunOptions options;
    options.workload = workload;
    options.seed = 7;
    options.trace = trace;
    options.max_ops = 2;
    options.op_cycles = op_cycles;
    return options;
}

/**
 * Volumes that keep each run near a second yet give the one measured
 * operation the 1000 samples a p99 needs: off-chip decodes in the
 * pipeline, windows in the stream.
 */
const std::map<std::string, uint64_t> kSmallCycles = {
    {"pipeline-d21", 40000},
    {"stream-d21", 12000},
    {"fabric-chaos", 1500},
};

} // namespace

TEST(Workloads, EveryWorkloadMatchesRunScenario)
{
    for (const std::string &name : workload_names()) {
        const RunResult result =
            run_workload(small_run(name, kSmallCycles.at(name), false));
        EXPECT_TRUE(result.correct) << name;
        EXPECT_EQ(result.attempted, 2u) << name;
        EXPECT_EQ(result.failed, 0u) << name;
        ASSERT_EQ(result.metrics.size(), 7u) << name;
        for (const Metric &m : result.metrics) {
            EXPECT_GT(m.value, 0.0) << name << " " << m.name;
        }
    }
}

TEST(Workloads, TracedRunsRepeatTheirCountsAndRatios)
{
    for (const std::string &name : workload_names()) {
        const RunOptions options =
            small_run(name, kSmallCycles.at(name), true);
        const RunResult first = run_workload(options);
        const RunResult second = run_workload(options);
        EXPECT_TRUE(first.correct) << name;
        EXPECT_EQ(first.failed, 0u) << name;
        const std::map<std::string, double> a = counts_of(first);
        EXPECT_EQ(a, counts_of(second)) << name;
        EXPECT_EQ(first.metrics.size(), second.metrics.size());
        double spans = 0.0;
        for (const auto &[key, value] : a) {
            spans += key.back() == 'n' && key[key.size() - 2] == '.'
                         ? value
                         : 0.0;
        }
        EXPECT_GT(spans, 0.0) << name;
    }
}

TEST(Workloads, PipelineReplayCountsEveryDecode)
{
    const RunResult result =
        run_workload(small_run("pipeline-d21", 3000, true));
    EXPECT_TRUE(result.correct);
    const std::map<std::string, double> c = counts_of(result);
    // One traced operation; its replay covers a fifth of the cycles at
    // two decodes (halves) per cycle.
    EXPECT_EQ(c.at("decoders.tier_chain.clique.n") +
                  c.at("decoders.tier_chain.uf.n") +
                  c.at("decoders.tier_chain.escalate.n"),
              2.0 * 600);
    EXPECT_EQ(c.at("matching.mwpm.n"), c.at("decoders.tier_chain.escalate.n"));
    EXPECT_GT(c.at("decoders.tier_chain.onchip_ratio"), 0.9);
}

TEST(Workloads, UnknownWorkloadIsRejected)
{
    RunOptions options;
    options.workload = "no-such-workload";
    EXPECT_THROW(run_workload(options), std::invalid_argument);
}
