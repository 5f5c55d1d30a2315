/**
 * @file
 * Cross-cutting property tests: the zero-latency off-chip queue (the
 * §5.2 stall model) against a textbook Lindley-recursion reference, end-to-end determinism from
 * seeds, filter algebra on random streams, and histogram/percentile
 * consistency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/filter.hpp"
#include "core/offchip_queue.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"

namespace btwc {
namespace {

TEST(StallControllerProperty, MatchesLindleyRecursion)
{
    // The §5.2 stall model is the zero-latency off-chip queue, a D/G/1
    // queue with deterministic service rate B: the backlog must follow
    // the Lindley recursion
    //   W_{t+1} = max(0, W_t + A_t - B)
    // and a cycle is a stall exactly when the previous cycle ended
    // with W > 0. Every decode is served or still waiting.
    Rng rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        const uint64_t bandwidth = 1 + rng.next_below(8);
        OffchipQueue queue(OffchipQueueConfig{bandwidth, 0, 0});
        uint64_t lindley = 0;
        uint64_t stalls = 0;
        uint64_t arrived = 0;
        for (int t = 0; t < 400; ++t) {
            const uint64_t arrivals = rng.next_below(12);
            const bool expect_stall = lindley > 0;
            EXPECT_EQ(queue.stall_pending(), expect_stall) << "t=" << t;
            queue.step(arrivals);
            arrived += arrivals;
            const uint64_t inflow = lindley + arrivals;
            lindley = inflow > bandwidth ? inflow - bandwidth : 0;
            stalls += expect_stall ? 1 : 0;
            ASSERT_EQ(queue.backlog(), lindley) << "t=" << t;
            ASSERT_EQ(queue.served() + queue.backlog(), arrived);
        }
        EXPECT_EQ(queue.stall_cycles(), stalls);
        EXPECT_EQ(queue.work_cycles(), 400u - stalls);
        EXPECT_EQ(queue.total_cycles(), 400u);
        EXPECT_DOUBLE_EQ(queue.execution_time_increase(),
                         static_cast<double>(stalls) /
                             static_cast<double>(400u - stalls));
    }
}

TEST(StallControllerProperty, ServiceNeverExceedsBandwidthPerCycle)
{
    Rng rng(11);
    OffchipQueue queue(OffchipQueueConfig{3, 0, 0});
    uint64_t prev_served = 0;
    for (int t = 0; t < 300; ++t) {
        queue.step(rng.next_below(10));
        EXPECT_LE(queue.served() - prev_served, 3u);
        prev_served = queue.served();
    }
}

TEST(Determinism, LifetimeRunsAreReproducible)
{
    LifetimeConfig config;
    config.distance = 7;
    config.p = 5e-3;
    config.cycles = 5000;
    config.seed = 99;
    const LifetimeStats a = run_lifetime(config);
    const LifetimeStats b = run_lifetime(config);
    EXPECT_EQ(a.all_zero_cycles, b.all_zero_cycles);
    EXPECT_EQ(a.trivial_cycles, b.trivial_cycles);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
    EXPECT_EQ(a.complex_halves, b.complex_halves);
    EXPECT_EQ(a.clique_corrections, b.clique_corrections);
}

TEST(Determinism, MemoryExperimentsAreReproducible)
{
    MemoryConfig config;
    config.distance = 5;
    config.p = 1e-2;
    config.max_trials = 2000;
    config.target_failures = 1000000;
    config.seed = 7;
    const MemoryResult a =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    const MemoryResult b =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.offchip_rounds, b.offchip_rounds);
}

TEST(Determinism, SeedsActuallyChangeTheStream)
{
    LifetimeConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.cycles = 5000;
    config.seed = 1;
    const LifetimeStats a = run_lifetime(config);
    config.seed = 2;
    const LifetimeStats b = run_lifetime(config);
    EXPECT_NE(a.trivial_cycles, b.trivial_cycles);
}

TEST(Determinism, FleetRunsAreReproducible)
{
    FleetConfig config;
    config.num_qubits = 500;
    config.cycles = 20000;
    config.offchip_prob = 0.01;
    config.seed = 5;
    const FleetRunResult a = run_fleet_with_bandwidth(config, 8);
    const FleetRunResult b = run_fleet_with_bandwidth(config, 8);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.max_backlog, b.max_backlog);
}

TEST(FilterProperty, OutputIsSubsetOfEveryWindowRound)
{
    // The filtered signature can only assert bits that were asserted
    // in all of the last R raw rounds.
    Rng rng(42);
    const int checks = 24;
    for (const int rounds : {1, 2, 3, 4}) {
        MeasurementFilter filter(checks, rounds);
        std::vector<std::vector<uint8_t>> window;
        for (int t = 0; t < 60; ++t) {
            std::vector<uint8_t> raw(checks);
            for (auto &bit : raw) {
                bit = rng.bernoulli(0.3) ? 1 : 0;
            }
            window.push_back(raw);
            if (static_cast<int>(window.size()) > rounds) {
                window.erase(window.begin());
            }
            const auto &filtered = filter.push(raw);
            for (int c = 0; c < checks; ++c) {
                uint8_t expect = 1;
                if (static_cast<int>(window.size()) < rounds) {
                    expect = 0;
                } else {
                    for (const auto &past : window) {
                        expect &= past[c];
                    }
                }
                ASSERT_EQ(filtered[c], expect)
                    << "rounds=" << rounds << " t=" << t << " c=" << c;
            }
        }
    }
}

TEST(HistogramProperty, PercentileAgreesWithSortedReference)
{
    Rng rng(17);
    CountHistogram hist;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng.binomial(200, 0.07);
        hist.add(v);
        values.push_back(static_cast<double>(v));
    }
    for (const double f : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        EXPECT_EQ(static_cast<double>(hist.percentile(f)),
                  percentile_of(values, f))
            << "fraction " << f;
    }
}

TEST(RngProperty, SplitStreamsAreIndependent)
{
    Rng parent(123);
    Rng child_a = parent.split();
    Rng child_b = parent.split();
    int collisions = 0;
    for (int i = 0; i < 64; ++i) {
        collisions += child_a.next_u64() == child_b.next_u64() ? 1 : 0;
    }
    EXPECT_LT(collisions, 2);
}

} // namespace
} // namespace btwc
