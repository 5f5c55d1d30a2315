#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "trace.hpp"

using namespace perfbench;

TEST(Percentiles, RankIsNearestRankCeiling)
{
    EXPECT_EQ(quantile_rank(1000, 9900), 990u);
    EXPECT_EQ(quantile_rank(999, 9900), 990u);  // ceil(989.01)
    EXPECT_EQ(quantile_rank(100, 5000), 50u);
    EXPECT_EQ(quantile_rank(101, 5000), 51u);
    EXPECT_EQ(quantile_rank(1, 9999), 1u);
}

TEST(Percentiles, SupportNeedsTenSamplesBeyond)
{
    EXPECT_TRUE(quantile_supported(1000, 9900));
    EXPECT_FALSE(quantile_supported(999, 9900));
    EXPECT_TRUE(quantile_supported(100, 9000));
    EXPECT_FALSE(quantile_supported(99, 9000));
    EXPECT_TRUE(quantile_supported(20, 5000));
    EXPECT_FALSE(quantile_supported(19, 5000));
    EXPECT_FALSE(quantile_supported(0, 5000));
}

TEST(Percentiles, HighestSupportedQuantile)
{
    EXPECT_EQ(highest_supported_quantile(99), 0);
    EXPECT_EQ(highest_supported_quantile(100), 9000);
    EXPECT_EQ(highest_supported_quantile(999), 9000);
    EXPECT_EQ(highest_supported_quantile(1000), 9900);
    EXPECT_EQ(highest_supported_quantile(10000), 9990);
    EXPECT_EQ(highest_supported_quantile(100000), 9999);
    EXPECT_EQ(quantile_label(9000), "p90");
    EXPECT_EQ(quantile_label(9900), "p99");
    EXPECT_EQ(quantile_label(9990), "p99.9");
    EXPECT_EQ(quantile_label(9999), "p99.99");
}

TEST(Percentiles, ValuesOfAKnownDistribution)
{
    std::vector<uint32_t> v(1000);
    std::iota(v.begin(), v.end(), 1u);  // 1..1000
    std::vector<uint32_t> shuffled(v.rbegin(), v.rend());
    EXPECT_EQ(quantile(shuffled, 5000), 500.0);
    EXPECT_EQ(quantile(shuffled, 9900), 990.0);
    const Summary s = summarize(shuffled);
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail_bp, 9900);
    EXPECT_EQ(s.tail, 990.0);
}

TEST(Percentiles, SmallSampleHasNoTail)
{
    std::vector<uint32_t> v = {5, 1, 3};
    const Summary s = summarize(v);
    EXPECT_EQ(s.n, 3u);
    EXPECT_EQ(s.p50, 3.0);
    EXPECT_EQ(s.tail_bp, 0);
    std::vector<uint32_t> none;
    EXPECT_EQ(summarize(none).n, 0u);
}

TEST(Tracer, BucketsSpansByName)
{
    Tracer tracer(2);  // 0 = quiet, 1 = serve
    tracer.add(0, 0, 10);
    tracer.add(1, 10, 40);
    // A span opened under one name and closed under another (bucketed
    // by what the call turned out to do) lands in the second bucket.
    const size_t span = tracer.begin(0, 40);
    tracer.end(span, 100, 1);
    tracer.add(0, 100, 105);
    EXPECT_EQ(tracer.recorded(), 4u);
    tracer.reduce();
    EXPECT_EQ(tracer.recorded(), 0u);
    const std::vector<SpanStats> &stats = tracer.stats();
    EXPECT_EQ(stats[0].durations, (std::vector<uint32_t>{10, 5}));
    EXPECT_EQ(stats[1].durations, (std::vector<uint32_t>{30, 60}));
    EXPECT_EQ(stats[0].total_ns, 15u);
    EXPECT_EQ(stats[1].total_ns, 90u);
}

TEST(Tracer, SelfTimeSubtractsChildren)
{
    Tracer tracer(3);  // 0 = step, 1 = pick, 2 = inner
    const size_t step = tracer.begin(0, 0);
    tracer.add(1, 10, 30);  // child: 20
    const size_t pick = tracer.begin(1, 50);
    tracer.add(2, 52, 55);  // grandchild: 3
    tracer.end(pick, 60);   // child: 10
    tracer.end(step, 100);  // 100 - (20 + 10) = 70 self
    tracer.add(0, 100, 110);  // a second, childless step: 10 self
    tracer.reduce();
    const std::vector<SpanStats> &stats = tracer.stats();
    EXPECT_EQ(stats[0].total_ns, 110u);
    EXPECT_EQ(stats[0].self_ns, 80u);
    EXPECT_EQ(stats[1].total_ns, 30u);
    EXPECT_EQ(stats[1].self_ns, 27u);
    EXPECT_EQ(stats[2].self_ns, 3u);
}

TEST(Tracer, SelfTimesAccumulateAcrossReduces)
{
    Tracer tracer(2);
    const size_t a = tracer.begin(0, 0);
    tracer.add(1, 0, 4);
    tracer.end(a, 10);
    tracer.reduce();
    const size_t again = tracer.begin(0, 20);
    tracer.end(again, 25);
    tracer.reduce();
    EXPECT_EQ(tracer.stats()[0].self_ns, 11u);
    EXPECT_EQ(tracer.stats()[0].durations.size(), 2u);
}

TEST(Tracer, RejectsBrokenNesting)
{
    Tracer tracer(2);  // 0 = outer, 1 = inner
    const size_t outer = tracer.begin(0, 0);
    tracer.begin(1, 1);
    EXPECT_THROW(tracer.end(outer, 5), std::logic_error);
    EXPECT_THROW(tracer.reduce(), std::logic_error);
}
