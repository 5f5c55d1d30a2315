/**
 * @file
 * Steady-state allocation check: once its pools have grown, a loop of
 * `MwpmDecoder::decode_matched` calls into caller-owned match and
 * result buffers performs no heap allocation. Every global operator
 * new of this executable is counted, which is why the test has an
 * executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace {

std::atomic<long> g_allocations{0};

void *
counted_alloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return counted_alloc(size); }
void *operator new[](std::size_t size) { return counted_alloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace btwc {
namespace {

/** Detection events of a d-round window plus a perfect round. */
std::vector<DetectionEvent>
sample_window(const RotatedSurfaceCode &code, double p, Rng &rng)
{
    const int d = code.distance();
    ErrorFrame frame(code, CheckType::X);
    std::vector<std::vector<uint8_t>> raw(d + 1);
    for (int t = 0; t < d; ++t) {
        frame.inject(p, rng);
        frame.measure(p, rng, raw[t]);
    }
    frame.measure_perfect(raw[d]);
    std::vector<DetectionEvent> events;
    for (int t = 0; t <= d; ++t) {
        for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

TEST(SteadyStateAlloc, DecodeMatchedLoopAllocatesNothing)
{
    // Deep audits allocate their own bookkeeping by design; the
    // production levels must not allocate at all.
    ScopedAuditLevel level(AuditLevel::Basic);
    for (const int d : {5, 11}) {
        const RotatedSurfaceCode code(d);
        const MwpmDecoder decoder(code, CheckType::Z);
        Rng rng(3);
        std::vector<std::vector<DetectionEvent>> corpus;
        for (int i = 0; i < 32; ++i) {
            corpus.push_back(sample_window(code, 0.004 + 0.001 * (i % 8), rng));
        }
        code.check_distances(CheckType::Z);  // the lazy per-code table
        MwpmMatches matches;
        Decoder::Result out;
        for (const auto &events : corpus) {  // warm-up grows the pools
            decoder.decode_matched(events, d + 1, matches, out);
        }
        const long before = g_allocations.load();
        int64_t weight = 0;
        for (int pass = 0; pass < 3; ++pass) {
            for (const auto &events : corpus) {
                decoder.decode_matched(events, d + 1, matches, out);
                weight += out.weight;
            }
        }
        EXPECT_EQ(g_allocations.load() - before, 0) << "d=" << d;
        EXPECT_GT(weight, 0);
    }
}

} // namespace
} // namespace btwc
