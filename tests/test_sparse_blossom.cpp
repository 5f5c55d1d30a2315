/**
 * @file
 * Oracle tests for the sparse blossom matcher (matching/sparse_blossom):
 * every instance must reach the same total weight as the dense
 * boundary-twin blossom oracle (tests/oracles/blossom) and, up to 18
 * defects, as the subset DP of matching/exact; every solve must pass
 * its LP optimality certificate (`SparseBlossom::audit`); and every
 * decoder correction must clear its syndrome. The corpus covers random
 * non-metric weights, d = 3..21 spacetime windows with 1..d+1 rounds
 * on both detector types, unit and non-unit weights, dense ties,
 * all-boundary instances, zero-distance pairs, and ~250-defect windows.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "decoders/exact_decoder.hpp"
#include "matching/exact.hpp"
#include "matching/mwpm.hpp"
#include "matching/sparse_blossom.hpp"
#include "oracles/blossom.hpp"
#include "surface/distance.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

/** A matching instance as explicit rows (tests only). */
struct Instance
{
    std::vector<std::vector<int>> w;  ///< k x k, < 0: no edge
    std::vector<int64_t> boundary;    ///< < 0: no boundary edge

    int size() const { return static_cast<int>(boundary.size()); }
};

/** An n x n matrix filled with `fill`. */
template <typename T>
std::vector<std::vector<T>>
square(int n, T fill)
{
    return std::vector<std::vector<T>>(
        static_cast<size_t>(n), std::vector<T>(static_cast<size_t>(n), fill));
}

/** Dense oracle: boundary twins with zero-cost twin-twin edges. */
int64_t
dense_weight(const Instance &inst)
{
    const int k = inst.size();
    const int n = 2 * k;
    std::vector<std::vector<int64_t>> w = square<int64_t>(n, -1);
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            if (i != j) {
                w[i][j] = inst.w[i][j];
                w[k + i][k + j] = 0;
            }
        }
        if (inst.boundary[i] >= 0) {
            w[i][k + i] = w[k + i][i] = inst.boundary[i];
        }
    }
    const std::vector<int> mate = min_weight_perfect_matching(n, w);
    EXPECT_EQ(mate.size(), static_cast<size_t>(n)) << "oracle infeasible";
    int64_t total = 0;
    for (int u = 0; u < n; ++u) {
        if (mate[u] > u) {
            total += w[u][mate[u]];
        }
    }
    return total;
}

/** Subset-DP oracle (k <= 18). */
int64_t
exact_weight(const Instance &inst)
{
    const int k = inst.size();
    std::vector<std::vector<int64_t>> w = square<int64_t>(k, -1);
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            if (i != j) {
                w[i][j] = inst.w[i][j];
            }
        }
    }
    std::vector<int> mates;
    return exact_min_weight_with_boundary_mates(k, w, inst.boundary, mates);
}

/**
 * Solve with the sparse matcher, audit the dual certificate, and check
 * the reported mates against the returned weight.
 */
int64_t
sparse_weight(const Instance &inst, SparseBlossom &solver)
{
    const int k = inst.size();
    std::vector<int> col(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
        col[i] = i;
    }
    DefectMetric metric;
    metric.use_rows(inst.w.data(), col.data(), inst.boundary.data(), k);
    const int64_t total = solver.solve(metric);
    solver.audit(metric);
    int64_t recount = 0;
    for (int i = 0; i < k; ++i) {
        const int m = solver.mates()[i];
        if (m < 0) {
            EXPECT_GE(inst.boundary[i], 0);
            recount += inst.boundary[i];
        } else {
            EXPECT_EQ(solver.mates()[m], i);
            EXPECT_GE(inst.w[i][m], 0);
            if (m > i) {
                recount += inst.w[i][m];
            }
        }
    }
    EXPECT_EQ(recount, total);
    return total;
}

Instance
random_instance(int k, int max_w, double edge_p, Rng &rng)
{
    Instance inst;
    inst.w = square<int>(k, -1);
    inst.boundary.assign(static_cast<size_t>(k), -1);
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
            if (rng.bernoulli(edge_p)) {
                const int x = static_cast<int>(rng.next_below(max_w + 1));
                inst.w[i][j] = inst.w[j][i] = x;
            }
        }
        inst.boundary[i] = static_cast<int64_t>(rng.next_below(max_w + 1));
    }
    // Some defects cannot reach the boundary; each keeps a partner edge
    // so a matching still exists.
    for (int i = 0; i < k; ++i) {
        bool has_edge = false;
        for (int j = 0; j < k; ++j) {
            has_edge = has_edge || inst.w[i][j] >= 0;
        }
        if (has_edge && rng.bernoulli(0.1)) {
            inst.boundary[i] = -1;
        }
    }
    return inst;
}

TEST(SparseBlossom, EmptyAndSingleDefect)
{
    SparseBlossom solver;
    Instance empty;
    EXPECT_EQ(sparse_weight(empty, solver), 0);
    Instance one;
    one.w = {{-1}};
    one.boundary = {4};
    EXPECT_EQ(sparse_weight(one, solver), 4);
    EXPECT_EQ(solver.mates()[0], -1);
}

TEST(SparseBlossom, PairBeatsTwoBoundaries)
{
    SparseBlossom solver;
    Instance inst;
    inst.w = {{-1, 3}, {3, -1}};
    inst.boundary = {2, 2};
    EXPECT_EQ(sparse_weight(inst, solver), 3);
    EXPECT_EQ(solver.mates()[0], 1);
    inst.boundary = {1, 1};
    EXPECT_EQ(sparse_weight(inst, solver), 2);
    EXPECT_EQ(solver.mates()[0], -1);
    EXPECT_EQ(solver.mates()[1], -1);
}

TEST(SparseBlossom, RandomNonMetricWeightsMatchBothOracles)
{
    // Arbitrary (non-metric) weights, zero-weight edges, missing edges,
    // unreachable or free boundaries, and small weight ranges that force
    // dense ties and blossoms.
    Rng rng(2024);
    SparseBlossom solver;
    for (int iter = 0; iter < 1500; ++iter) {
        const int k = 1 + static_cast<int>(rng.next_below(14));
        const int max_w = 1 + static_cast<int>(rng.next_below(12));
        const double edge_p = 0.3 + 0.7 * rng.next_double();
        const Instance inst = random_instance(k, max_w, edge_p, rng);
        const int64_t want = exact_weight(inst);
        if (want < 0) {
            // No matching exists: the solver must say so.
            EXPECT_THROW(sparse_weight(inst, solver), CheckFailure);
            continue;
        }
        const int64_t got = sparse_weight(inst, solver);
        ASSERT_EQ(got, want) << "iter=" << iter << " k=" << k;
        ASSERT_EQ(got, dense_weight(inst)) << "iter=" << iter << " k=" << k;
    }
}

TEST(SparseBlossom, LargerRandomInstancesMatchDenseOracle)
{
    Rng rng(77);
    SparseBlossom solver;
    for (int iter = 0; iter < 60; ++iter) {
        const int k = 20 + static_cast<int>(rng.next_below(40));
        const int max_w = 2 + static_cast<int>(rng.next_below(30));
        const Instance inst = random_instance(k, max_w, 0.8, rng);
        ASSERT_EQ(sparse_weight(inst, solver), dense_weight(inst))
            << "iter=" << iter << " k=" << k;
    }
}

TEST(SparseBlossom, AllBoundaryInstances)
{
    // Defects far apart and next to the boundary: every one retires.
    Rng rng(5);
    SparseBlossom solver;
    for (int iter = 0; iter < 50; ++iter) {
        const int k = 1 + static_cast<int>(rng.next_below(16));
        Instance inst;
        inst.w = square<int>(k, -1);
        inst.boundary.assign(static_cast<size_t>(k), 0);
        for (int i = 0; i < k; ++i) {
            inst.boundary[i] = 1 + static_cast<int64_t>(rng.next_below(3));
            for (int j = i + 1; j < k; ++j) {
                inst.w[i][j] = inst.w[j][i] =
                    7 + static_cast<int>(rng.next_below(5));
            }
        }
        int64_t all_boundary = 0;
        for (const int64_t b : inst.boundary) {
            all_boundary += b;
        }
        ASSERT_EQ(sparse_weight(inst, solver), all_boundary);
        for (int i = 0; i < k; ++i) {
            ASSERT_EQ(solver.mates()[i], -1);
        }
        ASSERT_EQ(all_boundary, exact_weight(inst));
    }
}

// ------------------------------------------- decoder-level spacetime corpus

/** Random detection events over `rounds` rounds (last one perfect). */
std::vector<DetectionEvent>
sample_events(const RotatedSurfaceCode &code, CheckType detector,
              int rounds, double p, Rng &rng)
{
    const CheckType error_type =
        detector == CheckType::Z ? CheckType::X : CheckType::Z;
    ErrorFrame frame(code, error_type);
    std::vector<std::vector<uint8_t>> raw(rounds);
    for (int t = 0; t < rounds - 1; ++t) {
        frame.inject(p, rng);
        frame.measure(p, rng, raw[t]);
    }
    frame.inject(p, rng);
    frame.measure_perfect(raw[rounds - 1]);
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (int c = 0; c < code.num_checks(detector); ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

/**
 * The instance the decoder solves, in closed form: space hops times
 * `space_weight` plus round separation times `time_weight` (the
 * spacetime graph is a Cartesian product), boundary one more hop.
 */
Instance
spacetime_instance(const RotatedSurfaceCode &code, CheckType detector,
                   const std::vector<DetectionEvent> &events,
                   int space_weight, int time_weight)
{
    const CheckGraphDistances &oracle = code.check_distances(detector);
    const int k = static_cast<int>(events.size());
    Instance inst;
    inst.w = square<int>(k, -1);
    inst.boundary.assign(static_cast<size_t>(k), -1);
    for (int i = 0; i < k; ++i) {
        inst.boundary[i] =
            static_cast<int64_t>(oracle.boundary_hops(events[i].check) + 1) *
            space_weight;
        for (int j = 0; j < k; ++j) {
            if (i != j) {
                inst.w[i][j] =
                    oracle.distance(events[i].check, events[j].check) *
                        space_weight +
                    std::abs(events[i].round - events[j].round) * time_weight;
            }
        }
    }
    return inst;
}

/** The correction's syndrome is the per-check parity of the events. */
void
expect_clears_syndrome(const RotatedSurfaceCode &code, CheckType detector,
                       const std::vector<DetectionEvent> &events,
                       const Decoder::Result &fix)
{
    const CheckType error_type =
        detector == CheckType::Z ? CheckType::X : CheckType::Z;
    ErrorFrame frame(code, error_type);
    frame.apply_mask(fix.correction);
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    std::vector<uint8_t> parity(
        static_cast<size_t>(code.num_checks(detector)), 0);
    for (const DetectionEvent &e : events) {
        parity[static_cast<size_t>(e.check)] ^= 1;
    }
    for (size_t c = 0; c < parity.size(); ++c) {
        ASSERT_EQ(syndrome[c] & 1, parity[c]) << "check " << c;
    }
}

/** Decode one window every way and compare. */
void
expect_oracles_agree(const RotatedSurfaceCode &code, CheckType detector,
                     const std::vector<DetectionEvent> &events, int rounds,
                     const MwpmDecoder &mwpm, const ExactDecoder &exact,
                     int space_weight, int time_weight, bool dense)
{
    const Decoder::Result fix = mwpm.decode(events, rounds);
    expect_clears_syndrome(code, detector, events, fix);
    const Instance inst = spacetime_instance(code, detector, events,
                                             space_weight, time_weight);
    if (events.size() <= 18) {
        const Decoder::Result ex = exact.decode(events, rounds);
        ASSERT_EQ(fix.weight, ex.weight) << "k=" << events.size();
        ASSERT_EQ(fix.weight, exact_weight(inst)) << "k=" << events.size();
        expect_clears_syndrome(code, detector, events, ex);
    }
    if (dense) {
        ASSERT_EQ(fix.weight, dense_weight(inst)) << "k=" << events.size();
    }
}

TEST(SparseBlossomDecoder, SpacetimeCorpusMatchesOracles)
{
    // d = 3..21, 1..d+1 rounds, both detectors, unit and non-unit
    // weights; each decode re-checks its dual certificate (deep audit).
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(31);
    for (int d = 3; d <= 21; d += 2) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            for (const auto &[sw, tw] :
                 {std::make_pair(1, 1), std::make_pair(3, 2),
                  std::make_pair(2, 5)}) {
                const MwpmDecoder mwpm(code, det, sw, tw);
                const ExactDecoder exact(code, det, sw, tw);
                const int samples = d <= 9 ? 12 : 3;
                for (int iter = 0; iter < samples; ++iter) {
                    const int rounds =
                        1 + static_cast<int>(rng.next_below(d + 1));
                    const double p = d <= 9 ? 0.01 + 0.02 * rng.next_double()
                                            : 0.002 + 0.004 * rng.next_double();
                    const std::vector<DetectionEvent> events =
                        sample_events(code, det, rounds, p, rng);
                    SCOPED_TRACE(::testing::Message()
                                 << "d=" << d << " rounds=" << rounds
                                 << " weights=" << sw << "/" << tw
                                 << " k=" << events.size());
                    expect_oracles_agree(code, det, events, rounds, mwpm,
                                         exact, sw, tw,
                                         events.size() <= 80);
                }
            }
        }
    }
}

TEST(SparseBlossomDecoder, DenseTiesOnSmallCodes)
{
    // High-rate single- and few-round noise on d = 3/5: many defects at
    // equal distances, so many equal-weight matchings.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(8);
    for (const int d : {3, 5}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            const MwpmDecoder mwpm(code, det);
            const ExactDecoder exact(code, det);
            for (int iter = 0; iter < 150; ++iter) {
                const int rounds = 1 + static_cast<int>(rng.next_below(3));
                const std::vector<DetectionEvent> events =
                    sample_events(code, det, rounds, 0.08, rng);
                expect_oracles_agree(code, det, events, rounds, mwpm, exact,
                                     1, 1, true);
            }
        }
    }
}

TEST(SparseBlossomDecoder, ZeroDistancePairs)
{
    // The stream decoder presents a carried defect at relative round 0
    // on the check of a fresh round-0 event: two defects at distance 0.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(13);
    for (const int d : {3, 5, 9}) {
        const RotatedSurfaceCode code(d);
        const MwpmDecoder mwpm(code, CheckType::Z);
        const ExactDecoder exact(code, CheckType::Z);
        for (int iter = 0; iter < 60; ++iter) {
            const int rounds = 1 + static_cast<int>(rng.next_below(d));
            std::vector<DetectionEvent> events =
                sample_events(code, CheckType::Z, rounds, 0.02, rng);
            const int dup = 1 + static_cast<int>(rng.next_below(3));
            for (int c = 0; c < dup; ++c) {
                const int check = static_cast<int>(
                    rng.next_below(code.num_checks(CheckType::Z)));
                events.insert(events.begin(), DetectionEvent{check, 0});
                events.insert(events.begin(), DetectionEvent{check, 0});
            }
            expect_oracles_agree(code, CheckType::Z, events, rounds, mwpm,
                                 exact, 1, 1, true);
        }
    }
}

TEST(SparseBlossomDecoder, QuarterThousandDefectWindows)
{
    // d = 21 windows of ~250 defects against the dense oracle.
    ScopedAuditLevel deep(AuditLevel::Deep);
    const int d = 21;
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    const ExactDecoder exact(code, CheckType::Z);
    Rng rng(21);
    int checked = 0;
    for (int iter = 0; iter < 20 && checked < 2; ++iter) {
        const std::vector<DetectionEvent> events =
            sample_events(code, CheckType::Z, d + 1, 0.012, rng);
        if (events.size() < 200) {
            continue;
        }
        ++checked;
        SCOPED_TRACE(::testing::Message() << "k=" << events.size());
        expect_oracles_agree(code, CheckType::Z, events, d + 1, mwpm, exact,
                             1, 1, true);
    }
    ASSERT_EQ(checked, 2) << "corpus must reach ~250-defect windows";
}

TEST(SparseBlossomDecoder, AuditRejectsAWrongCertificate)
{
    // The certificate is checked against the metric it is given: a
    // solve audited against a different instance must fail.
    SparseBlossom solver;
    Instance inst;
    inst.w = {{-1, 2}, {2, -1}};
    inst.boundary = {5, 5};
    std::vector<int> col = {0, 1};
    DefectMetric metric;
    metric.use_rows(inst.w.data(), col.data(), inst.boundary.data(), 2);
    solver.solve(metric);
    EXPECT_NO_THROW(solver.audit(metric));
    Instance cheaper = inst;
    cheaper.w = {{-1, 1}, {1, -1}};
    DefectMetric wrong;
    wrong.use_rows(cheaper.w.data(), col.data(), cheaper.boundary.data(), 2);
    EXPECT_THROW(solver.audit(wrong), CheckFailure);
}

} // namespace
} // namespace btwc
