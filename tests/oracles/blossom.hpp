#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace btwc {

/**
 * Maximum-weight matching in a general graph, O(V^3) — a test-only
 * dense oracle, never linked into the library.
 *
 * Classic primal-dual weighted blossom algorithm (Galil's exposition):
 * dual variables on vertices and (shrunken) odd cycles, alternating
 * trees grown over tight edges, with grow / augment / shrink / expand
 * phases. Weights are non-negative integers; a zero weight means "no
 * edge". The implementation doubles all weights internally so that all
 * dual variables stay integral.
 *
 * It was the engine of the off-chip Minimum Weight Perfect Matching
 * decoder [19] before the sparse blossom matcher
 * (matching/sparse_blossom.hpp) replaced it; the differential tests
 * now solve the same instances with both, using the boundary-twin
 * reduction `min_weight_perfect_matching` below performs.
 * Correctness is property-tested against the brute-force oracle in
 * `matching/exact.hpp`.
 */
class MaxWeightMatching
{
  public:
    /** Create an empty solver; call `reset(n)` before use. */
    MaxWeightMatching() = default;

    /** Create an empty graph on n vertices (0-indexed externally). */
    explicit MaxWeightMatching(int n);

    /**
     * Re-arm the solver for a fresh n-vertex instance, reusing the
     * grown capacity of every internal array (in particular the dense
     * (2n+1)^2 edge matrix, the dominant per-solve allocation): once
     * the instance has seen its largest n, subsequent reset/solve
     * cycles are allocation-free. All edge weights are cleared; the
     * result is indistinguishable from a freshly constructed
     * MaxWeightMatching(n). This is what lets `MwpmDecoder` keep one
     * persistent matcher per decoder instance instead of paying the
     * matrix allocation on every decode.
     */
    void reset(int n);

    /** Set the weight of edge (u, v); w > 0 required, w == 0 removes. */
    void set_weight(int u, int v, int64_t w);

    /**
     * Run the matching. Returns the mate of each vertex (or -1) and
     * stores the total weight retrievable via `total_weight()`.
     */
    std::vector<int> solve();

    /** Total weight of the matching computed by `solve()`. */
    int64_t total_weight() const { return total_weight_; }

    /**
     * Verify the pooled-slot invariant over the active (2n+1)^2
     * region: every edge slot holds canonical endpoints Edge{u, v, .}
     * (add_blossom overwrites them; reset must restore them), and
     * with `expect_cleared` additionally zero weight — the exact
     * postcondition of reset(). Runs automatically at the end of
     * reset() under AuditLevel::Deep. Throws CheckFailure.
     */
    void audit_slots(bool expect_cleared) const;

  private:
    struct Edge
    {
        int u = 0;
        int v = 0;
        int64_t w = 0;
    };

    int64_t edge_delta(const Edge &e) const;
    void update_slack(int u, int x);
    void set_slack(int x);
    void queue_push(int x);
    void set_st(int x, int b);
    int get_pr(int b, int xr);
    void set_match(int u, int v);
    void augment(int u, int v);
    int get_lca(int u, int v);
    void add_blossom(int u, int lca, int v);
    void expand_blossom(int b);
    bool on_found_edge(const Edge &e);
    bool matching_phase();

    int n_ = 0;        ///< number of real vertices
    int n_x_ = 0;      ///< real vertices plus live blossoms
    int capacity_ = 0; ///< allocated array dimension (2 * max n + 1)

    std::vector<std::vector<Edge>> g_;
    std::vector<int64_t> lab_;
    std::vector<int> match_, slack_, st_, pa_, s_, vis_;
    std::vector<std::vector<int>> flower_, flower_from_;
    std::vector<int> queue_;
    size_t queue_head_ = 0;
    int64_t total_weight_ = 0;
    int visit_stamp_ = 0;
};

/**
 * Minimum-weight perfect matching on a (possibly sparse) graph.
 *
 * @param n      vertex count (must be even for a perfect matching)
 * @param weights dense n x n matrix; weights[u][v] < 0 marks a missing
 *               edge, any value >= 0 is a usable edge weight
 * @return mate vector (mate[u] == v), or an empty vector if no perfect
 *         matching exists
 *
 * Reduction: transformed weight B - w with B larger than the total
 * weight of all edges, so a maximum-weight matching is forced to be
 * perfect (when one exists) and minimizes the original weight.
 */
std::vector<int> min_weight_perfect_matching(
    int n, const std::vector<std::vector<int64_t>> &weights);

} // namespace btwc
