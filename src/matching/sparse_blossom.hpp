#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "decoders/decoder.hpp"
#include "surface/distance.hpp"

namespace btwc {

/**
 * Pairwise and boundary distances of one defect-matching instance,
 * answered on demand — never materialized as a k x k matrix.
 *
 * Two sources: the O(1) spacetime oracle (unit weights: check-graph
 * hops plus round separation), or per-defect distance rows such as the
 * Dijkstra tables of the weighted fallback, where `rows[i][col[j]]` is
 * the distance from defect i to defect j. A negative distance marks a
 * missing edge; a negative boundary distance marks a defect that cannot
 * retire to the boundary.
 */
class DefectMetric
{
  public:
    /** Unit-weight spacetime distances of `events` via the oracle. */
    void use_oracle(const CheckGraphDistances &oracle,
                    const DetectionEvent *events, const int64_t *boundary,
                    int k)
    {
        oracle_ = &oracle;
        events_ = events;
        rows_ = nullptr;
        col_ = nullptr;
        boundary_ = boundary;
        k_ = k;
    }

    /** Distances read from per-defect rows: d(i, j) = rows[i][col[j]]. */
    void use_rows(const std::vector<int> *rows, const int *col,
                  const int64_t *boundary, int k)
    {
        oracle_ = nullptr;
        events_ = nullptr;
        rows_ = rows;
        col_ = col;
        boundary_ = boundary;
        k_ = k;
    }

    int size() const { return k_; }

    /** Distance between defects i and j (< 0: no edge). */
    int64_t distance(int i, int j) const
    {
        if (oracle_ != nullptr) {
            return oracle_->distance(events_[i].check, events_[j].check) +
                   std::abs(events_[i].round - events_[j].round);
        }
        return rows_[i][static_cast<size_t>(col_[j])];
    }

    /** Distance from defect i to the boundary (< 0: unreachable). */
    int64_t boundary(int i) const { return boundary_[i]; }

  private:
    const CheckGraphDistances *oracle_ = nullptr;
    const DetectionEvent *events_ = nullptr;
    const std::vector<int> *rows_ = nullptr;
    const int *col_ = nullptr;
    const int64_t *boundary_ = nullptr;
    int k_ = 0;
};

/**
 * Minimum-weight matching of defects with a boundary, by a primal-dual
 * blossom algorithm in the style of Sparse Blossom (Higgott & Gidney,
 * arXiv:2303.15933): every defect either pairs with another defect or
 * retires to the boundary, at minimum total distance.
 *
 * Regions — single defects and blossoms (odd cycles of regions) — grow
 * around the roots of alternating trees: an outer region's radius grows,
 * an inner region's shrinks, a matched region outside any tree is
 * frozen. The boundary is a single partner that never grows and may
 * absorb any number of defects, so there are no boundary twins. Time
 * advances from event to event, drawn from a pooled min-heap with lazy
 * invalidation:
 *   - two regions collide (their radii sum to the pair distance): the
 *     tree grows, a blossom forms, or a path augments;
 *   - an outer region reaches the boundary: its path augments;
 *   - an inner blossom shrinks to radius zero: it shatters.
 * Each region holds one tentative event, recomputed when its growth
 * rate changes or its event goes stale: a scan of its defects against
 * all others through `DefectMetric`. Weights are doubled internally so
 * every event falls on an integer time.
 *
 * Ties are broken canonically: events order by (time, kind, lower
 * region id, higher region id, defect ids), region ids are assigned in
 * creation order, and nothing depends on pointers, so equal inputs give
 * equal matchings.
 *
 * All working memory is pooled: once the solver has seen its largest
 * instance, `solve` allocates nothing.
 */
class SparseBlossom
{
  public:
    /**
     * Solve the instance. Afterwards `mates()[i]` is the defect i pairs
     * with, or -1 when i retires to the boundary. Returns the total
     * matching weight. Throws CheckFailure when no perfect matching with
     * the boundary exists.
     */
    int64_t solve(const DefectMetric &metric);

    /** Mates of the last solve (pooled; valid until the next solve). */
    const std::vector<int> &mates() const { return mates_; }

    /**
     * Check the LP optimality certificate of the last solve against
     * `metric` (the instance that was solved): every pair and boundary
     * edge has non-negative reduced cost, every matched edge is tight,
     * every blossom dual is non-negative, and the dual objective equals
     * the matching weight. O(k^2 · nesting depth); throws CheckFailure.
     */
    void audit(const DefectMetric &metric) const;

  private:
    enum EventKind : uint8_t
    {
        kCollide = 0,
        kBoundary = 1,
        kShatter = 2,
    };

    /**
     * A region's tentative event. `order` and `defects` pack (kind,
     * lower region, higher region) and (defect in the lower, defect in
     * the higher) for the canonical tie-break.
     */
    struct Event
    {
        int64_t at = 0;
        uint64_t order = 0;
        uint64_t defects = 0;
        int region = -1;   ///< region whose scan produced the event
        int other = -1;    ///< collision partner region, else -1
        int v_region = -1; ///< defect of `region` on the edge
        int v_other = -1;  ///< defect of `other` on the edge
        int scan_id = 0;   ///< `region`'s scan that produced it
        int other_stamp = 0;

        EventKind kind() const { return EventKind(order >> 62); }
        bool operator>(const Event &other) const;
    };

    struct Region
    {
        // Dual: radius(t) = y0 + rate * (t - t0).
        int64_t y0 = 0;
        int64_t t0 = 0;
        int rate = 0;
        int stamp = 0;    ///< bumped on rate / structure change
        int scan_id = 0;  ///< bumped by every scan
        int blossom = -1; ///< enclosing blossom, -1 at top level
        bool alive = false;
        bool pending = false;  ///< queued for a rescan

        // Matching (top-level regions).
        int match = -1;  ///< partner region, kBoundaryMate, or -1
        int match_self = -1;
        int match_other = -1;

        // Alternating tree (top-level labelled regions).
        int tree = -1;  ///< the tree's first root defect; -1 when frozen
        int tree_parent = -1;
        int parent_self = -1;  ///< defect of the parent edge in this
        int parent_other = -1; ///< defect of the parent edge in parent
        int first_child = -1;
        int next_sibling = -1;
        int prev_sibling = -1;

        // Blossom cycle: [cycle_begin, cycle_begin + cycle_len).
        int cycle_begin = 0;
        int cycle_len = 0;
        int cycle_pos = -1;  ///< index in the enclosing blossom's cycle
    };

    /** Cycle edge from child to the next child: (defect in child,
     *  defect in next). */
    struct CycleEntry
    {
        int child;
        int self;
        int next;
    };

    static constexpr int kBoundaryMate = -2;

    Region &reg(int r) { return regions_[static_cast<size_t>(r)]; }
    const Region &reg(int r) const
    {
        return regions_[static_cast<size_t>(r)];
    }
    const CycleEntry &cycle_entry(const Region &blossom, int idx) const
    {
        return cycles_[static_cast<size_t>(blossom.cycle_begin + idx)];
    }
    bool top_level(int r) const
    {
        return reg(r).alive && reg(r).blossom < 0;
    }
    int64_t radius(int r) const
    {
        const Region &g = reg(r);
        return g.y0 + g.rate * (now_ - g.t0);
    }
    int64_t dual_sum(int v) const
    {
        return offset_[static_cast<size_t>(v)] +
               radius(top_[static_cast<size_t>(v)]);
    }

    static void offer(Event &best, const Event &candidate)
    {
        if (best > candidate) {
            best = candidate;
        }
    }
    Event boundary_event(int r, int v, int64_t at) const;
    Event collision(int r, int v, int s, int u, int64_t at) const;
    void seed_events();
    void set_rate(int r, int rate);
    void set_match(int r, int partner, int v_self, int v_partner);
    void mark_pending(int r);
    void scan(int r);
    void push(const Event &e);
    void collect_members(int r);
    int child_containing(int b, int v) const;

    void add_child(int parent, int child);
    void remove_child(int parent, int child);

    void on_collide(const Event &e);
    void augment(int r, int partner, int v_self, int v_partner);
    void dissolve(int tree);
    void grow(int outer, int v_outer, int frozen, int v_frozen);
    void form_blossom(int a, int va, int b, int vb);
    void shatter(int b);
    void assign(int r, int v, int mate);

    const DefectMetric *metric_ = nullptr;
    int k_ = 0;
    int64_t now_ = 0;
    int open_trees_ = 0;

    std::vector<Region> regions_;
    std::vector<CycleEntry> cycles_;
    std::vector<int> top_;          ///< top-level region of each defect
    std::vector<int64_t> offset_;   ///< frozen duals of non-top regions
    std::vector<int> tree_root_;    ///< root region of each tree
    std::vector<Event> heap_;
    std::vector<Event> seeds_;      ///< first event of each defect
    std::vector<int> mates_;

    // Scratch.
    std::vector<int> members_;
    std::vector<int> stack_;
    std::vector<int> pending_;      ///< regions awaiting a rescan
    std::vector<int> path_a_;
    std::vector<int> path_b_;
    std::vector<uint8_t> on_path_;
};

} // namespace btwc
