#include "matching/sparse_blossom.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.hpp"

namespace btwc {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

} // namespace

bool
SparseBlossom::Event::operator>(const Event &other) const
{
    if (at != other.at) {
        return at > other.at;
    }
    if (order != other.order) {
        return order > other.order;
    }
    return defects > other.defects;
}

int64_t
SparseBlossom::solve(const DefectMetric &metric)
{
    metric_ = &metric;
    k_ = metric.size();
    now_ = 0;
    const size_t k = static_cast<size_t>(k_);
    regions_.clear();
    cycles_.clear();
    heap_.clear();
    pending_.clear();
    top_.resize(k);
    offset_.assign(k, 0);
    tree_root_.resize(k);
    mates_.assign(k, -1);
    for (int i = 0; i < k_; ++i) {
        Region g;
        g.alive = true;
        g.rate = 1;
        g.tree = i;
        regions_.push_back(g);
        top_[static_cast<size_t>(i)] = i;
        tree_root_[static_cast<size_t>(i)] = i;
    }
    open_trees_ = k_;
    seed_events();

    while (open_trees_ > 0) {
        BTWC_CHECK_MSG(!heap_.empty(),
                       "no perfect matching with the boundary exists");
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>());
        const Event e = heap_.back();
        heap_.pop_back();
        if (!top_level(e.region) || reg(e.region).scan_id != e.scan_id) {
            continue;  // superseded by a later scan of the same region
        }
        if (e.other >= 0) {
            if (!top_level(e.other) || reg(e.other).stamp != e.other_stamp) {
                scan(e.region);  // the partner changed: look again
                continue;
            }
        }
        BTWC_DCHECK(e.at >= now_);
        now_ = e.at;
        switch (e.kind()) {
        case kBoundary:
            augment(e.region, kBoundaryMate, e.v_region, -1);
            dissolve(reg(e.region).tree);
            break;
        case kShatter:
            shatter(e.region);
            break;
        default:
            on_collide(e);
            break;
        }
        mark_pending(e.region);
        if (e.other >= 0) {
            mark_pending(e.other);
        }
        for (const int r : pending_) {
            reg(r).pending = false;
            if (top_level(r)) {
                scan(r);
            }
        }
        pending_.clear();
    }

    int64_t total = 0;
    for (int r = 0; r < static_cast<int>(regions_.size()); ++r) {
        const Region &g = reg(r);
        if (top_level(r)) {
            assign(r, g.match_self,
                   g.match == kBoundaryMate ? -1 : g.match_other);
        }
    }
    for (int i = 0; i < k_; ++i) {
        const int m = mates_[static_cast<size_t>(i)];
        if (m < 0) {
            total += metric.boundary(i);
        } else if (m > i) {
            total += metric.distance(i, m);
        }
    }
    return total;
}

void
SparseBlossom::mark_pending(int r)
{
    Region &g = reg(r);
    if (!g.pending) {
        g.pending = true;
        pending_.push_back(r);
    }
}

void
SparseBlossom::set_rate(int r, int rate)
{
    Region &g = reg(r);
    g.y0 = radius(r);
    g.t0 = now_;
    g.rate = rate;
    ++g.stamp;
    mark_pending(r);
}

void
SparseBlossom::set_match(int r, int partner, int v_self, int v_partner)
{
    Region &g = reg(r);
    g.match = partner;
    g.match_self = v_self;
    g.match_other = v_partner;
}

void
SparseBlossom::collect_members(int r)
{
    members_.clear();
    stack_.clear();
    stack_.push_back(r);
    while (!stack_.empty()) {
        const int x = stack_.back();
        stack_.pop_back();
        if (x < k_) {
            members_.push_back(x);
            continue;
        }
        const Region &g = reg(x);
        for (int j = 0; j < g.cycle_len; ++j) {
            stack_.push_back(cycle_entry(g, j).child);
        }
    }
}

void
SparseBlossom::seed_events()
{
    // Every defect starts as an outer region of radius zero, so a pair
    // first collides at its (undoubled) distance and a defect reaches
    // the boundary at twice its boundary distance: one pass over the
    // pairs seeds every region's first event.
    seeds_.assign(static_cast<size_t>(k_), Event());
    for (int i = 0; i < k_; ++i) {
        ++reg(i).scan_id;
        Event &e = seeds_[static_cast<size_t>(i)];
        e.at = kNever;
        const int64_t b = metric_->boundary(i);
        if (b >= 0) {
            e = boundary_event(i, i, 2 * b);
        }
    }
    for (int i = 0; i < k_; ++i) {
        for (int j = i + 1; j < k_; ++j) {
            const int64_t w = metric_->distance(i, j);
            if (w < 0) {
                continue;
            }
            Event &ei = seeds_[static_cast<size_t>(i)];
            Event &ej = seeds_[static_cast<size_t>(j)];
            if (w <= ei.at) {
                offer(ei, collision(i, i, j, j, w));
            }
            if (w <= ej.at) {
                offer(ej, collision(j, j, i, i, w));
            }
        }
    }
    for (const Event &e : seeds_) {
        if (e.at != kNever) {
            push(e);
        }
    }
}

SparseBlossom::Event
SparseBlossom::boundary_event(int r, int v, int64_t at) const
{
    Event e;
    e.at = at;
    e.region = r;
    e.scan_id = reg(r).scan_id;
    e.v_region = v;
    e.order = uint64_t{kBoundary} << 62 | static_cast<uint64_t>(r) << 31;
    e.defects = static_cast<uint64_t>(v) << 32;
    return e;
}

SparseBlossom::Event
SparseBlossom::collision(int r, int v, int s, int u, int64_t at) const
{
    Event e;
    e.at = at;
    e.region = r;
    e.scan_id = reg(r).scan_id;
    e.other = s;
    e.other_stamp = reg(s).stamp;
    e.v_region = v;
    e.v_other = u;
    const bool low = r < s;
    e.order = static_cast<uint64_t>(low ? r : s) << 31 |
              static_cast<uint64_t>(low ? s : r);
    e.defects = static_cast<uint64_t>(low ? v : u) << 32 |
                static_cast<uint64_t>(low ? u : v);
    return e;
}

void
SparseBlossom::scan(int r)
{
    Region &g = reg(r);
    ++g.scan_id;
    const int rate = g.rate;
    Event best;
    best.at = kNever;
    if (rate < 0) {
        // Inner regions only approach their tree neighbours at a
        // constant gap; an inner blossom's one event is shrinking away.
        if (r >= k_) {
            best.at = now_ + radius(r);
            best.region = r;
            best.scan_id = g.scan_id;
            best.order = uint64_t{kShatter} << 62 |
                         static_cast<uint64_t>(r) << 31;
            push(best);
        }
        return;
    }
    collect_members(r);
    for (const int v : members_) {
        const int64_t yv = dual_sum(v);
        const int64_t b = metric_->boundary(v);
        if (rate > 0 && b >= 0) {
            BTWC_DCHECK(2 * b - yv >= 0);
            offer(best, boundary_event(r, v, now_ + 2 * b - yv));
        }
        for (int u = 0; u < k_; ++u) {
            const int s = top_[static_cast<size_t>(u)];
            const Region &h = reg(s);
            const int closing = rate + h.rate;
            if (s == r || closing <= 0) {
                continue;
            }
            const int64_t w = metric_->distance(v, u);
            if (w < 0) {
                continue;
            }
            const int64_t slack = 2 * w - yv -
                                  offset_[static_cast<size_t>(u)] -
                                  (h.y0 + h.rate * (now_ - h.t0));
            BTWC_DCHECK(slack >= 0);
            BTWC_DCHECK(closing == 1 || slack % 2 == 0);
            const int64_t at = now_ + (closing == 2 ? slack / 2 : slack);
            if (at <= best.at) {
                offer(best, collision(r, v, s, u, at));
            }
        }
    }
    if (best.at != kNever) {
        push(best);
    }
}

void
SparseBlossom::push(const Event &e)
{
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
}

int
SparseBlossom::child_containing(int b, int v) const
{
    int x = v;
    while (reg(x).blossom != b) {
        x = reg(x).blossom;
        BTWC_DCHECK(x >= 0);
    }
    return x;
}

void
SparseBlossom::add_child(int parent, int child)
{
    Region &p = reg(parent);
    Region &c = reg(child);
    c.tree_parent = parent;
    c.prev_sibling = -1;
    c.next_sibling = p.first_child;
    if (p.first_child >= 0) {
        reg(p.first_child).prev_sibling = child;
    }
    p.first_child = child;
}

void
SparseBlossom::remove_child(int parent, int child)
{
    Region &c = reg(child);
    if (c.prev_sibling >= 0) {
        reg(c.prev_sibling).next_sibling = c.next_sibling;
    } else {
        reg(parent).first_child = c.next_sibling;
    }
    if (c.next_sibling >= 0) {
        reg(c.next_sibling).prev_sibling = c.prev_sibling;
    }
    c.tree_parent = -1;
    c.prev_sibling = -1;
    c.next_sibling = -1;
}

void
SparseBlossom::on_collide(const Event &e)
{
    int a = e.region;
    int va = e.v_region;
    int b = e.other;
    int vb = e.v_other;
    if (reg(a).rate <= 0) {
        std::swap(a, b);
        std::swap(va, vb);
    }
    const int ta = reg(a).tree;
    const int tb = reg(b).tree;
    BTWC_DCHECK(reg(a).rate == 1 && reg(b).rate >= 0);
    if (reg(b).rate == 1 && ta == tb) {
        form_blossom(a, va, b, vb);
    } else if (reg(b).rate == 1) {
        // Two trees meet: augment both root paths through the new edge.
        augment(a, b, va, vb);
        augment(b, a, vb, va);
        dissolve(ta);
        dissolve(tb);
    } else if (reg(b).match == kBoundaryMate) {
        // A boundary-matched region hands its boundary edge over: the
        // path root .. a - b - boundary augments.
        augment(a, b, va, vb);
        set_match(b, a, vb, va);
        dissolve(ta);
    } else {
        grow(a, va, b, vb);
    }
}

void
SparseBlossom::augment(int r, int partner, int v_self, int v_partner)
{
    set_match(r, partner, v_self, v_partner);
    for (int cur = r; reg(cur).tree_parent >= 0;) {
        const int inner = reg(cur).tree_parent;
        const int outer = reg(inner).tree_parent;
        const int v_inner = reg(inner).parent_self;
        const int v_outer = reg(inner).parent_other;
        set_match(inner, outer, v_inner, v_outer);
        set_match(outer, inner, v_outer, v_inner);
        cur = outer;
    }
}

void
SparseBlossom::dissolve(int tree)
{
    stack_.clear();
    stack_.push_back(tree_root_[static_cast<size_t>(tree)]);
    while (!stack_.empty()) {
        const int x = stack_.back();
        stack_.pop_back();
        for (int c = reg(x).first_child; c >= 0; c = reg(c).next_sibling) {
            stack_.push_back(c);
        }
        set_rate(x, 0);
        Region &g = reg(x);
        g.tree = -1;
        g.tree_parent = -1;
        g.first_child = -1;
        g.next_sibling = -1;
        g.prev_sibling = -1;
    }
    --open_trees_;
}

void
SparseBlossom::grow(int outer, int v_outer, int frozen, int v_frozen)
{
    const int tree = reg(outer).tree;
    const int mate = reg(frozen).match;
    Region &gf = reg(frozen);
    gf.tree = tree;
    gf.parent_self = v_frozen;
    gf.parent_other = v_outer;
    add_child(outer, frozen);
    set_rate(frozen, -1);
    Region &gm = reg(mate);
    gm.tree = tree;
    gm.parent_self = gm.match_self;
    gm.parent_other = gm.match_other;
    add_child(frozen, mate);
    set_rate(mate, 1);
}

void
SparseBlossom::form_blossom(int a, int va, int b, int vb)
{
    // Tree paths up to the root; their common tail ends in the LCA.
    path_a_.clear();
    path_b_.clear();
    for (int x = a; x >= 0; x = reg(x).tree_parent) {
        path_a_.push_back(x);
    }
    for (int x = b; x >= 0; x = reg(x).tree_parent) {
        path_b_.push_back(x);
    }
    int lca = -1;
    while (!path_a_.empty() && !path_b_.empty() &&
           path_a_.back() == path_b_.back()) {
        lca = path_a_.back();
        path_a_.pop_back();
        path_b_.pop_back();
    }
    BTWC_DCHECK(lca >= 0);

    // The blossom takes the LCA's place in the tree and its match.
    const int nb = static_cast<int>(regions_.size());
    regions_.push_back(Region());
    const int n_down = static_cast<int>(path_a_.size());
    const int len = 1 + n_down + static_cast<int>(path_b_.size());
    {
        Region &blossom = reg(nb);
        const Region &l = reg(lca);
        blossom.alive = true;
        blossom.t0 = now_;
        blossom.rate = 1;
        blossom.tree = l.tree;
        blossom.parent_self = l.parent_self;
        blossom.parent_other = l.parent_other;
        blossom.match = l.match;
        blossom.match_self = l.match_self;
        blossom.match_other = l.match_other;
        blossom.cycle_begin = static_cast<int>(cycles_.size());
        blossom.cycle_len = len;
    }
    const int parent = reg(lca).tree_parent;
    if (reg(lca).match >= 0) {
        reg(reg(lca).match).match = nb;
    }
    if (parent >= 0) {
        remove_child(parent, lca);
        add_child(parent, nb);
    } else {
        tree_root_[static_cast<size_t>(reg(lca).tree)] = nb;
    }

    // Cycle: lca, down to a, across to b, up to just below lca.
    auto child_at = [&](int idx) {
        if (idx == 0) {
            return lca;
        }
        if (idx <= n_down) {
            return path_a_[static_cast<size_t>(n_down - idx)];
        }
        return path_b_[static_cast<size_t>(idx - n_down - 1)];
    };
    for (int idx = 0; idx < len; ++idx) {
        const int child = child_at(idx);
        CycleEntry entry{child, va, vb};
        if (idx < n_down) {
            const Region &next = reg(child_at(idx + 1));
            entry.self = next.parent_other;
            entry.next = next.parent_self;
        } else if (idx > n_down) {
            entry.self = reg(child).parent_self;
            entry.next = reg(child).parent_other;
        }
        cycles_.push_back(entry);
        Region &gc = reg(child);
        gc.y0 = radius(child);
        gc.t0 = now_;
        gc.rate = 0;
        ++gc.stamp;
        gc.tree = -1;
        gc.blossom = nb;
        gc.cycle_pos = idx;
    }
    // Tree children hanging off the cycle move to the blossom.
    for (int idx = 0; idx < len; ++idx) {
        const int child = child_at(idx);
        for (int c = reg(child).first_child; c >= 0;) {
            const int next = reg(c).next_sibling;
            if (reg(c).blossom != nb) {
                remove_child(child, c);
                add_child(nb, c);
            }
            c = next;
        }
    }
    // Only now clear the cycle's own links: a cycle member may still be
    // the list neighbour of an outside child until every list is walked.
    for (int idx = 0; idx < len; ++idx) {
        const int child = child_at(idx);
        Region &gc = reg(child);
        gc.first_child = -1;
        gc.tree_parent = -1;
        gc.next_sibling = -1;
        gc.prev_sibling = -1;
        const int64_t y = gc.y0;
        collect_members(child);
        for (const int v : members_) {
            offset_[static_cast<size_t>(v)] += y;
            top_[static_cast<size_t>(v)] = nb;
        }
    }
    mark_pending(nb);
}

void
SparseBlossom::shatter(int b)
{
    const Region gb = reg(b);
    BTWC_DCHECK(gb.rate == -1 && radius(b) == 0);
    const int m = gb.cycle_len;
    auto entry_at = [&](int idx) {
        return cycle_entry(gb, ((idx % m) + m) % m);
    };
    const int base = child_containing(b, gb.match_self);
    const int entry = child_containing(b, gb.parent_self);
    const int ib = reg(base).cycle_pos;
    const int ie = reg(entry).cycle_pos;

    // Back to top level, frozen until a rate is set below.
    for (int j = 0; j < m; ++j) {
        const int child = entry_at(j).child;
        reg(child).blossom = -1;
        reg(child).t0 = now_;
        const int64_t y = reg(child).y0;
        collect_members(child);
        for (const int v : members_) {
            offset_[static_cast<size_t>(v)] -= y;
            top_[static_cast<size_t>(v)] = child;
        }
    }

    // Internal matching: the base takes the blossom's match, the rest
    // pair up around the cycle.
    set_match(base, gb.match, gb.match_self, gb.match_other);
    reg(gb.match).match = base;
    for (int j = 1; j < m; j += 2) {
        const CycleEntry e = entry_at(ib + j);
        const int next = entry_at(ib + j + 1).child;
        set_match(e.child, next, e.self, e.next);
        set_match(next, e.child, e.next, e.self);
    }

    // The even-length side from the entry child to the base joins the
    // tree (inner, outer, ..., inner); the odd side stays frozen.
    const int forward = ((ib - ie) % m + m) % m;
    const int dir = forward % 2 == 0 ? 1 : -1;
    const int steps = dir > 0 ? forward : m - forward;
    remove_child(b, gb.match);
    remove_child(gb.tree_parent, b);
    add_child(gb.tree_parent, entry);
    reg(entry).tree = gb.tree;
    reg(entry).parent_self = gb.parent_self;
    reg(entry).parent_other = gb.parent_other;
    on_path_.assign(static_cast<size_t>(m), 0);
    on_path_[static_cast<size_t>(ie)] = 1;
    set_rate(entry, -1);
    for (int s = 1, prev = entry; s <= steps; ++s) {
        const CycleEntry &from = entry_at(ie + (s - 1) * dir);
        const CycleEntry &to = entry_at(ie + s * dir);
        Region &gq = reg(to.child);
        gq.parent_self = dir > 0 ? from.next : to.self;
        gq.parent_other = dir > 0 ? from.self : to.next;
        gq.tree = gb.tree;
        add_child(prev, to.child);
        on_path_[static_cast<size_t>(reg(to.child).cycle_pos)] = 1;
        set_rate(to.child, s % 2 == 0 ? -1 : 1);
        prev = to.child;
    }
    add_child(base, gb.match);
    for (int j = 0; j < m; ++j) {
        if (on_path_[static_cast<size_t>(j)] == 0) {
            set_rate(entry_at(j).child, 0);
        }
    }

    Region &dead = reg(b);
    dead.alive = false;
    ++dead.stamp;
    dead.first_child = -1;
}

void
SparseBlossom::assign(int r, int v, int mate)
{
    if (r < k_) {
        mates_[static_cast<size_t>(r)] = mate;
        return;
    }
    const Region &g = reg(r);
    const int m = g.cycle_len;
    const int base = child_containing(r, v);
    const int ib = reg(base).cycle_pos;
    assign(base, v, mate);
    for (int j = 1; j < m; j += 2) {
        const CycleEntry &e = cycle_entry(g, (ib + j) % m);
        assign(e.child, e.self, e.next);
        assign(cycle_entry(g, (ib + j + 1) % m).child, e.next, e.self);
    }
}

void
SparseBlossom::audit(const DefectMetric &metric) const
{
    BTWC_CHECK(metric.size() == k_);
    // Dual sum of every defect and the chain of regions holding it.
    std::vector<std::vector<int>> chains(static_cast<size_t>(k_));
    std::vector<int64_t> y(static_cast<size_t>(k_), 0);
    for (int v = 0; v < k_; ++v) {
        for (int x = v; x >= 0; x = reg(x).blossom) {
            const Region &g = reg(x);
            BTWC_CHECK_MSG(g.alive && g.rate == 0,
                           "every region is frozen after the solve");
            chains[static_cast<size_t>(v)].push_back(x);
            y[static_cast<size_t>(v)] += g.y0;
        }
    }
    int64_t dual = 0;
    for (size_t r = 0; r < regions_.size(); ++r) {
        const Region &g = regions_[r];
        if (!g.alive) {
            continue;
        }
        if (static_cast<int>(r) >= k_) {
            BTWC_CHECK_MSG(g.y0 >= 0, "blossom dual must be non-negative");
        }
        dual += g.y0;
    }
    int64_t primal = 0;
    for (int i = 0; i < k_; ++i) {
        const int mi = mates_[static_cast<size_t>(i)];
        const int64_t b = metric.boundary(i);
        if (b >= 0) {
            const int64_t reduced = 2 * b - y[static_cast<size_t>(i)];
            BTWC_CHECK_MSG(reduced >= 0,
                           "boundary edge has negative reduced cost");
            BTWC_CHECK_MSG(mi >= 0 || reduced == 0,
                           "boundary match is not tight");
        }
        if (mi < 0) {
            BTWC_CHECK_MSG(b >= 0, "matched to an unreachable boundary");
            primal += 2 * b;
        } else {
            BTWC_CHECK_MSG(mi != i && mates_[static_cast<size_t>(mi)] == i,
                           "mates must be symmetric");
        }
        const std::vector<int> &ci = chains[static_cast<size_t>(i)];
        for (int j = i + 1; j < k_; ++j) {
            const int64_t w = metric.distance(i, j);
            if (w < 0) {
                BTWC_CHECK_MSG(mi != j, "matched along a missing edge");
                continue;
            }
            int64_t common = 0;
            for (const int x : chains[static_cast<size_t>(j)]) {
                if (std::find(ci.begin(), ci.end(), x) != ci.end()) {
                    common += reg(x).y0;
                }
            }
            const int64_t reduced = 2 * w - y[static_cast<size_t>(i)] -
                                    y[static_cast<size_t>(j)] + 2 * common;
            BTWC_CHECK_MSG(reduced >= 0,
                           "pair edge has negative reduced cost");
            if (mi == j) {
                BTWC_CHECK_MSG(reduced == 0, "pair match is not tight");
                primal += 2 * w;
            }
        }
    }
    BTWC_CHECK_MSG(primal == dual,
                   "dual objective must equal the matching weight");
}

} // namespace btwc
