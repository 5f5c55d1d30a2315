#include "fabric/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace btwc {

const char *
scheduler_kind_name(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return "fifo";
      case SchedulerKind::Priority:
        return "priority";
      case SchedulerKind::Deadline:
        return "deadline";
      case SchedulerKind::WeightedFair:
        return "wfq";
    }
    return "?";
}

bool
parse_scheduler_kind(const std::string &value, SchedulerKind *out)
{
    if (value == "fifo") {
        *out = SchedulerKind::Fifo;
    } else if (value == "priority") {
        *out = SchedulerKind::Priority;
    } else if (value == "deadline" || value == "edf") {
        *out = SchedulerKind::Deadline;
    } else if (value == "wfq" || value == "weighted-fair" ||
               value == "weighted_fair") {
        *out = SchedulerKind::WeightedFair;
    } else {
        return false;
    }
    return true;
}

uint64_t
FabricScheduler::starvation_bound(int owners, uint64_t bandwidth,
                                  const LaneExtremes &lanes) const
{
    // Baseline bound shared by the order-preserving-ish disciplines:
    // the backlog never exceeds 2 * owners (one request per (owner,
    // half)), a work-conserving link drains >= bandwidth per cycle,
    // and a generous 2x + slack absorbs the fresh arrivals that may
    // jump ahead within the discipline's reordering window.
    const uint64_t backlog =
        2 * static_cast<uint64_t>(owners < 1 ? 1 : owners);
    const uint64_t drain = bandwidth < 1 ? 1 : bandwidth;
    uint64_t bound = 2 * ((backlog + drain - 1) / drain) + 16;
    // EDF: arrivals with shorter deadline budgets can overtake, but
    // only those arriving within the budget span of the victim's own
    // deadline — after that every later arrival's deadline is larger.
    bound += lanes.max_deadline - lanes.min_deadline;
    return bound;
}

namespace {

/**
 * Strict FIFO through the scheduler hook: always the oldest waiting
 * request. `waiting` is kept in arrival order by the service, so this
 * is index 0.
 */
class FifoScheduler final : public FabricScheduler
{
  public:
    SchedulerKind kind() const override { return SchedulerKind::Fifo; }

    size_t pick(const std::vector<SchedView> &waiting,
                uint64_t cycle) override
    {
        (void)cycle;
        BTWC_DCHECK(!waiting.empty());
        return 0;
    }
};

/**
 * Priority lanes with backlog-age aging: the effective priority of a
 * waiting request is its lane priority plus one level per
 * `aging_cycles` cycles waited, ties broken by arrival order. The
 * aging term is what bounds starvation: once a request has waited
 * aging_cycles * (priority span + 1) cycles its effective priority
 * exceeds every fresh arrival's, and only the similarly-aged (a
 * bounded set, backlog <= 2 * owners) can still precede it.
 */
class PriorityScheduler final : public FabricScheduler
{
  public:
    explicit PriorityScheduler(uint64_t aging_cycles)
        : aging_(aging_cycles < 1 ? 1 : aging_cycles)
    {
    }

    SchedulerKind kind() const override
    {
        return SchedulerKind::Priority;
    }

    size_t pick(const std::vector<SchedView> &waiting,
                uint64_t cycle) override
    {
        BTWC_DCHECK(!waiting.empty());
        size_t best = 0;
        int64_t best_key = effective(waiting[0], cycle);
        for (size_t i = 1; i < waiting.size(); ++i) {
            const int64_t key = effective(waiting[i], cycle);
            // Strict > keeps the earliest arrival on ties: `waiting`
            // is in ascending seq order.
            if (key > best_key) {
                best = i;
                best_key = key;
            }
        }
        return best;
    }

    uint64_t starvation_bound(int owners, uint64_t bandwidth,
                              const LaneExtremes &lanes) const override
    {
        const int64_t span = static_cast<int64_t>(lanes.max_priority) -
                             static_cast<int64_t>(lanes.min_priority);
        return aging_ * static_cast<uint64_t>(span + 1) +
               FabricScheduler::starvation_bound(owners, bandwidth,
                                                 lanes);
    }

  private:
    int64_t effective(const SchedView &view, uint64_t cycle) const
    {
        const uint64_t age =
            cycle >= view.arrival_cycle ? cycle - view.arrival_cycle : 0;
        return static_cast<int64_t>(view.priority) +
               static_cast<int64_t>(age / aging_);
    }

    uint64_t aging_;
};

/**
 * Earliest deadline first. A request's deadline is its arrival cycle
 * plus its lane's deadline budget; a lane without a budget (0) wants
 * service "as soon as possible" relative to its arrival, so its key
 * degrades to the arrival cycle — which makes EDF over deadline-free
 * lanes coincide with FIFO. EDF ages naturally (deadlines are fixed
 * at arrival while fresh arrivals' deadlines keep growing), so its
 * starvation bound is the baseline plus the deadline span.
 */
class DeadlineScheduler final : public FabricScheduler
{
  public:
    SchedulerKind kind() const override
    {
        return SchedulerKind::Deadline;
    }

    size_t pick(const std::vector<SchedView> &waiting,
                uint64_t cycle) override
    {
        (void)cycle;
        BTWC_DCHECK(!waiting.empty());
        size_t best = 0;
        uint64_t best_key = key_of(waiting[0]);
        for (size_t i = 1; i < waiting.size(); ++i) {
            const uint64_t key = key_of(waiting[i]);
            if (key < best_key) {
                best = i;
                best_key = key;
            }
        }
        return best;
    }

  private:
    static uint64_t key_of(const SchedView &view)
    {
        return view.deadline_cycle > 0 ? view.deadline_cycle
                                       : view.arrival_cycle;
    }
};

/**
 * Weighted-fair queuing over tenant lanes (start-time fair queuing
 * with integer virtual time): every tenant owns a virtual finish
 * time; serving one of its requests advances it by kWfqScale /
 * weight, and the scheduler always serves the waiting tenant with the
 * smallest virtual finish. The max(vfinish, vnow) catch-up stops an
 * idle tenant from banking unbounded credit, so a flooding tenant is
 * throttled to its weight share without starving anyone (audited
 * against the weight-ratio bound).
 */
class WeightedFairScheduler final : public FabricScheduler
{
  public:
    SchedulerKind kind() const override
    {
        return SchedulerKind::WeightedFair;
    }

    size_t pick(const std::vector<SchedView> &waiting,
                uint64_t cycle) override
    {
        (void)cycle;
        BTWC_DCHECK(!waiting.empty());
        // vnow = the smallest virtual finish among waiting tenants:
        // the catch-up floor for tenants returning from idle.
        uint64_t vnow = UINT64_MAX;
        for (const SchedView &view : waiting) {
            vnow = std::min(vnow, vfinish_of(view.owner));
        }
        size_t best = 0;
        uint64_t best_key = vfinish_of(waiting[0].owner);
        uint64_t best_seq = waiting[0].seq;
        for (size_t i = 1; i < waiting.size(); ++i) {
            const uint64_t key = vfinish_of(waiting[i].owner);
            // Tie-break on seq: two requests of one owner (its two
            // halves) share a vfinish, and distinct owners can
            // collide after a catch-up.
            if (key < best_key ||
                (key == best_key && waiting[i].seq < best_seq)) {
                best = i;
                best_key = key;
                best_seq = waiting[i].seq;
            }
        }
        const SchedView &chosen = waiting[best];
        const int weight = chosen.weight < 1 ? 1 : chosen.weight;
        uint64_t &vfinish = vfinish_slot(chosen.owner);
        vfinish = std::max(vfinish, vnow) + kWfqScale /
                  static_cast<uint64_t>(weight);
        return best;
    }

    uint64_t starvation_bound(int owners, uint64_t bandwidth,
                              const LaneExtremes &lanes) const override
    {
        // A waiting tenant is bypassed at most (max_weight /
        // min_weight) times per competitor before its own virtual
        // finish is minimal; scale the baseline by that ratio.
        const uint64_t min_weight =
            lanes.min_weight < 1 ? 1 : static_cast<uint64_t>(
                                           lanes.min_weight);
        const uint64_t max_weight =
            lanes.max_weight < 1 ? 1 : static_cast<uint64_t>(
                                           lanes.max_weight);
        const uint64_t ratio = (max_weight + min_weight - 1) / min_weight;
        return FabricScheduler::starvation_bound(owners, bandwidth,
                                                 lanes) *
               (ratio + 1);
    }

  private:
    /** Quantum of one weight-1 service (divisible by small weights). */
    static constexpr uint64_t kWfqScale = 720720;

    uint64_t vfinish_of(int owner) const
    {
        const size_t index = static_cast<size_t>(owner);
        return index < vfinish_.size() ? vfinish_[index] : 0;
    }

    uint64_t &vfinish_slot(int owner)
    {
        const size_t index = static_cast<size_t>(owner);
        if (index >= vfinish_.size()) {
            vfinish_.resize(index + 1, 0);
        }
        return vfinish_[index];
    }

    std::vector<uint64_t> vfinish_;
};

} // namespace

std::unique_ptr<FabricScheduler>
make_scheduler(SchedulerKind kind, uint64_t aging_cycles)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return std::make_unique<FifoScheduler>();
      case SchedulerKind::Priority:
        return std::make_unique<PriorityScheduler>(aging_cycles);
      case SchedulerKind::Deadline:
        return std::make_unique<DeadlineScheduler>();
      case SchedulerKind::WeightedFair:
        return std::make_unique<WeightedFairScheduler>();
    }
    return nullptr;
}

} // namespace btwc
