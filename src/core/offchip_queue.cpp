#include "core/offchip_queue.hpp"

#include "common/check.hpp"

namespace btwc {

OffchipQueue::OffchipQueue(OffchipQueueConfig config) : config_(config) {}

OffchipQueue::StepResult
OffchipQueue::step(uint64_t new_requests)
{
    return step(new_requests, StepFaults{});
}

OffchipQueue::StepResult
OffchipQueue::step(uint64_t new_requests, const StepFaults &faults)
{
    // Stall accounting (§5.2): a cycle stalls when the *previous*
    // cycle ended with unserved backlog.
    const bool was_stall = stall_next_;
    ++total_cycles_;
    if (was_stall) {
        ++stall_cycles_;
    } else {
        ++work_cycles_;
    }

    if (new_requests > 0) {
        waiting_.push_back(Group{cycle_, new_requests, 0});
        backlog_ += new_requests;
        enqueued_ += new_requests;
    }

    if (faults.outage) {
        // The link is dead in both directions: nothing enters service
        // and nothing lands. Every due in-service result is postponed
        // by one cycle, its recorded delay stretching with it; non-due
        // groups are untouched, so land-cycle monotonicity survives
        // (postponed fronts move to cycle_ + 1, later groups already
        // land at or after that).
        ++outage_cycles_;
        StepResult out;
        for (size_t i = 0; i < in_service_.size(); ++i) {
            Group &group = in_service_.at(i);
            if (group.cycle > cycle_) {
                break;
            }
            group.cycle = cycle_ + 1;
            if (group.delay < kMaxRecordedDelay) {
                ++group.delay;
            }
        }
        stall_next_ = backlog_ > 0;
        max_backlog_ = backlog_ > max_backlog_ ? backlog_ : max_backlog_;
        ++cycle_;
        return out;
    }

    // Serve up to `bandwidth` requests FIFO; 0 means unlimited, the
    // synchronous model's implicit assumption.
    StepResult out;
    const uint64_t capacity =
        config_.bandwidth == 0 ? backlog_ : config_.bandwidth;
    uint64_t to_serve = backlog_ < capacity ? backlog_ : capacity;
    out.served = to_serve;
    uint64_t land_cycle =
        cycle_ + config_.latency + faults.extra_latency;
    // A FIFO link: a request served during a spike cannot be overtaken
    // by one served after the spike ends, so later land cycles are
    // clamped up to the last in-flight one.
    if (!in_service_.empty() &&
        land_cycle < in_service_.at(in_service_.size() - 1).cycle) {
        land_cycle = in_service_.at(in_service_.size() - 1).cycle;
    }
    while (to_serve > 0) {
        Group &group = waiting_.front();
        const uint64_t take =
            group.count < to_serve ? group.count : to_serve;
        const uint64_t delay = land_cycle - group.cycle;
        in_service_.push_back(Group{
            land_cycle, take,
            delay < kMaxRecordedDelay ? delay : kMaxRecordedDelay});
        group.count -= take;
        backlog_ -= take;
        to_serve -= take;
        if (group.count == 0) {
            waiting_.pop_front();
        }
    }
    if (out.served > 0) {
        served_ += out.served;
        in_flight_ += out.served;
        const uint64_t cap =
            config_.max_batch == 0 ? out.served : config_.max_batch;
        for (uint64_t left = out.served; left > 0;) {
            const uint64_t batch = left < cap ? left : cap;
            batch_.add(batch);
            left -= batch;
        }
    }

    // Land every in-flight result whose latency elapsed; land cycles
    // are monotone (service cycles advance, latency is fixed), so
    // only the front of the FIFO can be due. The delay histogram is
    // populated here, at landing: its total() is the landed count.
    while (!in_service_.empty() && in_service_.front().cycle <= cycle_) {
        out.landed += in_service_.front().count;
        delay_.add(in_service_.front().delay, in_service_.front().count);
        in_service_.pop_front();
    }
    in_flight_ -= out.landed;
    landed_ += out.landed;

    stall_next_ = backlog_ > 0;
    max_backlog_ = backlog_ > max_backlog_ ? backlog_ : max_backlog_;
    ++cycle_;
    return out;
}

void
OffchipQueue::shed(uint64_t count)
{
    BTWC_CHECK_MSG(count <= backlog_,
                   "only waiting requests can be shed");
    shed_ += count;
    backlog_ -= count;
    while (count > 0) {
        Group &group = waiting_.front();
        const uint64_t take = group.count < count ? group.count : count;
        group.count -= take;
        count -= take;
        if (group.count == 0) {
            waiting_.pop_front();
        }
    }
}

void
OffchipQueue::audit() const
{
    BTWC_CHECK_MSG(enqueued_ == served_ + shed_ + backlog_,
                   "request conservation: "
                   "enqueued == served + shed + backlog");
    BTWC_CHECK_MSG(served_ == landed_ + in_flight_,
                   "request conservation: served == landed + in flight");
    BTWC_CHECK_MSG(total_cycles_ == work_cycles_ + stall_cycles_,
                   "cycle conservation: total == work + stall");
    BTWC_CHECK_MSG(max_backlog_ >= backlog_,
                   "max backlog dominates the current backlog");
    BTWC_CHECK_MSG(stall_next_ == (backlog_ > 0),
                   "a cycle ending with backlog stalls the next one");

    uint64_t waiting_total = 0;
    for (size_t i = 0; i < waiting_.size(); ++i) {
        const Group &group = waiting_.at(i);
        BTWC_CHECK_MSG(group.count > 0, "waiting groups are non-empty");
        BTWC_CHECK_MSG(group.cycle < cycle_,
                       "waiting groups were enqueued in past cycles");
        if (i > 0) {
            BTWC_CHECK_MSG(group.cycle >= waiting_.at(i - 1).cycle,
                           "waiting FIFO enqueue cycles are monotone");
        }
        waiting_total += group.count;
    }
    BTWC_CHECK_MSG(waiting_total == backlog_,
                   "waiting group counts sum to the backlog");

    uint64_t in_service_total = 0;
    for (size_t i = 0; i < in_service_.size(); ++i) {
        const Group &group = in_service_.at(i);
        BTWC_CHECK_MSG(group.count > 0, "in-service groups are non-empty");
        BTWC_CHECK_MSG(group.cycle >= cycle_,
                       "every in-service group lands in the future "
                       "(due groups were popped by the last step)");
        if (i > 0) {
            BTWC_CHECK_MSG(group.cycle >= in_service_.at(i - 1).cycle,
                           "in-service FIFO land cycles are monotone");
        }
        in_service_total += group.count;
    }
    BTWC_CHECK_MSG(in_service_total == in_flight_,
                   "in-service group counts sum to the in-flight count");
}

} // namespace btwc
