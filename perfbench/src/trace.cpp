#include "trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

uint64_t
quantile_rank(uint64_t n, int q_bp)
{
    return (n * static_cast<uint64_t>(q_bp) + 9999) / 10000;
}

bool
quantile_supported(uint64_t n, int q_bp)
{
    const uint64_t rank = quantile_rank(n, q_bp);
    return rank >= 1 && n - rank >= 10;
}

int
highest_supported_quantile(uint64_t n)
{
    int best = 0;
    for (const int q : {9000, 9900, 9990, 9999}) {
        if (quantile_supported(n, q)) {
            best = q;
        }
    }
    return best;
}

std::string
quantile_label(int q_bp)
{
    std::string digits = std::to_string(q_bp);  // "9990"
    std::string label = "p" + digits.substr(0, 2);
    std::string frac = digits.substr(2);
    while (!frac.empty() && frac.back() == '0') {
        frac.pop_back();
    }
    return frac.empty() ? label : label + "." + frac;
}

double
quantile(std::vector<uint32_t> &samples, int q_bp)
{
    const uint64_t rank = quantile_rank(samples.size(), q_bp);
    const size_t k = static_cast<size_t>(rank == 0 ? 0 : rank - 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return static_cast<double>(samples[k]);
}

Summary
summarize(std::vector<uint32_t> &samples)
{
    Summary s;
    s.n = samples.size();
    if (s.n == 0) {
        return s;
    }
    s.p50 = quantile(samples, 5000);
    s.tail_bp = highest_supported_quantile(s.n);
    if (s.tail_bp > 0) {
        s.tail = quantile(samples, s.tail_bp);
    }
    return s;
}

size_t
Tracer::begin(int name, int64_t start_ns)
{
    Span span;
    span.start = start_ns;
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = name;
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return spans_.size() - 1;
}

void
Tracer::end(size_t index, int64_t end_ns, int name)
{
    if (open_.empty() || static_cast<size_t>(open_.back()) != index) {
        throw std::logic_error("span closed out of nesting order");
    }
    open_.pop_back();
    spans_[index].end = end_ns;
    if (name >= 0) {
        spans_[index].name = name;
    }
}

void
Tracer::add(int name, int64_t start_ns, int64_t end_ns)
{
    Span span;
    span.start = start_ns;
    span.end = end_ns;
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = name;
    spans_.push_back(span);
}

void
Tracer::reduce()
{
    if (!open_.empty()) {
        throw std::logic_error("reduce with spans still open");
    }
    child_ns_.assign(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0) {
            child_ns_[static_cast<size_t>(span.parent)] +=
                static_cast<uint64_t>(span.end - span.start);
        }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const uint64_t duration =
            static_cast<uint64_t>(std::max<int64_t>(span.end - span.start, 0));
        SpanStats &mine = stats_[static_cast<size_t>(span.name)];
        mine.durations.push_back(to_sample(span.end - span.start));
        mine.total_ns += duration;
        mine.self_ns += duration - std::min(duration, child_ns_[i]);
    }
    spans_.clear();
}

} // namespace perfbench
