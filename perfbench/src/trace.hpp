#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Host time in nanoseconds on the monotonic clock. */
inline int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Nearest-rank percentile support rule. A quantile is written in basis
 * points (9900 = p99). Its rank among n sorted samples is
 * ceil(n * q / 10000), and the quantile is *supported* only when at
 * least ten samples lie beyond that rank: a p99 needs n >= 1000.
 */
uint64_t quantile_rank(uint64_t n, int q_bp);
bool quantile_supported(uint64_t n, int q_bp);

/**
 * Highest of p90 / p99 / p99.9 / p99.99 that `n` samples support, in
 * basis points; 0 when even p90 is unsupported (n < 100).
 */
int highest_supported_quantile(uint64_t n);

/** Printable name of a quantile in basis points ("p99", "p99.9"). */
std::string quantile_label(int q_bp);

/** A latency distribution summarised the way every timing is reported. */
struct Summary
{
    uint64_t n = 0;
    double p50 = 0.0;
    int tail_bp = 0;    ///< highest supported quantile (0 = none)
    double tail = 0.0;  ///< its value
};

/**
 * Summarise `samples` (reordered in place). `p50` needs at least 20
 * samples to be supported; below that it is still reported, since a
 * median of a handful is what the caller has, and `n` says so.
 */
Summary summarize(std::vector<uint32_t> &samples);

/** Value of quantile `q_bp` (nearest rank); requires n > 0. */
double quantile(std::vector<uint32_t> &samples, int q_bp);

/** Clamp a nanosecond interval into a 32-bit sample. */
inline uint32_t
to_sample(int64_t ns)
{
    if (ns <= 0) {
        return 0;
    }
    return ns > 0xffffffffLL ? 0xffffffffu : static_cast<uint32_t>(ns);
}

/** Per-name aggregate of every reduced span. */
struct SpanStats
{
    std::vector<uint32_t> durations;  ///< one sample per span
    uint64_t total_ns = 0;            ///< sum of span durations
    uint64_t self_ns = 0;             ///< ... minus their children's
};

/**
 * In-memory span recorder. A span has a name, a start, an end, and the
 * span that was open when it began (its parent). Spans are recorded
 * raw while a traced loop runs; `reduce` folds them into per-name
 * durations and self times outside the timed region, so the loop
 * itself never does more than append a record.
 *
 * Self time of a span = its duration minus the time its child spans
 * cover. Children are strictly nested (begin/end follow a stack).
 */
class Tracer
{
  public:
    /** A tracer for span names 0 .. `names` - 1. */
    explicit Tracer(size_t names) : stats_(names) {}

    /** Open a span starting at `start_ns`; returns its record index. */
    size_t begin(int name, int64_t start_ns);

    /**
     * Close the innermost open span, which must be `index`, at
     * `end_ns`. `name >= 0` renames it (for spans bucketed by what the
     * call turned out to do).
     */
    void end(size_t index, int64_t end_ns, int name = -1);

    /** Record a closed span with no children in one call. */
    void add(int name, int64_t start_ns, int64_t end_ns);

    /** Raw spans recorded since the last reduce. */
    size_t recorded() const { return spans_.size(); }

    /** Fold the raw spans into `stats()` and clear them. */
    void reduce();

    /** Per-name aggregates, indexed by span name. */
    const std::vector<SpanStats> &stats() const { return stats_; }
    std::vector<SpanStats> &stats() { return stats_; }

  private:
    struct Span
    {
        int64_t start = 0;
        int64_t end = 0;
        int32_t parent = -1;
        int32_t name = 0;
    };

    std::vector<Span> spans_;
    std::vector<int32_t> open_;
    std::vector<uint64_t> child_ns_;  ///< reduce scratch
    std::vector<SpanStats> stats_;
};

} // namespace perfbench
