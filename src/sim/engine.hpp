#pragma once

#include <cstdint>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace btwc {

/**
 * Sharded multi-threaded Monte-Carlo engine.
 *
 * Every harness in sim/ draws independent per-cycle samples, so a run
 * of C cycles splits exactly into N shards of ~C/N cycles with
 * independent RNG streams (splittable seeds via SplitMix64, cf.
 * common/rng.hpp) whose per-shard statistics merge losslessly
 * (LifetimeStats::merge, CountHistogram::merge, RunningStats::merge).
 *
 * Determinism contract: for a fixed (cycles, threads, seed) triple the
 * result is bit-identical regardless of scheduling, because shard
 * seeds and cycle counts are planned up front and results are merged
 * in shard order. `threads <= 1` runs inline on the caller's thread
 * with the *original* seed, reproducing the historical single-threaded
 * results exactly. Results for different `threads` values are
 * different (but statistically equivalent) samples.
 */

/** One worker shard of a sharded Monte-Carlo run. */
struct Shard
{
    int index = 0;       ///< 0-based shard number
    uint64_t cycles = 0; ///< cycles this shard simulates (> 0)
    uint64_t seed = 0;   ///< independent RNG stream seed
};

/**
 * Resolve a `--threads`-style request: values >= 1 pass through, 0 (or
 * negative) means "all hardware threads" (at least 1).
 */
int resolve_threads(int requested);

/**
 * Plan the shard decomposition of `cycles` cycles over at most
 * `shards` workers: cycle counts differ by at most one and sum to
 * `cycles` exactly; empty shards are dropped. With a single shard the
 * master seed passes through untouched (legacy reproducibility);
 * otherwise shard seeds are drawn from a SplitMix64-seeded stream of
 * the master seed.
 */
std::vector<Shard> plan_shards(uint64_t cycles, int shards, uint64_t seed);

/**
 * Run `worker` over the planned shards -- on std::thread workers when
 * more than one shard is planned -- and merge the per-shard results in
 * shard order. A worker that throws does not take the process down:
 * every shard is joined, then the first exception in shard order is
 * rethrown on the caller's thread.
 *
 * @tparam Result  default-constructible; the first shard's result
 *                 seeds the accumulator and every later result is
 *                 folded in via `Result::merge(const Result &)`.
 * @param  worker  callable `(const Shard &) -> Result`; must be safe
 *                 to invoke concurrently from different threads.
 */
template <typename Result, typename Worker>
Result
run_sharded(uint64_t cycles, int threads, uint64_t seed, Worker &&worker)
{
    const std::vector<Shard> shards =
        plan_shards(cycles, resolve_threads(threads), seed);
    if (shards.size() <= 1) {
        return worker(shards.empty() ? Shard{0, 0, seed} : shards[0]);
    }
    std::vector<Result> results(shards.size());
    std::vector<std::exception_ptr> errors(shards.size());
    std::vector<std::thread> pool;
    pool.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
        pool.emplace_back([&, i]() {
            try {
                results[i] = worker(shards[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    for (const std::exception_ptr &error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    Result merged = std::move(results[0]);
    for (size_t i = 1; i < results.size(); ++i) {
        merged.merge(results[i]);
    }
    return merged;
}

} // namespace btwc
