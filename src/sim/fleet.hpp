#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "core/system.hpp"
#include "surface/noise.hpp"

namespace btwc {

/**
 * Configuration of a multi-logical-qubit machine simulation (§5).
 *
 * Under the paper's i.i.d. phenomenological noise, per-qubit per-cycle
 * off-chip events are independent Bernoulli(q) draws, so the fleet's
 * per-cycle demand is Binomial(num_qubits, q); `offchip_prob` is the q
 * measured by the single-qubit lifetime simulation. An exact
 * trace-driven mode (`fleet_demand_exact`) simulates every qubit's
 * full pipeline and exists to validate the binomial shortcut.
 */
struct FleetConfig
{
    int num_qubits = 1000;
    uint64_t cycles = 1000000;
    double offchip_prob = 0.01;  ///< per-qubit per-cycle P(complex)
    /**
     * Per-qubit off-chip probability overrides (hot spots, defective
     * patches). Empty = the homogeneous `offchip_prob` model whose
     * per-cycle demand is a single Binomial(num_qubits, q) draw
     * (bit-exact with the historical sampler). Non-empty (size must
     * equal `num_qubits`; a mismatch throws std::invalid_argument
     * from the demand entry points) makes the demand
     * Poisson-binomial: draws
     * group qubits by probability and sum one binomial per group, so
     * a vector of `num_qubits` equal entries reproduces the
     * homogeneous stream bit-for-bit. Build hot-spot profiles with
     * `hotspot_probs`.
     */
    std::vector<double> qubit_probs;
    /**
     * Monte-Carlo engine shards (sim/engine.hpp): 1 = historical
     * single-threaded sampling (bit-exact), 0 = all hardware threads.
     * Demand histograms shard over cycles; the bandwidth/stall run
     * keeps its (inherently serial) queue but generates demand blocks
     * in parallel.
     */
    int threads = 1;
    uint64_t seed = 1;
    /**
     * Off-chip service latency in cycles (see
     * core/offchip_queue.hpp): corrections land this many cycles
     * after their decode is served. 0 is the synchronous §5.2 stall
     * model (the backlog follows the Lindley recursion); nonzero
     * shifts the queue-delay distribution without changing the stall
     * behavior (latency is pipelined, only backlog stalls).
     */
    uint64_t offchip_latency = 0;
    /** decode_batch grouping cap for the served stream (0 = per cycle). */
    uint64_t offchip_batch = 0;
};

/** One cycle of a provisioned fleet trace (Fig. 9). */
struct TraceCycle
{
    uint64_t fresh = 0;      ///< new off-chip decodes this cycle
    uint64_t carryover = 0;  ///< decodes carried from previous cycles
    uint64_t served = 0;     ///< decodes shipped off-chip this cycle
    bool stall = false;      ///< this cycle was a stall cycle
};

/** Outcome of a provisioned fleet run (one Fig. 16 sweep point). */
struct FleetRunResult
{
    uint64_t bandwidth = 0;      ///< provisioned decodes per cycle
    uint64_t total_cycles = 0;
    uint64_t work_cycles = 0;
    uint64_t stall_cycles = 0;
    uint64_t max_backlog = 0;
    double exec_time_increase = 0.0;   ///< stalls / work cycles (+inf all-stall)
    double bandwidth_reduction = 0.0;  ///< num_qubits / bandwidth
    /**
     * Enqueue-to-landing delay of the served decode stream in cycles
     * (= FleetConfig::offchip_latency plus queueing wait; all-latency
     * when the link never backs up).
     */
    double mean_queue_delay = 0.0;
    uint64_t p99_queue_delay = 0;
    uint64_t max_queue_delay = 0;
    double mean_batch = 0.0;  ///< mean served link-batch size (see OffchipQueue::batch_histogram)
};

/**
 * Heterogeneous fleet profile: `hot_fraction` of the qubits (rounded
 * down, at least one when the fraction is nonzero) run at
 * `hot_multiplier * q` -- a hot spot or defective patch -- and the
 * rest at the base q. Probabilities clamp to [0, 1]. Feed the result
 * to `FleetConfig::qubit_probs`.
 */
std::vector<double> hotspot_probs(int num_qubits, double q,
                                  double hot_fraction,
                                  double hot_multiplier);

/** Demand histogram from the binomial fleet model. */
CountHistogram fleet_demand_histogram(const FleetConfig &config);

/**
 * Configuration of the exact (trace-driven) fleet: `num_qubits` full
 * `BtwcSystem` pipelines stepped in lockstep. With `shared_link` every
 * qubit's escalations route through one SharedOffchipService
 * (core/offchip_service.hpp) -- the paper's actual machine, where real
 * (non-binomial) demand contends for one latency/bandwidth-limited
 * link; without it each qubit keeps a private queue with the same link
 * parameters (the historical model, kept as the equivalence
 * reference: at zero latency and unlimited bandwidth the two are
 * bit-exact, tested).
 */
struct ExactFleetConfig
{
    int distance = 5;
    double p = 1e-3;
    int num_qubits = 10;
    uint64_t cycles = 10000;
    uint64_t seed = 1;
    /** Monte-Carlo shards (sim/engine.hpp); each shard simulates an
        independent fleet instance. threads <= 1 is bit-exact legacy. */
    int threads = 1;
    /** One shared link for the whole fleet instead of private queues. */
    bool shared_link = false;
    OffchipPolicy offchip = OffchipPolicy::Oracle;
    TierChainConfig tiers = TierChainConfig::legacy();
    /** Link parameters (cf. OffchipQueueConfig / SystemConfig). */
    uint64_t offchip_latency = 0;
    uint64_t offchip_bandwidth = 0;
    uint64_t offchip_batch = 0;
    /**
     * Per-qubit physical error rate overrides: tenant q runs at
     * `tenant_probs[q]` instead of the uniform `p`, so hot tenants do
     * real extra decode work rather than just extra demand draws
     * (contrast `FleetConfig::qubit_probs`, which only reshapes the
     * binomial model). Empty = the homogeneous fleet, bit-exact with
     * the historical path; non-empty size must equal `num_qubits`
     * (mismatch throws std::invalid_argument) and every entry must be
     * a probability. Build hot-spot profiles with `hotspot_probs`.
     */
    std::vector<double> tenant_probs;
    /**
     * Per-qubit code distance overrides (same contract as
     * `tenant_probs`; entries must be valid `RotatedSurfaceCode`
     * distances). Under the shared link, each distinct distance gets
     * its own service-side decode chains via
     * `SharedOffchipService::register_code`.
     */
    std::vector<int> tenant_distances;
    /**
     * Chaos mode (src/faults/, shared link only): the fault plan
     * injected into the single link, installed when `faults.enabled`.
     * A plan with no firing clause is bit-exact with the fault-free
     * run (the zero-fault contract, pinned in tests/test_faults.cpp).
     */
    FaultPlan faults;
};

/** Tenant q's physical error rate (`tenant_probs` override or `p`). */
double tenant_prob(const ExactFleetConfig &config, int q);

/** Tenant q's code distance (`tenant_distances` override or `distance`). */
int tenant_distance(const ExactFleetConfig &config, int q);

/**
 * Throw std::invalid_argument when the per-tenant override vectors are
 * malformed (size != num_qubits, probabilities outside [0, 1]).
 * Called by the exact-fleet entry points before any simulation work.
 */
void validate_tenant_profile(const ExactFleetConfig &config);

/** Per-tenant counters of an exact fleet run (index = qubit). */
struct QubitServiceStats
{
    uint64_t enqueued = 0;    ///< escalations handed to the link
    uint64_t landed = 0;      ///< corrections routed back
    uint64_t suppressed = 0;  ///< decodes deferred to an in-flight request

    void merge(const QubitServiceStats &other)
    {
        enqueued += other.enqueued;
        landed += other.landed;
        suppressed += other.suppressed;
    }
};

/**
 * Aggregated observables of an exact fleet run. All counters are sums
 * and all histograms bin-wise counts, so shard results `merge()`
 * losslessly in the sharded Monte-Carlo engine (deterministic for a
 * fixed (cycles, threads, seed) triple, like every sim/ harness).
 */
struct ExactFleetStats
{
    /** Per-cycle fresh off-chip demand: qubits that *shipped* an
        escalation that cycle (the binomial model's event). Re-flags
        of work already in flight are counted in `suppressed`, not
        here -- so under latency or a narrow link this is throttled
        demand, held back by the one-outstanding-request-per-half
        contract. At the synchronous L=0 default it coincides with
        the historical "classified off-chip" count bit-for-bit. */
    CountHistogram demand;
    /** Enqueue-to-landing delay of every landed correction. Shared
        mode: the one link; private mode: merged across the per-qubit
        queues (all-zero at the synchronous default). */
    CountHistogram queue_delay;
    /** Served link-batch sizes (see OffchipQueue::batch_histogram).
        Shared mode mixes owners in one batch, so sizes above 1 appear
        even though each tenant is bounded at one request per half. */
    CountHistogram batch_sizes;
    /** End-of-cycle shared-link backlog, one sample per cycle
        (shared mode only; empty for private queues). */
    CountHistogram backlog;
    uint64_t stall_cycles = 0;  ///< link cycles that ended oversubscribed
    uint64_t work_cycles = 0;
    uint64_t max_backlog = 0;
    uint64_t enqueued = 0;
    uint64_t served = 0;
    uint64_t landed = 0;
    uint64_t suppressed = 0;  ///< reconciliation-contract deferrals
    uint64_t pending = 0;     ///< outstanding when the run ended
    // Chaos-mode accounting (shared link; all zero fault-free).
    uint64_t outage_cycles = 0;   ///< link-down cycles
    uint64_t dropped = 0;         ///< deliveries lost
    uint64_t duplicated = 0;      ///< deliveries duplicated
    uint64_t corrupted = 0;       ///< corrections byte-flipped
    uint64_t surge_enqueued = 0;  ///< synthetic surge requests
    uint64_t surge_landed = 0;    ///< ... that consumed link service
    std::vector<QubitServiceStats> per_qubit;

    void merge(const ExactFleetStats &other);

    /** Fig. 16 x-axis for the shared link (stalls / work cycles). */
    double exec_time_increase() const;
};

/**
 * Run the exact fleet and return the full service statistics. Shards
 * the cycle budget over `config.threads` workers, each simulating an
 * independent fleet instance (threads <= 1 reproduces the historical
 * run bit-for-bit).
 */
ExactFleetStats fleet_demand_exact_stats(const ExactFleetConfig &config);

/**
 * Demand histogram from fully simulated per-qubit pipelines (slow;
 * used for validating the binomial model at small scale). Convenience
 * wrapper over `fleet_demand_exact_stats` with private queues at the
 * synchronous default link.
 */
CountHistogram fleet_demand_exact(int distance, double p, int num_qubits,
                                  uint64_t cycles, uint64_t seed,
                                  int threads = 1);

/** Run the fleet against a fixed provisioned bandwidth. */
FleetRunResult run_fleet_with_bandwidth(const FleetConfig &config,
                                        uint64_t bandwidth);

/** Short per-cycle trace for the Fig. 9 illustration. */
std::vector<TraceCycle> fleet_trace(const FleetConfig &config,
                                    uint64_t bandwidth);

} // namespace btwc
