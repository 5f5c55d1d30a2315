#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/stall.hpp"
#include "core/system.hpp"
#include "decoders/decoder.hpp"
#include "fabric/harness.hpp"
#include "fabric/probe.hpp"
#include "sim/lifetime.hpp"
#include "sim/stream.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace btwc;

namespace {

// ------------------------------------------------------------ spans

/** Span names; layer names follow the src/ modules they time. */
enum SpanId : int
{
    kStepQuiet,
    kStepTrivial,
    kStepOnchip,
    kStepEscalate,
    kStepServe,
    kStepSuppress,
    kSurfaceInject,
    kSurfaceExtract,
    kTierClique,
    kTierUf,
    kTierEscalate,
    kMatchingMwpm,
    kSurfaceNoise,
    kStreamBuffer,
    kStreamWindow,
    kTenantStep,
    kFabricServe,
    kFabricIdle,
    kFabricDeliver,
    kFabricProbe,
    kSchedulerPick,
    kNumSpans,
};

const std::vector<std::string> &
span_names()
{
    static const std::vector<std::string> kNames = {
        "core.system.step.quiet",
        "core.system.step.trivial",
        "core.system.step.onchip",
        "core.system.step.escalate",
        "core.system.step.serve",
        "core.system.step.suppress",
        "surface.inject",
        "surface.extract",
        "decoders.tier_chain.clique",
        "decoders.tier_chain.uf",
        "decoders.tier_chain.escalate",
        "matching.mwpm",
        "surface.noise",
        "decoders.stream_window.buffer",
        "decoders.stream_window.window",
        "core.system.tenant_step",
        "fabric.step.serve",
        "fabric.step.idle",
        "fabric.deliver",
        "fabric.probe",
        "fabric.scheduler.pick",
    };
    return kNames;
}

/**
 * Spans of the pipeline's component replay: timed against the replay
 * loop, reported per cycle relative to the closed-loop step.
 */
bool
is_replay_span(int span)
{
    return span >= kSurfaceInject && span <= kMatchingMwpm;
}

// ------------------------------------------------------- operations

/** Latency samples pooled over a run's untraced operations. */
struct Samples
{
    std::vector<uint32_t> cycle_ns;    ///< one per simulated cycle
    std::vector<uint32_t> offchip_ns;  ///< calls in which the matcher ran
};

/** What one operation produced. */
struct OpOutcome
{
    uint64_t cycles = 0;
    int64_t setup_ns = 0;
    int64_t loop_ns = 0;
    /** Harness metrics assembled from the benchmark's own loop. */
    std::string metrics_json;
    /** Counted runtime checks; empty when clean. */
    std::string check_error;
    /** Component replay (pipeline, traced): its own spec and output. */
    bool has_replay = false;
    ScenarioSpec replay_spec;
    std::string replay_json;
    uint64_t replay_cycles = 0;
    /** Simulated counts the per-layer ratios are built from. */
    std::map<std::string, double> counts;
    /** A finding to print that does not fail the operation. */
    std::string note;
};

std::string
metrics_json_of(const Report &report)
{
    const Report::Value *metrics = report.find("metrics");
    if (metrics == nullptr || metrics->object == nullptr) {
        return std::string();
    }
    return metrics->object->to_json();
}

void
count_verdict(LifetimeStats &stats, CliqueVerdict verdict)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        ++stats.all_zero_cycles;
        break;
      case CliqueVerdict::Trivial:
        ++stats.trivial_cycles;
        break;
      case CliqueVerdict::Complex:
        ++stats.complex_cycles;
        break;
    }
}

/** Per-half counters, as sim/lifetime.cpp keeps them. */
void
count_half(LifetimeStats &stats, CliqueVerdict verdict, DecoderTier tier,
           bool offchip)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        ++stats.all_zero_halves;
        break;
      case CliqueVerdict::Trivial:
        ++stats.trivial_halves;
        break;
      case CliqueVerdict::Complex:
        ++stats.complex_halves;
        ++stats.tier_halves[static_cast<int>(tier)];
        stats.offchip_halves += offchip ? 1 : 0;
        break;
    }
}

void
warm_distances(const RotatedSurfaceCode &code)
{
    code.check_distances(CheckType::X);
    code.check_distances(CheckType::Z);
}

// ---------------------------------------------------- pipeline-d21

/**
 * The closed loop of sim/lifetime.cpp's Pipeline mode: one
 * `BtwcSystem::step()` per cycle, each timed. A step is bucketed by
 * its CycleReport and by whether the private off-chip queue served a
 * request during it (the matcher ran).
 */
void
pipeline_loop(const ScenarioSpec &spec, Tracer *tracer, Samples *samples,
              OpOutcome &out)
{
    const int64_t setup_start = now_ns();
    const LifetimeConfig config = spec.to_lifetime_config();
    const RotatedSurfaceCode code(config.distance);
    warm_distances(code);
    SystemConfig sys_config;
    sys_config.filter_rounds = config.filter_rounds;
    sys_config.offchip = config.offchip;
    sys_config.tiers = config.tiers;
    sys_config.service = config.service;
    sys_config.offchip_latency = config.offchip_latency;
    sys_config.offchip_bandwidth = config.offchip_bandwidth;
    sys_config.offchip_batch = config.offchip_batch;
    BtwcSystem system(code,
                      NoiseParams{config.p, config.meas_probability()},
                      sys_config, config.seed);
    LifetimeStats stats;
    stats.cycles = config.cycles;
    const int64_t loop_start = now_ns();
    out.setup_ns = loop_start - setup_start;

    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        const uint64_t served = system.offchip_queue().served();
        const int64_t t0 = now_ns();
        const CycleReport report = system.step();
        const int64_t t1 = now_ns();
        const bool matched = system.offchip_queue().served() != served;
        if (samples != nullptr) {
            samples->cycle_ns.push_back(to_sample(t1 - t0));
            if (matched) {
                samples->offchip_ns.push_back(to_sample(t1 - t0));
            }
        }
        if (tracer != nullptr) {
            int bucket = kStepQuiet;
            if (matched) {
                bucket = kStepServe;
            } else if (report.queued > 0) {
                bucket = kStepEscalate;
            } else if (report.suppressed > 0) {
                bucket = kStepSuppress;
            } else if (report.verdict == CliqueVerdict::Complex) {
                bucket = kStepOnchip;
            } else if (report.verdict == CliqueVerdict::Trivial) {
                bucket = kStepTrivial;
            }
            tracer->add(bucket, t0, t1);
        }
        count_verdict(stats, report.verdict);
        stats.offchip_cycles += report.offchip ? 1 : 0;
        for (int detector = 0; detector < 2; ++detector) {
            count_half(stats, report.type_verdict[detector],
                       report.tier_used[detector],
                       report.type_offchip[detector]);
        }
        stats.clique_corrections +=
            static_cast<uint64_t>(report.clique_corrections);
        stats.raw_weight.add(static_cast<uint64_t>(report.raw_weight));
    }
    out.loop_ns = now_ns() - loop_start;
    out.cycles = config.cycles;

    stats.offchip_queue_delay = system.offchip_queue().delay_histogram();
    stats.offchip_batch_sizes = system.offchip_queue().batch_histogram();
    stats.suppressed_escalations = system.suppressed_escalations();
    stats.pending_offchip =
        static_cast<uint64_t>(system.pending_offchip());
    system.offchip_queue().audit();
    out.metrics_json = lifetime_metrics_report(stats).to_json();
}

/**
 * Component replay: sim/lifetime.cpp's Signature-mode call sequence
 * (inject, `filter_rounds` packed extractions, the on-chip tier walk)
 * at the same d, p, chain and seed, with each public call timed. An
 * escalated syndrome is then decoded by the chain's off-chip tier,
 * which Signature mode only classifies; decoding consumes no
 * randomness, so the sampled counts still equal run_scenario's.
 */
void
pipeline_replay(const ScenarioSpec &replay_spec, Tracer &tracer,
                OpOutcome &out)
{
    const LifetimeConfig config = replay_spec.to_lifetime_config();
    const RotatedSurfaceCode code(config.distance);
    warm_distances(code);
    Rng rng(config.seed);
    LifetimeStats stats;
    stats.cycles = config.cycles;

    struct Half
    {
        Half(const RotatedSurfaceCode &c, CheckType error_type,
             const TierChainConfig &tiers)
            : frame(c, error_type),
              chain(c, detector_of_error(error_type), tiers)
        {
        }
        ErrorFrame frame;
        TierChain chain;
        PackedSyndrome round;
        PackedSyndrome filtered;
        TierChain::Result out;
        std::vector<uint8_t> bytes;
    };
    Half halves[2] = {Half(code, CheckType::X, config.tiers),
                      Half(code, CheckType::Z, config.tiers)};
    TierChain::Options chain_options;
    chain_options.stop_before_offchip = true;
    uint64_t decodes[3] = {0, 0, 0};  // clique, uf, escalated

    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        CliqueVerdict verdict = CliqueVerdict::AllZeros;
        bool cycle_offchip = false;
        uint64_t raw_weight = 0;
        for (Half &half : halves) {
            half.frame.reset();
            int64_t t0 = now_ns();
            half.frame.inject(config.p, rng);
            int64_t t1 = now_ns();
            tracer.add(kSurfaceInject, t0, t1);
            for (int r = 0; r < config.filter_rounds; ++r) {
                t0 = now_ns();
                half.frame.measure_packed(config.meas_probability(), rng,
                                          half.round);
                t1 = now_ns();
                tracer.add(kSurfaceExtract, t0, t1);
                if (r == 0) {
                    half.filtered = half.round;
                } else {
                    half.filtered &= half.round;
                }
            }
            raw_weight += static_cast<uint64_t>(half.round.popcount());
            t0 = now_ns();
            half.chain.decode_syndrome(half.filtered, chain_options,
                                       half.out);
            t1 = now_ns();
            const TierChain::Result &res = half.out;
            const int tier = res.offchip ? 2
                             : res.tier == DecoderTier::Clique ? 0
                                                               : 1;
            ++decodes[tier];
            tracer.add(tier == 0   ? kTierClique
                       : tier == 1 ? kTierUf
                                   : kTierEscalate,
                       t0, t1);
            if (res.offchip) {
                t0 = now_ns();
                half.filtered.to_bytes(half.bytes);
                const TierChain::Result offchip = half.chain.decode_from(
                    static_cast<size_t>(res.tier_index),
                    events_from_syndrome(half.bytes), 1,
                    TierChain::Options(), res.effort);
                t1 = now_ns();
                tracer.add(kMatchingMwpm, t0, t1);
                if (!offchip.resolved) {
                    out.check_error = "off-chip tier declined a syndrome";
                }
            }
            const CliqueVerdict half_verdict = classify_decode(res);
            count_half(stats, half_verdict, res.tier, res.offchip);
            if (half_verdict == CliqueVerdict::Complex) {
                verdict = CliqueVerdict::Complex;
            } else if (half_verdict == CliqueVerdict::Trivial &&
                       verdict == CliqueVerdict::AllZeros) {
                verdict = CliqueVerdict::Trivial;
            }
            cycle_offchip |= res.offchip;
            if (half_verdict == CliqueVerdict::Trivial) {
                stats.clique_corrections +=
                    static_cast<uint64_t>(res.decode.weight);
            }
        }
        count_verdict(stats, verdict);
        stats.offchip_cycles += cycle_offchip ? 1 : 0;
        stats.raw_weight.add(raw_weight);
    }
    out.replay_cycles = config.cycles;
    out.replay_json = lifetime_metrics_report(stats).to_json();
    out.counts["replay.clique"] += static_cast<double>(decodes[0]);
    out.counts["replay.uf"] += static_cast<double>(decodes[1]);
    out.counts["replay.escalated"] += static_cast<double>(decodes[2]);
}

OpOutcome
pipeline_op(const ScenarioSpec &spec, Tracer *tracer, Samples *samples)
{
    OpOutcome out;
    pipeline_loop(spec, tracer, samples, out);
    if (tracer != nullptr) {
        out.has_replay = true;
        out.replay_spec = spec;
        out.replay_spec.mode = LifetimeMode::Signature;
        out.replay_spec.engine.cycles = std::max<uint64_t>(
            1, spec.engine.cycles / 5);
        pipeline_replay(out.replay_spec, *tracer, out);
    }
    return out;
}

// ------------------------------------------------------ stream-d21

/**
 * sim/stream.cpp's shard loop: per round, noise (inject + packed
 * extraction) then `push_round`, which decodes a window every
 * commit-region's worth of rounds; closed by a noiseless round and a
 * flush.
 */
OpOutcome
stream_op(const ScenarioSpec &spec, Tracer *tracer, Samples *samples)
{
    OpOutcome out;
    const int64_t setup_start = now_ns();
    const StreamConfig config = spec.to_stream_config();
    const RotatedSurfaceCode code(config.distance);
    warm_distances(code);
    const CheckType detector = detector_of_error(config.error_type);
    StreamWindowConfig window_config;
    window_config.window = config.window;
    window_config.overlap = config.overlap;
    window_config.screen = stream_screen_tiers(config.tiers);
    StreamWindowDecoder decoder(code, detector, window_config);
    ErrorFrame frame(code, config.error_type);
    Rng rng(config.seed);
    PackedSyndrome raw(code.num_checks(detector));
    std::vector<uint8_t> perfect;
    const int64_t loop_start = now_ns();
    out.setup_ns = loop_start - setup_start;

    for (uint64_t t = 0; t < config.rounds; ++t) {
        const int64_t t0 = now_ns();
        frame.inject(config.p, rng);
        frame.measure_packed(config.meas_probability(), rng, raw);
        const int64_t t1 = now_ns();
        const uint64_t windows = decoder.stats().windows;
        decoder.push_round(raw);
        const int64_t t2 = now_ns();
        const bool decoded = decoder.stats().windows != windows;
        if (samples != nullptr) {
            samples->cycle_ns.push_back(to_sample(t2 - t0));
            if (decoded) {
                samples->offchip_ns.push_back(to_sample(t2 - t1));
            }
        }
        if (tracer != nullptr) {
            tracer->add(kSurfaceNoise, t0, t1);
            tracer->add(decoded ? kStreamWindow : kStreamBuffer, t1, t2);
        }
    }
    frame.measure_perfect(perfect);
    raw.from_bytes(perfect);
    decoder.push_round(raw);
    decoder.flush();
    frame.apply_packed(decoder.committed_correction());
    out.loop_ns = now_ns() - loop_start;
    out.cycles = config.rounds;

    StreamStats stats;
    stats.window = decoder.stats();
    stats.streams = 1;
    stats.unclear_syndromes = frame.syndrome_clear() ? 0 : 1;
    stats.logical_failures = frame.logical_flipped() ? 1 : 0;
    decoder.audit();
    if (stats.unclear_syndromes != 0) {
        out.check_error = "committed correction left a syndrome";
    } else if (stats.logical_failures != 0) {
        out.check_error = "logical failure at d=" +
                          std::to_string(config.distance);
    } else if (stats.window.defects_in != stats.window.defects_committed) {
        out.check_error = "conservation ledger: defects_in != "
                          "defects_committed after flush";
    }
    out.metrics_json = stream_metrics_report(stats).to_json();
    out.counts["stream.defects_in"] +=
        static_cast<double>(stats.window.defects_in);
    out.counts["stream.defects_carried"] +=
        static_cast<double>(stats.window.defects_carried);
    return out;
}

// ---------------------------------------------------- fabric-chaos

/**
 * Forwarding discipline: installed per link with the public
 * `set_scheduler` before the first step, it times the real
 * discipline's `pick` (nested inside the open `fabric.step` span).
 */
class TimedScheduler : public FabricScheduler
{
  public:
    TimedScheduler(std::unique_ptr<FabricScheduler> inner, Tracer *tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    SchedulerKind kind() const override { return inner_->kind(); }

    size_t pick(const std::vector<SchedView> &waiting,
                uint64_t cycle) override
    {
        const int64_t t0 = now_ns();
        const size_t chosen = inner_->pick(waiting, cycle);
        tracer_->add(kSchedulerPick, t0, now_ns());
        return chosen;
    }

    uint64_t starvation_bound(int owners, uint64_t bandwidth,
                              const LaneExtremes &lanes) const override
    {
        return inner_->starvation_bound(owners, bandwidth, lanes);
    }

  private:
    std::unique_ptr<FabricScheduler> inner_;
    Tracer *tracer_;
};

uint64_t
links_served(const Fabric &fabric)
{
    uint64_t served = 0;
    for (size_t k = 0; k < fabric.num_links(); ++k) {
        served += fabric.link(k).queue().served();
    }
    return served;
}

/**
 * One shard of fabric/harness.cpp's `run_fabric`: every tenant's
 * step, the fabric step, deliveries (plus re-attach after a
 * migration) and the periodic logical-failure probes, then the same
 * harvest of link and tenant statistics.
 */
OpOutcome
fabric_op(const ScenarioSpec &spec, Tracer *tracer, Samples *samples)
{
    OpOutcome out;
    const int64_t setup_start = now_ns();
    const FabricFleetConfig config = spec.to_fabric_config();
    const ExactFleetConfig &fleet = config.fleet;
    validate_tenant_profile(fleet);
    BTWC_CHECK_MSG(fleet.tenant_distances.empty(),
                   "the benchmark fabric is a single-distance fleet");
    const RotatedSurfaceCode code(fleet.distance);
    warm_distances(code);
    std::vector<double> probs;
    for (int q = 0; q < fleet.num_qubits; ++q) {
        probs.push_back(tenant_prob(fleet, q));
    }
    Rng seeder(fleet.seed);
    SystemConfig sconfig;
    sconfig.offchip = fleet.offchip;
    sconfig.tiers = fleet.tiers;
    sconfig.offchip_timeout = config.timeout;
    sconfig.offchip_retries = config.retries;
    std::vector<BtwcSystem> qubits;
    qubits.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        qubits.emplace_back(code, NoiseParams::uniform(tenant_prob(fleet, q)),
                            sconfig, seeder.next_u64());
    }
    Fabric fabric(config.topology, code, fleet.tiers,
                  OffchipQueueConfig{fleet.offchip_bandwidth,
                                     fleet.offchip_latency,
                                     fleet.offchip_batch},
                  probs);
    if (tracer != nullptr) {
        for (size_t k = 0; k < fabric.num_links(); ++k) {
            fabric.link(k).set_scheduler(std::make_unique<TimedScheduler>(
                make_scheduler(config.topology.scheduler,
                               config.topology.aging),
                tracer));
        }
    }
    if (config.faults.enabled) {
        fabric.set_fault_plan(config.faults);
    }
    if (config.shed) {
        fabric.enable_shedding(true);
    }
    for (size_t q = 0; q < qubits.size(); ++q) {
        qubits[q].attach_shared_service(
            &fabric.link(static_cast<size_t>(
                fabric.link_of(static_cast<int>(q)))),
            static_cast<int>(q));
    }
    LogicalFailureProbe probe(code);
    std::vector<std::array<bool, 2>> last_parity(qubits.size(),
                                                 {false, false});
    FabricStats stats;
    stats.per_link.resize(fabric.num_links());
    stats.per_tenant.resize(qubits.size());
    for (size_t q = 0; q < qubits.size(); ++q) {
        stats.per_tenant[q].link = fabric.link_of(static_cast<int>(q));
    }
    uint64_t shipped = 0;
    uint64_t deliveries = 0;
    const int64_t loop_start = now_ns();
    out.setup_ns = loop_start - setup_start;

    for (uint64_t cycle = 0; cycle < fleet.cycles; ++cycle) {
        const int64_t cycle_start = now_ns();
        uint64_t offchip = 0;
        int64_t t0 = cycle_start;
        for (size_t q = 0; q < qubits.size(); ++q) {
            const CycleReport report = qubits[q].step();
            if (tracer != nullptr) {
                const int64_t t1 = now_ns();
                tracer->add(kTenantStep, t0, t1);
                t0 = t1;
            }
            offchip += report.queued > 0 ? 1 : 0;
            shipped += static_cast<uint64_t>(report.queued);
            TenantFabricStats &mine = stats.per_tenant[q];
            mine.enqueued += static_cast<uint64_t>(report.queued);
            mine.suppressed += static_cast<uint64_t>(report.suppressed);
        }
        const uint64_t served = links_served(fabric);
        const int64_t step_start = now_ns();
        const size_t step_span =
            tracer != nullptr ? tracer->begin(kFabricIdle, step_start) : 0;
        const std::vector<SharedOffchipService::Delivery> &landed =
            fabric.step();
        const int64_t step_end = now_ns();
        const bool matched = links_served(fabric) != served;
        if (tracer != nullptr) {
            tracer->end(step_span, step_end,
                        matched ? kFabricServe : kFabricIdle);
        }
        if (samples != nullptr && matched) {
            samples->offchip_ns.push_back(to_sample(step_end - step_start));
        }
        t0 = step_end;
        for (const SharedOffchipService::Delivery &landing : landed) {
            qubits[static_cast<size_t>(landing.owner)]
                .deliver_offchip_correction(landing.half,
                                            landing.correction);
            if (tracer != nullptr) {
                const int64_t t1 = now_ns();
                tracer->add(kFabricDeliver, t0, t1);
                t0 = t1;
            }
            if (!landing.correction.empty()) {
                ++stats.per_tenant[static_cast<size_t>(landing.owner)]
                      .landed;
                ++deliveries;
            }
        }
        for (const int q : fabric.migrated_now()) {
            if (tracer != nullptr) {
                t0 = now_ns();
            }
            qubits[static_cast<size_t>(q)].attach_shared_service(
                &fabric.link(static_cast<size_t>(fabric.link_of(q))), q);
            if (tracer != nullptr) {
                tracer->add(kFabricDeliver, t0, now_ns());
            }
        }
        stats.backlog.add(fabric.backlog());
        stats.demand.add(offchip);
        if (audit_deep()) {
            fabric.audit(shipped);
        }
        if (config.probe_interval > 0 &&
            (cycle + 1) % config.probe_interval == 0) {
            for (size_t q = 0; q < qubits.size(); ++q) {
                t0 = tracer != nullptr ? now_ns() : 0;
                const bool parity_x =
                    probe.logical_parity(qubits[q].frame(CheckType::X));
                if (tracer != nullptr) {
                    const int64_t t1 = now_ns();
                    tracer->add(kFabricProbe, t0, t1);
                    t0 = t1;
                }
                const bool parity_z =
                    probe.logical_parity(qubits[q].frame(CheckType::Z));
                if (tracer != nullptr) {
                    tracer->add(kFabricProbe, t0, now_ns());
                }
                const bool flipped = parity_x != last_parity[q][0] ||
                                     parity_z != last_parity[q][1];
                last_parity[q] = {parity_x, parity_z};
                TenantFabricStats &mine = stats.per_tenant[q];
                ++mine.probes;
                ++stats.probes;
                if (flipped) {
                    ++mine.failures;
                    ++stats.probe_failures;
                }
            }
        }
        if (samples != nullptr) {
            samples->cycle_ns.push_back(to_sample(now_ns() - cycle_start));
        }
    }
    out.loop_ns = now_ns() - loop_start;
    out.cycles = fleet.cycles;

    // Harvest, as fabric/harness.cpp does.
    for (size_t k = 0; k < fabric.num_links(); ++k) {
        const SharedOffchipService &service = fabric.link(k);
        const OffchipQueue &link = service.queue();
        LinkFabricStats &mine = stats.per_link[k];
        mine.enqueued = link.enqueued();
        mine.served = link.served();
        mine.landed = link.landed();
        mine.stall_cycles = link.stall_cycles();
        mine.work_cycles = link.work_cycles();
        mine.max_backlog = link.max_backlog();
        mine.deadline_misses = service.deadline_misses();
        mine.outage_cycles = link.outage_cycles();
        mine.dropped = service.dropped();
        mine.duplicated = service.duplicated();
        mine.corrupted = service.corrupted();
        mine.shed = service.shed_requests();
        mine.canceled = service.canceled();
        mine.stale_discards = service.stale_discards();
        mine.surge_enqueued = service.surge_enqueued();
        mine.surge_landed = service.surge_landed();
        mine.delay = service.delay_histogram();
        stats.queue_delay.merge(service.delay_histogram());
        stats.batch_sizes.merge(link.batch_histogram());
        stats.stall_cycles += link.stall_cycles();
        stats.work_cycles += link.work_cycles();
        stats.max_backlog = std::max(stats.max_backlog, link.max_backlog());
        stats.enqueued += link.enqueued();
        stats.served += link.served();
        stats.landed += link.landed();
        stats.deadline_misses += service.deadline_misses();
        stats.faults.outage_cycles += link.outage_cycles();
        stats.faults.dropped += service.dropped();
        stats.faults.duplicated += service.duplicated();
        stats.faults.corrupted += service.corrupted();
        stats.faults.shed += service.shed_requests();
        stats.faults.canceled += service.canceled();
        stats.faults.stale_discards += service.stale_discards();
        stats.faults.surge_enqueued += service.surge_enqueued();
        stats.faults.surge_landed += service.surge_landed();
        const std::vector<SharedOffchipService::TenantLinkStats> &tenants =
            service.tenant_stats();
        for (size_t q = 0; q < tenants.size(); ++q) {
            TenantFabricStats &mine_t = stats.per_tenant[q];
            mine_t.deadline_misses += tenants[q].deadline_misses;
            mine_t.dropped += tenants[q].dropped;
            mine_t.shed += tenants[q].shed;
            mine_t.canceled += tenants[q].canceled;
            mine_t.delay.merge(tenants[q].delay);
        }
    }
    for (size_t q = 0; q < qubits.size(); ++q) {
        TenantFabricStats &mine = stats.per_tenant[q];
        mine.link = fabric.link_of(static_cast<int>(q));
        mine.retried = qubits[q].retried_decodes();
        mine.degraded = qubits[q].degraded_decodes();
        stats.faults.retried += mine.retried;
        stats.faults.degraded += mine.degraded;
        stats.faults.nacks += qubits[q].shared_nacks();
        stats.faults.duplicate_drops += qubits[q].duplicate_drops();
    }
    stats.faults.migrations = fabric.migrations();
    stats.pending = fabric.pending();
    for (const TenantFabricStats &mine : stats.per_tenant) {
        stats.suppressed += mine.suppressed;
    }
    // The fabric's own contract audit (run per cycle only under
    // audit=deep). A violation is a known program defect, reported as
    // a count beside the output check rather than hidden; see
    // perfbench/README.md.
    try {
        fabric.audit(shipped);
    } catch (const CheckFailure &e) {
        out.counts["fabric.audit_failed"] += 1.0;
        out.note = std::string("fabric audit: ") + e.what();
    }
    out.metrics_json = fabric_metrics_report(stats, true).to_json();
    out.counts["fabric.deliveries"] += static_cast<double>(deliveries);
    out.counts["fabric.served"] += static_cast<double>(stats.served);
    out.counts["fabric.retried"] += static_cast<double>(stats.faults.retried);
    out.counts["fabric.degraded"] +=
        static_cast<double>(stats.faults.degraded);
    out.counts["fabric.shed"] += static_cast<double>(stats.faults.shed);
    out.counts["fabric.migrations"] +=
        static_cast<double>(stats.faults.migrations);
    return out;
}

// -------------------------------------------------------- registry

using OpFn = OpOutcome (*)(const ScenarioSpec &, Tracer *, Samples *);

struct Workload
{
    const char *name;
    const char *spec;
    uint64_t op_cycles;  ///< simulated cycles per operation
    OpFn op;
};

const std::vector<Workload> &
workloads()
{
    // Operation sizes keep one operation at a few tenths of a second,
    // so a run holds dozens of set-ups and the time limit is met
    // closely.
    static const std::vector<Workload> kWorkloads = {
        {"pipeline-d21",
         "kind=lifetime,d=21,p=1e-3,mode=pipeline,policy=mwpm,"
         "tiers=clique,uf:2,mwpm,latency=4,bandwidth=1",
         50000, pipeline_op},
        {"stream-d21", "kind=stream,d=21,p=1e-3,window=22,overlap=11",
         10000, stream_op},
        {"fabric-chaos",
         "kind=fabric,d=5,p=8e-3,policy=mwpm,fleet=12,links=2,"
         "scheduler=deadline,placement=least-loaded,deadline=8,"
         "hot_fraction=0.25,hot_mult=3,latency=2,bandwidth=1,timeout=12,"
         "retries=2,shed=true,migrate=32,"
         "faults=outage:500:60:0;spike:150:24:6;drop:0.04;dup:0.03;"
         "corrupt:0.04;surge:300:60:2:1",
         10000, fabric_op},
    };
    return kWorkloads;
}

const Workload &
find_workload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name) {
            return w;
        }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// --------------------------------------------------------- reporting

std::string
format_summary(const std::string &name, const Summary &s)
{
    char buf[256];
    if (s.tail_bp > 0) {
        std::snprintf(buf, sizeof buf, "%-34s n=%-9llu p50=%-10.0f %s=%.0f",
                      name.c_str(), static_cast<unsigned long long>(s.n),
                      s.p50, quantile_label(s.tail_bp).c_str(), s.tail);
    } else {
        std::snprintf(buf, sizeof buf,
                      "%-34s n=%-9llu p50=%-10.0f (no tail: n < 100)",
                      name.c_str(), static_cast<unsigned long long>(s.n),
                      s.p50);
    }
    return buf;
}

double
peak_rss_mb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A p99 the sample count cannot support is an error, not a figure. */
double
supported_p99(std::vector<uint32_t> &samples, const std::string &what)
{
    if (!quantile_supported(samples.size(), 9900)) {
        throw std::runtime_error(
            what + ": " + std::to_string(samples.size()) +
            " samples cannot support a p99 (need 1000); raise --seconds");
    }
    return quantile(samples, 9900);
}

/** Traced loop totals, summed over a run's traced operations. */
struct TracedTotals
{
    uint64_t cycles = 0;
    int64_t loop_ns = 0;
    uint64_t replay_cycles = 0;
    std::map<std::string, double> counts;
};

void
add_per_layer(RunResult &result, const Tracer &tracer,
              const TracedTotals &traced, double untraced_cps)
{
    const std::vector<std::string> &names = span_names();
    const double loop_per_cycle =
        ratio(static_cast<double>(traced.loop_ns),
              static_cast<double>(traced.cycles));
    // Share of one span's time in the traced loop. Replay spans are
    // timed in their own loop and scaled per cycle, so they read as a
    // fraction of the closed-loop time they model.
    const auto share = [&](int span, double ns) {
        if (is_replay_span(span)) {
            return ratio(ratio(ns, static_cast<double>(traced.replay_cycles)),
                         loop_per_cycle);
        }
        return ratio(ns, static_cast<double>(traced.loop_ns));
    };
    double step_share = 0.0;
    double replay_share = 0.0;
    double loop_self_share = 0.0;
    result.lines.push_back("per-layer spans (ns; share of traced loop):");
    for (int span = 0; span < kNumSpans; ++span) {
        SpanStats stats = tracer.stats()[static_cast<size_t>(span)];
        const Summary s = summarize(stats.durations);
        const double total_share =
            share(span, static_cast<double>(stats.total_ns));
        const double self_share =
            share(span, static_cast<double>(stats.self_ns));
        const std::string &name = names[static_cast<size_t>(span)];
        result.metrics.push_back(
            {name + ".n", static_cast<double>(s.n), "count"});
        result.metrics.push_back({name + ".p50_ns", s.p50, "ns"});
        result.metrics.push_back({name + ".share", total_share, "ratio"});
        result.metrics.push_back(
            {name + ".self_share", self_share, "ratio"});
        if (span == kStreamWindow) {
            result.metrics.push_back(
                {name + ".p99_ns",
                 s.n == 0 ? 0.0 : supported_p99(stats.durations, name),
                 "ns"});
        }
        if (s.n > 0) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "  share=%.4f self=%.4f",
                          total_share, self_share);
            result.lines.push_back("  " + format_summary(name, s) + buf);
        }
        if (is_replay_span(span)) {
            replay_share += self_share;
        } else {
            loop_self_share += self_share;
            if (span <= kStepSuppress) {
                step_share += total_share;
            }
        }
    }
    const std::map<std::string, double> &c = traced.counts;
    const auto count = [&c](const char *key) {
        const auto it = c.find(key);
        return it == c.end() ? 0.0 : it->second;
    };
    const double kcycles = static_cast<double>(traced.cycles) / 1000.0;
    // 1 - (replay component time per cycle / step time per cycle).
    const double unattributed =
        step_share > 0.0 ? 1.0 - replay_share / step_share : 0.0;
    const double traced_cps =
        ratio(static_cast<double>(traced.cycles) * 1e9,
              static_cast<double>(traced.loop_ns));
    const double decodes = count("replay.clique") + count("replay.uf") +
                           count("replay.escalated");
    result.metrics.insert(
        result.metrics.end(),
        {
            {"decoders.tier_chain.onchip_ratio",
             ratio(count("replay.clique") + count("replay.uf"), decodes),
             "ratio"},
            {"matching.union_find.absorb_ratio",
             ratio(count("replay.uf"),
                   count("replay.uf") + count("replay.escalated")),
             "ratio"},
            {"core.system.unattributed", unattributed, "ratio"},
            {"decoders.stream_window.ns_per_defect",
             ratio(static_cast<double>(
                       tracer.stats()[kStreamWindow].total_ns),
                   count("stream.defects_in")),
             "ns"},
            {"decoders.stream_window.carry_ratio",
             ratio(count("stream.defects_carried"),
                   count("stream.defects_in")),
             "ratio"},
            {"core.offchip_service.delivered_ratio",
             ratio(count("fabric.deliveries"), count("fabric.served")),
             "ratio"},
            {"core.system.retried_per_kcycle",
             ratio(count("fabric.retried"), kcycles), "1/kcycle"},
            {"core.system.degraded_per_kcycle",
             ratio(count("fabric.degraded"), kcycles), "1/kcycle"},
            {"core.offchip_service.shed_per_kcycle",
             ratio(count("fabric.shed"), kcycles), "1/kcycle"},
            {"fabric.migrations_per_kcycle",
             ratio(count("fabric.migrations"), kcycles), "1/kcycle"},
            {"trace.overhead", 1.0 - ratio(traced_cps, untraced_cps),
             "ratio"},
            {"trace.coverage", loop_self_share, "ratio"},
        });
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "traced loop: %.0f cycles/s traced vs %.0f untraced; "
                  "spans cover %.4f of it (self time)",
                  traced_cps, untraced_cps, loop_self_share);
    result.lines.push_back(buf);
    if (traced.replay_cycles > 0) {
        // The accounting identity: replay components + the
        // unattributed rest of the step + loop time outside the steps.
        const double total =
            replay_share + unattributed * step_share + (1.0 - step_share);
        std::snprintf(buf, sizeof buf,
                      "pipeline accounting: components %.4f + "
                      "unattributed %.4f x step %.4f + loop rest %.4f = "
                      "%.6f",
                      replay_share, unattributed, step_share,
                      1.0 - step_share, total);
        result.lines.push_back(buf);
        if (std::fabs(total - 1.0) > 1e-9) {
            result.correct = false;
            result.lines.push_back("FAIL: pipeline shares do not add up");
        }
    }
    // Self times can never exceed the loop; spans that miss a fifth of
    // it mean the loop does untimed work the layers do not explain.
    if (loop_self_share > 1.0 + 1e-9 || loop_self_share < 0.8) {
        result.correct = false;
        result.lines.push_back(
            "FAIL: span self times do not account for the traced loop");
    }
}

/** One operation's output, to be compared with run_scenario. */
struct Check
{
    size_t op = 0;
    ScenarioSpec spec;
    std::string json;
    std::string error;  ///< filled by verify() on a mismatch
    bool replay = false;
};

/**
 * Run the reference `run_scenario` for every check, after the timed
 * phase and on up to four threads (each scenario owns its state).
 */
void
verify(std::vector<Check> &checks)
{
    std::atomic<size_t> next{0};
    const auto worker = [&checks, &next] {
        for (size_t i = next++; i < checks.size(); i = next++) {
            Check &check = checks[i];
            if (!check.error.empty()) {
                continue;
            }
            try {
                if (metrics_json_of(run_scenario(check.spec)) !=
                    check.json) {
                    check.error =
                        std::string(check.replay ? "component replay"
                                                 : "harness loop") +
                        " differs from run_scenario(" +
                        check.spec.to_string() + ")";
                }
            } catch (const std::exception &e) {
                check.error = std::string("run_scenario: ") + e.what();
            }
        }
    };
    const unsigned hw = std::thread::hardware_concurrency();
    const size_t threads =
        std::min<size_t>({4, hw == 0 ? 1 : hw, checks.size()});
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t) {
        pool.emplace_back(worker);
    }
    worker();
    for (std::thread &t : pool) {
        t.join();
    }
}

} // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> names;
        for (const Workload &w : workloads()) {
            names.push_back(w.name);
        }
        return names;
    }();
    return kNames;
}

RunResult
run_workload(const RunOptions &options)
{
    const Workload &workload = find_workload(options.workload);
    const ScenarioSpec base = ScenarioSpec::parse(workload.spec);
    const uint64_t op_cycles =
        options.op_cycles > 0 ? options.op_cycles : workload.op_cycles;
    const int64_t budget_ns =
        static_cast<int64_t>(options.seconds * 1e9);

    RunResult result;
    Tracer tracer(kNumSpans);
    TracedTotals traced;
    uint64_t untraced_cycles = 0;
    int64_t untraced_loop_ns = 0;
    int64_t loop_ns = 0;
    uint64_t noted_ops = 0;
    std::string first_note;
    double first_op_rss_mb = 0.0;

    // Untraced timings, pooled over every operation of the run.
    std::vector<double> setup_s;
    Samples pooled;
    std::vector<Check> checks;

    // Timed phase. A traced run alternates untraced and traced
    // operations, so the tracing overhead is measured on the same
    // machine state.
    for (uint64_t op = 0;; ++op) {
        if (options.max_ops > 0 ? op >= options.max_ops
                                : loop_ns >= budget_ns && op > 0) {
            break;
        }
        ScenarioSpec spec = base;
        spec.engine.cycles = op_cycles;
        spec.engine.seed = options.seed + op * kSeedStride;
        const bool traced_op = options.trace && op % 2 == 1;
        ++result.attempted;
        OpOutcome out;
        try {
            out = workload.op(spec, traced_op ? &tracer : nullptr,
                              options.trace ? nullptr : &pooled);
        } catch (const std::exception &e) {
            ++result.failed;
            result.lines.push_back(std::string("FAIL op ") +
                                   std::to_string(op) + ": " + e.what());
            break;  // the program is broken; stop measuring it
        }
        loop_ns += out.loop_ns;
        if (op == 0) {
            // Later growth is the benchmark's own per-operation sample
            // buffers (and the reference runs), not the program's.
            first_op_rss_mb = peak_rss_mb();
        }
        if (!out.note.empty()) {
            ++noted_ops;
            first_note = first_note.empty() ? out.note : first_note;
        }
        if (traced_op) {
            tracer.reduce();  // outside the timed loop
            traced.cycles += out.cycles;
            traced.loop_ns += out.loop_ns;
            traced.replay_cycles += out.replay_cycles;
            for (const auto &[key, value] : out.counts) {
                traced.counts[key] += value;
            }
        } else {
            untraced_cycles += out.cycles;
            untraced_loop_ns += out.loop_ns;
            if (!options.trace) {
                setup_s.push_back(static_cast<double>(out.setup_ns) * 1e-9);
            }
        }
        const size_t index = static_cast<size_t>(op);
        checks.push_back(
            {index, spec, std::move(out.metrics_json), out.check_error});
        if (out.has_replay) {
            checks.push_back({index, out.replay_spec,
                              std::move(out.replay_json), "", true});
        }
    }

    // Output check: every operation's simulated metrics must equal
    // run_scenario's for the same spec and seed.
    verify(checks);
    std::vector<bool> op_failed(static_cast<size_t>(result.attempted), false);
    for (const Check &check : checks) {
        if (!check.error.empty()) {
            result.lines.push_back("FAIL op " + std::to_string(check.op) +
                                   ": " + check.error);
            op_failed[check.op] = true;
        }
    }
    for (const bool failed : op_failed) {
        result.failed += failed ? 1 : 0;
    }
    result.correct = result.failed == 0;

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "workload %s seed %llu: %llu operations of %llu cycles, "
                  "%llu failed",
                  workload.name, static_cast<unsigned long long>(options.seed),
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(op_cycles),
                  static_cast<unsigned long long>(result.failed));
    result.lines.insert(result.lines.begin(), buf);
    result.lines.insert(result.lines.begin() + 1,
                        std::string("spec: ") + workload.spec);
    if (noted_ops > 0) {
        result.lines.push_back("KNOWN DEFECT in " +
                               std::to_string(noted_ops) + " of " +
                               std::to_string(result.attempted) +
                               " operations: " + first_note);
    }

    if (options.trace) {
        add_per_layer(result, tracer, traced,
                      ratio(static_cast<double>(untraced_cycles) * 1e9,
                            static_cast<double>(untraced_loop_ns)));
        result.metrics.push_back(
            {"fabric.audit_failed_ratio",
             ratio(static_cast<double>(noted_ops),
                   static_cast<double>(result.attempted)),
             "ratio"});
        return result;
    }
    if (setup_s.empty()) {
        throw std::runtime_error("no operation completed");
    }

    // Other tenants of the host slow phases of a run, seconds to
    // minutes long, by up to a third. No choice of operations inside a
    // run removes a phase that covers it, and picking the fastest ones
    // also picks those whose random inputs happened to be light, which
    // moves the tail percentiles by a different amount in every run.
    // The end-to-end figures therefore pool every operation of the run.
    std::sort(setup_s.begin(), setup_s.end());
    const double setup_median = setup_s[(setup_s.size() - 1) / 2];
    const double cps = ratio(static_cast<double>(untraced_cycles) * 1e9,
                             static_cast<double>(untraced_loop_ns));
    std::snprintf(buf, sizeof buf, "%zu operations: %.0f cycles/s",
                  setup_s.size(), cps);
    result.lines.push_back(buf);
    const Summary cycle = summarize(pooled.cycle_ns);
    const Summary offchip = summarize(pooled.offchip_ns);
    result.lines.push_back(format_summary("cycle_ns", cycle));
    result.lines.push_back(format_summary("offchip_decode_ns", offchip));
    std::snprintf(buf, sizeof buf, "setup: median %.6f s over %zu set-ups",
                  setup_median, setup_s.size());
    result.lines.push_back(buf);
    result.metrics = {
        {"setup_s", setup_median, "s"},
        {"cycles_per_s", cps, "1/s"},
        {"cycle_ns_p50", cycle.p50, "ns"},
        {"cycle_ns_p99", supported_p99(pooled.cycle_ns, "cycle_ns"), "ns"},
        {"offchip_decode_ns_p50", offchip.p50, "ns"},
        {"offchip_decode_ns_p99",
         supported_p99(pooled.offchip_ns, "offchip_decode_ns"), "ns"},
        {"peak_rss_mb", first_op_rss_mb, "MB"},
    };
    return result;
}

} // namespace perfbench
