#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "core/offchip_queue.hpp"
#include "core/offchip_service.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/union_find.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {

/**
 * How the rare off-chip decodes are resolved inside the lifetime
 * simulator.
 *
 * `Mwpm` feeds the two-round-agreed (filtered) syndrome to the
 * chain's off-chip tiers, exactly the hand-over the paper describes.
 * `Oracle` clears the true error state instead of running an off-chip
 * tier; it is statistically indistinguishable for the
 * distribution/coverage/bandwidth metrics (validated by the test
 * suite) and orders of magnitude faster at the d = 81 configurations
 * of Fig. 4. On-chip tiers (Clique, and a Union-Find mid-tier when
 * configured) always really run.
 */
enum class OffchipPolicy : uint8_t { Oracle = 0, Mwpm = 1 };

/**
 * How escalated signatures reach the off-chip tier.
 *
 * `Queued` (the default) models the paper's actual machine: escalated
 * signatures are enqueued on a latency/bandwidth-limited link (a
 * `SharedOffchipService`, core/offchip_service.hpp) and their
 * corrections land cycles later.
 * With the default zero-latency unlimited-bandwidth service it
 * reproduces the synchronous results bit-for-bit (tested). `Inline`
 * is the historical synchronous model — escalations resolve within
 * their own cycle — kept as the bit-exactness reference and as an
 * escape hatch for harnesses that cannot tolerate queue state.
 */
enum class OffchipService : uint8_t { Queued = 0, Inline = 1 };

/** Configuration of a single-logical-qubit BTWC pipeline. */
struct SystemConfig
{
    int filter_rounds = 2;                       ///< Fig. 7 window
    OffchipPolicy offchip = OffchipPolicy::Oracle;
    bool track_both_types = true;                ///< decode X and Z halves
    /**
     * The decode hierarchy each half runs (tier 0 first). The default
     * is the paper's two-tier Clique -> MWPM architecture; §8.1-style
     * deeper chains (e.g. TierChainConfig::deep()) slot a Union-Find
     * mid-tier in between, and arbitrary chains come from the CLI via
     * TierChainConfig::parse.
     */
    TierChainConfig tiers = TierChainConfig::legacy();
    /** Escalation transport; see OffchipService. */
    OffchipService service = OffchipService::Queued;
    /**
     * Off-chip link model (Queued service only): round-trip decode
     * latency in cycles, served decodes per cycle (0 = unlimited) and
     * the link-batch grouping cap (OffchipQueueConfig::max_batch;
     * within one logical qubit actual decode_batch calls are bounded
     * by the one-outstanding-request-per-half contract). The defaults
     * reproduce the synchronous model exactly.
     */
    uint64_t offchip_latency = 0;
    uint64_t offchip_bandwidth = 0;
    uint64_t offchip_batch = 0;
    /**
     * Graceful degradation under link faults (0 disables it, the
     * bit-exact default). A half whose off-chip request has been
     * outstanding for `offchip_timeout` cycles gives the request up,
     * on the link it was enqueued on (core/offchip_service.hpp), and
     * either re-escalates — up to `offchip_retries` times per
     * signature, each retry doubling the timeout budget (exponential
     * backoff) — or, with retries exhausted, decodes the half's
     * current filtered syndrome on an on-chip Union-Find fallback
     * instead of waiting on a dead link (a `degraded` decode).
     */
    uint64_t offchip_timeout = 0;
    int offchip_retries = 0;
};

/** What happened in one cycle of a BTWC pipeline. */
struct CycleReport
{
    /** Combined verdict: Complex dominates, then Trivial, then AllZeros. */
    CliqueVerdict verdict = CliqueVerdict::AllZeros;
    /** Verdict of each half (indexed by CheckType of the detector). */
    CliqueVerdict type_verdict[2] = {CliqueVerdict::AllZeros,
                                     CliqueVerdict::AllZeros};
    /**
     * Deepest tier consulted by each half (indexed like type_verdict).
     * Equals the tier that produced the correction, except under the
     * Oracle policy where it names the off-chip tier the oracle stood
     * in for.
     */
    DecoderTier tier_used[2] = {DecoderTier::Clique, DecoderTier::Clique};
    /** Whether each half's decode consulted an off-chip tier. */
    bool type_offchip[2] = {false, false};
    /** True when the cycle's syndrome had to go off-chip. */
    bool offchip = false;
    /** Fired bits in the cycle's raw syndrome, both halves (AFS input). */
    int raw_weight = 0;
    /** On-chip corrections applied by Clique this cycle. */
    int clique_corrections = 0;
    /** Escalations enqueued on the off-chip service this cycle. */
    int queued = 0;
    /** Queued corrections that landed (were applied) this cycle. */
    int landed = 0;
    /**
     * Decodes deferred to an already-outstanding request of the same
     * half (see BtwcSystem's reconciliation contract): off-chip
     * classifications absorbed rather than re-enqueued, and on-chip
     * resolutions held back rather than applied (either would make
     * the in-flight correction stale).
     */
    int suppressed = 0;
    /** Requests still waiting for link capacity after this cycle. */
    uint64_t queue_backlog = 0;
    /** Timed-out requests given up and re-escalated (backoff). */
    int retried = 0;
    /** Timed-out halves resolved by the on-chip UF fallback. */
    int degraded = 0;
};

/**
 * Tier-0 classification of one hierarchical decode, the Clique-verdict
 * contract of the paper: nothing fired / resolved locally by tier 0 /
 * escalated. Identical for every chain sharing the same tier 0 --
 * deeper tiers only change who pays for the COMPLEX signatures.
 * Shared by the closed-loop pipeline (BtwcSystem::step) and the
 * open-loop Signature-mode sampler (sim/lifetime.cpp) so the two
 * modes can never desynchronize on this mapping.
 */
CliqueVerdict classify_decode(const TierChain::Result &outcome);

/**
 * The full BTWC decode pipeline of one logical qubit (Fig. 2):
 * phenomenological noise -> noisy syndrome measurement -> multi-round
 * measurement filter -> configurable decoder tier chain (Clique
 * first, rare escalation to Union-Find and/or off-chip matching).
 *
 * `step()` advances one code cycle and reports the classification the
 * fleet's bandwidth provisioning consumes. Under the default `Queued`
 * service, escalated signatures are enqueued on the off-chip link and
 * their corrections land `offchip_latency` cycles later, persisting
 * through the filter window; intervening errors stay on the lattice
 * and re-escalate after the landing, which is how late corrections
 * are reconciled against syndromes that changed in flight.
 *
 * Reconciliation contract: each half has at most one outstanding
 * off-chip request, and while it is in flight the half applies no
 * corrections at all. A signature classified off-chip in that window
 * is *absorbed* (counted in `CycleReport::suppressed`): its errors
 * remain on the lattice, the landing correction removes the
 * escalation-time component, and the residual re-escalates as a
 * fresh request. A signature an on-chip tier could resolve in that
 * window is *deferred* (also counted as suppressed): the escalated
 * errors are folded into it, so correcting it now would leave the
 * landing correction stale and XOR already-fixed errors back on.
 * Either shortcut -- re-sending the stale syndrome every cycle, or
 * applying overlapping corrections from both paths -- would
 * double-correct and oscillate.
 *
 * The link is a `SharedOffchipService`: a stand-alone system runs a
 * private single-tenant one (owner 0, built on first use from the
 * `offchip_*` fields), and a fleet tenant attaches to one shared with
 * the rest of the machine. The stall/backlog accounting lives in
 * `core/offchip_queue.hpp` and the multi-qubit machine model in
 * `sim/fleet.hpp`.
 */
class BtwcSystem
{
  public:
    BtwcSystem(const RotatedSurfaceCode &code, NoiseParams noise,
               SystemConfig config, uint64_t seed);

    /** Advance one noisy cycle through the full pipeline. */
    CycleReport step();

    /**
     * Become tenant `owner` of a shared multi-tenant off-chip link
     * (core/offchip_service.hpp): escalations are enqueued on
     * `service` tagged with `owner` instead of on the private link,
     * and phase 3 is skipped -- the fleet harness advances the shared
     * link once per machine cycle (after every tenant stepped) and
     * routes landed corrections back via
     * `deliver_offchip_correction`. The private link stays unbuilt
     * unless `offchip_queue()` is read; link accounting lives on the
     * service. Only meaningful under the Queued service. Re-attaching
     * (failover) moves future escalations only: an outstanding
     * request stays on, and is given up on, the link it was enqueued
     * on. With a zero-latency unlimited-bandwidth shared link the
     * cycle statistics are bit-exact with the private-link path
     * (tested).
     */
    void attach_shared_service(SharedOffchipService *service, int owner);

    /**
     * Apply a correction the off-chip link routed back to `half`
     * (error-type index) and free that half for its next escalation.
     * The private link's landings take the same path in phase 3. An
     * empty correction is a shed nack: it frees the half without
     * touching the frame.
     */
    void deliver_offchip_correction(int half,
                                    const std::vector<uint8_t> &correction);

    /** Number of cycles executed. */
    uint64_t cycles() const { return cycles_; }

    /** The underlying code. */
    const RotatedSurfaceCode &code() const { return code_; }

    /** Error frame of one half (by *error* type). */
    const ErrorFrame &frame(CheckType error_type) const
    {
        return frames_[static_cast<int>(error_type)];
    }

    /** Active configuration. */
    const SystemConfig &config() const { return config_; }

    /**
     * The private link's queue (Queued service accounting). Builds the
     * private link on first use, so it is valid before the first step.
     */
    const OffchipQueue &offchip_queue() const
    {
        return private_link().queue();
    }

    /** Decodes deferred to an outstanding request (see above). */
    uint64_t suppressed_escalations() const { return suppressed_; }

    /** Requests enqueued or in flight whose correction has not landed. */
    size_t pending_offchip() const
    {
        return (half_busy_[0] ? 1u : 0u) + (half_busy_[1] ? 1u : 0u);
    }

    /** Corrections the off-chip link delivered to this tenant. */
    uint64_t shared_landed() const { return shared_landed_; }

    /** Timed-out requests given up and re-escalated (backoff). */
    uint64_t retried_decodes() const { return retried_; }

    /** Timed-out halves resolved by the on-chip UF fallback. */
    uint64_t degraded_decodes() const { return degraded_; }

    /** Empty-correction nacks received (shed requests). */
    uint64_t shared_nacks() const { return shared_nacks_; }

    /** Deliveries dropped because the half was no longer waiting
     * (the fault plan's duplicate clause). */
    uint64_t duplicate_drops() const { return duplicate_drops_; }

  private:
    struct Half
    {
        Half(const RotatedSurfaceCode &code, CheckType detector,
             const SystemConfig &config)
            : chain(code, detector, config.tiers),
              filter(code.num_checks(detector), config.filter_rounds)
        {
            if (config.offchip_timeout > 0) {
                fallback =
                    std::make_unique<UnionFindDecoder>(code, detector);
            }
        }

        TierChain chain;
        /** On-chip degraded-mode decoder (offchip_timeout > 0 only):
         * resolves a half whose link request timed out with retries
         * exhausted, instead of waiting on a dead link. */
        std::unique_ptr<UnionFindDecoder> fallback;
        /** Pooled fallback decode outcome (degraded path only). */
        Decoder::Result fallback_result;
        /** Packed per-cycle pipeline (measure_packed -> word-AND filter
         * -> packed tier walk): nothing on this path allocates in
         * steady state. */
        PackedMeasurementFilter filter;
        PackedSyndrome raw;
        /** Pooled decode outcome, overwritten in place each cycle. */
        TierChain::Result outcome;
    };

    /** The private single-tenant link, built on first use. */
    SharedOffchipService &private_link() const;

    /**
     * Verify the reconciliation contract after a cycle: the private
     * link's pending requests equal the busy halves (one outstanding
     * request per half, flagged busy exactly while outstanding), and
     * the per-cycle syndrome/filter tail-word invariants. Runs at the
     * end of step() under AuditLevel::Deep; throws CheckFailure.
     */
    void audit_offchip_state() const;

    const RotatedSurfaceCode &code_;
    NoiseParams noise_;
    SystemConfig config_;
    Rng rng_;
    std::vector<ErrorFrame> frames_;  ///< indexed by error type
    std::vector<Half> halves_;        ///< indexed by error type
    uint64_t cycles_ = 0;

    // Queued off-chip service state: the private link (owner 0; built
    // on first use, never for shared tenants), the shared link when
    // attached, and the link each busy half's request went to.
    mutable std::unique_ptr<SharedOffchipService> private_link_;
    SharedOffchipService *shared_ = nullptr;
    int owner_ = 0;
    SharedOffchipService *half_link_[2] = {nullptr, nullptr};
    bool half_busy_[2] = {false, false};
    uint64_t suppressed_ = 0;
    uint64_t shared_landed_ = 0;

    // Graceful degradation (offchip_timeout > 0): the cycle each
    // half's outstanding request was enqueued, its consecutive-retry
    // count (the backoff exponent), and the outcome counters.
    uint64_t half_busy_since_[2] = {0, 0};
    int half_retries_[2] = {0, 0};
    uint64_t retried_ = 0;
    uint64_t degraded_ = 0;
    uint64_t shared_nacks_ = 0;
    uint64_t duplicate_drops_ = 0;
};

} // namespace btwc
