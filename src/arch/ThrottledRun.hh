/**
 * @file
 * Event-driven execution under a steady encoded-ancilla supply
 * (paper Figure 8): data dependencies as in the speed-of-data
 * schedule, but every QEC step must first claim two encoded zero
 * ancillae from a rate-limited pool (and every pi/8 gate one pi/8
 * ancilla from its own pool, when constrained).
 */

#ifndef QC_ARCH_THROTTLED_RUN_HH
#define QC_ARCH_THROTTLED_RUN_HH

#include <cstdint>

#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"

namespace qc {

/** Outcome of a throttled run. */
struct ThrottledResult
{
    Time makespan = 0;
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;

    /** Gates retired (equals the circuit size unless cut off). */
    std::uint64_t gatesExecuted = 0;

    /** False when a deadline stopped the run before completion. */
    bool completed = true;
};

/**
 * Execute the dataflow graph with a steady ancilla supply.
 *
 * @param graph       lowered benchmark dataflow
 * @param model       encoded-operation model
 * @param zero_per_ms encoded-zero production rate; <= 0 means
 *                    unconstrained
 * @param pi8_per_ms  encoded-pi/8 production rate; <= 0 means
 *                    unconstrained (Figure 8 constrains zeros only)
 * @param deadline    fire only events at times <= deadline and
 *                    report a partial result, with the makespan
 *                    at the deadline, if any remain; <= 0 runs to
 *                    completion
 */
ThrottledResult throttledRun(const DataflowGraph &graph,
                             const EncodedOpModel &model,
                             BandwidthPerMs zero_per_ms,
                             BandwidthPerMs pi8_per_ms = 0,
                             Time deadline = 0);

} // namespace qc

#endif // QC_ARCH_THROTTLED_RUN_HH
