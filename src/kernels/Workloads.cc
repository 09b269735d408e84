/**
 * @file
 * Built-in workload registrations: the paper's three kernels plus
 * the synthetic scaling generators, exposed to the experiment API
 * by string name. New kernels added to this directory should
 * register themselves here to become visible to qc::Experiment,
 * the benches, and sweep studies.
 */

#include "api/Workload.hh"

#include "kernels/Adders.hh"
#include "kernels/Synthetic.hh"

namespace qc {

namespace {

/** Lower an already-built circuit into a Workload named `name`. */
Workload
lowerWorkload(std::string name, Circuit circuit, FowlerSynth &synth,
              const WorkloadParams &params)
{
    Lowered lowered =
        lowerToFaultTolerant(circuit, synth, params.lowering);
    return Workload{"", std::move(name), std::move(circuit),
                    std::move(lowered)};
}

/** Display name matching the paper's tables ("32-Bit QRCA"). */
std::string
paperName(const WorkloadParams &params, const char *kernel)
{
    return std::to_string(params.bits) + "-Bit " + kernel;
}

/** Lower a synthetic circuit under its own name. */
Workload
lowerSynthetic(Circuit circuit, FowlerSynth &synth,
               const WorkloadParams &params)
{
    std::string name = circuit.name();
    return lowerWorkload(std::move(name), std::move(circuit), synth,
                         params);
}

} // namespace

void
registerKernelWorkloads(WorkloadRegistry &registry)
{
    registry.add(
        "qrca",
        "32-bit-style Quantum Ripple-Carry Adder "
        "(serial; paper Table 3's low-bandwidth kernel)",
        [](FowlerSynth &synth, const WorkloadParams &params) {
            return lowerWorkload(paperName(params, "QRCA"),
                                 makeQrca(params.bits).circuit, synth,
                                 params);
        });
    registry.add(
        "qcla",
        "Quantum Carry-Lookahead Adder (parallel; the "
        "paper's high-bandwidth adder)",
        [](FowlerSynth &synth, const WorkloadParams &params) {
            return lowerWorkload(paperName(params, "QCLA"),
                                 makeQcla(params.bits).circuit, synth,
                                 params);
        });
    registry.add(
        "qft",
        "Quantum Fourier Transform with Fowler-synthesized "
        "rotation words (Section 2.5)",
        [](FowlerSynth &synth, const WorkloadParams &params) {
            return lowerWorkload(paperName(params, "QFT"),
                                 makeQft(params.bits, params.qft),
                                 synth, params);
        });
    registry.add(
        "chain",
        "synthetic fully-serial 1-qubit H/T chain of `bits` gates "
        "(zero parallelism; exact analytic properties)",
        [](FowlerSynth &synth, const WorkloadParams &params) {
            return lowerSynthetic(makeChain(params.bits), synth,
                                  params);
        });
    registry.add(
        "ladder",
        "synthetic brickwork H+CX ladder, `bits` wide and `bits` "
        "layers deep (parallelism = width)",
        [](FowlerSynth &synth, const WorkloadParams &params) {
            return lowerSynthetic(
                makeLadder(params.bits, params.bits), synth, params);
        });
}

} // namespace qc
