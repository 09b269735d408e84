/**
 * @file
 * Shared helpers for the ablation and engine bench binaries:
 * canonical 32-bit paper benchmark construction and name=value
 * argument parsing.
 */

#ifndef QC_BENCH_BENCH_COMMON_HH
#define QC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/Qc.hh"
#include "common/Table.hh"

namespace qc::bench {

/**
 * Build the paper's three 32-bit benchmarks through the workload
 * registry, with the shared paper-parity synthesis options
 * (ExperimentConfig::paper).
 */
inline std::vector<Workload>
paperBenchmarks()
{
    static FowlerSynth synth(
        ExperimentConfig::paper("qrca").synth);
    std::vector<Workload> out;
    WorkloadParams params;
    params.bits = 32;
    for (const char *name : {"qrca", "qcla", "qft"}) {
        out.push_back(WorkloadRegistry::instance().build(
            name, synth, params));
    }
    return out;
}

/** Parse an integer CLI argument of the form name=value. */
inline std::uint64_t
argValue(int argc, char **argv, const std::string &name,
         std::uint64_t fallback)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return std::strtoull(arg.c_str() + prefix.size(),
                                 nullptr, 10);
    }
    return fallback;
}

/** Parse a string CLI argument of the form name=value. */
inline std::string
argString(int argc, char **argv, const std::string &name,
          const std::string &fallback)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return fallback;
}

/** Print a titled section separator. */
inline void
section(const std::string &title)
{
    std::cout << "\n== " << title << " ==\n";
}

} // namespace qc::bench

#endif // QC_BENCH_BENCH_COMMON_HH
