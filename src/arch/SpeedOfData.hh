/**
 * @file
 * Speed-of-data analysis of benchmark circuits (paper Section 3):
 * the Table 2 latency split, the Table 3 average ancilla
 * bandwidths, and the Figure 7 ancilla-demand profile.
 *
 * "Speed of data" (Figure 1b) is the ASAP schedule of the logical
 * dataflow graph where each gate costs only its data-interaction
 * latency plus the QEC interaction that must follow it — all
 * ancilla preparation runs off the critical path.
 */

#ifndef QC_ARCH_SPEED_OF_DATA_HH
#define QC_ARCH_SPEED_OF_DATA_HH

#include <cstdint>
#include <vector>

#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"

namespace qc {

/** One row of Table 2 (latencies of the serial execution). */
struct LatencySplit
{
    /** Critical path of useful data operations only (column 2). */
    Time dataOp = 0;
    /** Added critical path from QEC data/ancilla interaction. */
    Time qecInteract = 0;
    /** Added critical path from encoded ancilla preparation. */
    Time ancillaPrep = 0;

    Time total() const { return dataOp + qecInteract + ancillaPrep; }

    double dataOpShare() const
    {
        return static_cast<double>(dataOp) / total();
    }
    double qecInteractShare() const
    {
        return static_cast<double>(qecInteract) / total();
    }
    double ancillaPrepShare() const
    {
        return static_cast<double>(ancillaPrep) / total();
    }
};

/** One row of Table 3 plus its underlying totals. */
struct BandwidthSummary
{
    Time runtime = 0;             ///< speed-of-data makespan
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;

    /** Average encoded-zero bandwidth needed (per ms). */
    BandwidthPerMs
    zeroPerMs() const
    {
        return runtime ? static_cast<double>(zerosConsumed)
                             / toMs(runtime)
                       : 0;
    }

    /** Average encoded-pi/8 bandwidth needed (per ms). */
    BandwidthPerMs
    pi8PerMs() const
    {
        return runtime ? static_cast<double>(pi8Consumed)
                             / toMs(runtime)
                       : 0;
    }
};

/**
 * Every speed-of-data number of one circuit (Section 3), from one
 * topological pass over the dataflow graph.
 */
struct SpeedOfData
{
    /** Table 2: makespans of three ASAP schedules with cumulative
     *  latency models: data only; + QEC interaction; fully
     *  serialized, + one ancilla preparation per QEC step and per
     *  pi/8 gate (movement excluded). */
    LatencySplit split;
    /** Table 3: ancilla totals over the data + QEC makespan. */
    BandwidthSummary bandwidth;
    /** Figure 7: average encoded zeros in flight per time bin of the
     *  data + QEC schedule; each QEC step holds its two for its QEC
     *  interaction window (the just-in-time envelope). */
    std::vector<double> demandProfile;
};

/**
 * Compute all of SpeedOfData with `bins` profile bins (0 leaves the
 * profile empty). Panics on a negative gate latency.
 */
SpeedOfData speedOfData(const DataflowGraph &graph,
                        const EncodedOpModel &model, std::size_t bins);

inline LatencySplit
latencySplit(const DataflowGraph &graph, const EncodedOpModel &model)
{
    return speedOfData(graph, model, 0).split;
}

inline BandwidthSummary
bandwidthAtSpeedOfData(const DataflowGraph &graph,
                       const EncodedOpModel &model)
{
    return speedOfData(graph, model, 0).bandwidth;
}

inline std::vector<double>
ancillaDemandProfile(const DataflowGraph &graph,
                     const EncodedOpModel &model, std::size_t bins)
{
    return speedOfData(graph, model, bins).demandProfile;
}

} // namespace qc

#endif // QC_ARCH_SPEED_OF_DATA_HH
