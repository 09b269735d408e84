/**
 * @file
 * Microarchitecture models for the paper's Section 5.2 latency/area
 * evaluation (Figure 15): QLA, GQLA, CQLA, GCQLA and the
 * fully-multiplexed ancilla distribution used by Qalypso, whose
 * tiled form (Section 5.3, Figure 16) is the same model.
 *
 * All five share the same event-driven dataflow executor; they
 * differ in where encoded ancillae come from and what data movement
 * costs:
 *
 *  - QLA [22]: every logical data qubit owns a dedicated ancilla
 *    generator producing serially (one simple factory); operands of
 *    two-qubit gates teleport to an interaction site and back home
 *    for their QEC step.
 *  - GQLA: QLA generalized to k parallel generators per data qubit.
 *  - CQLA [15]: a compute cache of data qubits with richer ancilla
 *    support; gates execute only on cached qubits, and misses incur
 *    teleport-in (plus a writeback teleport when a dirty qubit is
 *    evicted). LRU replacement, as in sim-cache.
 *  - GCQLA: CQLA with k parallel generators per cache slot.
 *  - Fully-Multiplexed (Qalypso, Section 5.3): shared farms of
 *    pipelined factories feed dense data-only regions; ancillae
 *    travel a short ballistic hop from a factory output port to
 *    the data, and data moves ballistically inside a region. With
 *    MicroarchConfig::tileSize the data is cut into the tiles of
 *    Figure 16: each tile owns its share of the factory farm, and
 *    two-qubit gates between tiles teleport. tileSize 0 is one
 *    region holding every qubit.
 *
 * The models are implemented as qc::ArchModel subclasses registered
 * in qc::ArchRegistry (api/ArchModel.hh) under the keys "qla",
 * "gqla", "cqla", "gcqla" and "fma"; run one through the registry
 * or qc::Experiment. This header holds the per-run knobs and the
 * outcome record they share. A knob out of its documented range
 * makes the model that reads it throw std::invalid_argument.
 */

#ifndef QC_ARCH_MICROARCH_HH
#define QC_ARCH_MICROARCH_HH

#include <cstdint>

#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"

namespace qc {

/**
 * Knobs for a single microarchitecture run. The model itself is
 * chosen by its ArchRegistry key, not by a field here.
 */
struct MicroarchConfig
{
    IonTrapParams tech{};

    /**
     * Code recursion level of the executed circuit's logical qubits
     * (1 = the paper's [[7,1,3]] baseline, 2 = concatenated). The
     * models derive effective block-operation latencies, generator
     * designs and footprints from it; `tech` stays the *physical*
     * technology point at every level.
     */
    int codeLevel = 1;

    /**
     * (G)QLA / (G)CQLA: parallel generators per site, in
     * [1, kMaxGeneratorsPerSite]; 1 reproduces the original
     * QLA/CQLA proposals.
     */
    int generatorsPerSite = 1;

    /** (G)CQLA: compute-cache capacity in logical qubits, in
     *  [2, kMaxCacheSlots]. */
    int cacheSlots = 24;

    /** Bounds on the per-run generator banks these two size (each
     *  ancilla claim also scans its site's k generators). The
     *  shipped specs use at most 32 and 24. */
    static constexpr int kMaxGeneratorsPerSite = 256;
    static constexpr int kMaxCacheSlots = 1 << 16;

    /**
     * FullyMultiplexed: total factory area budget (macroblocks,
     * > 0), split between the zero-factory farm and the pi/8 chain
     * in proportion to the circuit's ancilla demand mix, and
     * evenly between the tiles.
     */
    Area areaBudget = 3000;

    /**
     * FullyMultiplexed: logical qubits per Figure 16 tile
     * (contiguous index blocks); 0 means one region holding every
     * qubit, as does any size >= the qubit count.
     */
    int tileSize = 0;

    /**
     * Teleportation latency between tiles / to the compute cache
     * (EPR prep, transversal Bell measurement and fix-up), >= 0.
     * Zero means "derive from the effective technology point"
     * (tprep + 2 t2q + tmeas + 2 t1q at the configured codeLevel).
     */
    Time teleport = 0;

    /**
     * Effective block-operation latencies at codeLevel
     * (ConcatenatedSteane::effectiveTech; equals `tech` at level 1).
     */
    IonTrapParams effTech() const;

    /**
     * Derived teleport latency.
     *
     * @throws std::invalid_argument if teleport is negative
     */
    Time teleportLatency() const;
};

/** Outcome of one microarchitecture run. */
struct ArchRunResult
{
    Time makespan = 0;
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;
    std::uint64_t teleports = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheAccesses = 0;
    Area ancillaArea = 0; ///< generation hardware charged (x-axis)

    double
    missRate() const
    {
        return cacheAccesses
                   ? static_cast<double>(cacheMisses) / cacheAccesses
                   : 0.0;
    }
};

} // namespace qc

#endif // QC_ARCH_MICROARCH_HH
