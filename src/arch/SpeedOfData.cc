#include "arch/SpeedOfData.hh"

#include <algorithm>
#include <array>

#include "common/Logging.hh"
#include "common/Stats.hh"

namespace qc {

namespace {

/** The three Table 2 latency models, cumulative. */
enum Model
{
    DataOnly,    ///< data interaction only
    DataPlusQec, ///< + the QEC interaction (speed of data)
    Serialized,  ///< + ancilla preparation, no overlap
    NumModels
};

using PerModel = std::array<Time, NumModels>;

/**
 * What the EncodedOpModel charges one gate kind; no cost depends on
 * anything but the kind.
 */
struct KindCost
{
    PerModel latency{};
    /** Figure 7's just-in-time envelope: the ancillae exist during
     *  the gate's trailing QEC window (its data window if none). */
    Time window = 0;
    int zeros = 0;
    int pi8 = 0;
    bool known = false;
};

KindCost
kindCost(const EncodedOpModel &model, const Gate &gate)
{
    KindCost c;
    const Time data = model.dataLatency(gate);
    c.latency = {data, data, data};
    c.window = data;
    // Serialized charges one zero-prep latency per QEC step (its two
    // zeros are prepared concurrently) and, for a pi/8 gate, the
    // pi/8 conversion.
    if (model.needsQec(gate.kind)) {
        c.latency[DataPlusQec] += model.qecInteractLatency();
        c.latency[Serialized] = c.latency[DataPlusQec]
            + model.zeroPrepLatency();
        c.window = model.qecInteractLatency();
    }
    if (gate.kind == GateKind::T || gate.kind == GateKind::Tdg)
        c.latency[Serialized] += model.pi8PrepLatency();
    for (Time t : c.latency) {
        if (t < 0)
            panic("negative gate latency");
    }
    c.zeros = model.zeroAncillae(gate);
    c.pi8 = model.pi8Ancillae(gate);
    c.known = true;
    return c;
}

} // namespace

SpeedOfData
speedOfData(const DataflowGraph &graph, const EncodedOpModel &model,
            std::size_t bins)
{
    const auto &gates = graph.circuit().gates();
    const auto n = static_cast<NodeId>(graph.numNodes());
    std::array<KindCost, static_cast<std::size_t>(GateKind::NumKinds)>
        costs{};
    std::vector<PerModel> end(n);
    PerModel makespan{};
    SpeedOfData out;

    // Program order is already a topological order (edges only go
    // from earlier to later gates).
    for (NodeId i = 0; i < n; ++i) {
        KindCost &cost = costs[static_cast<std::size_t>(gates[i].kind)];
        if (!cost.known)
            cost = kindCost(model, gates[i]);
        PerModel ready{};
        for (NodeId p : graph.preds(i)) {
            for (int m = 0; m < NumModels; ++m)
                ready[m] = std::max(ready[m], end[p][m]);
        }
        for (int m = 0; m < NumModels; ++m) {
            end[i][m] = ready[m] + cost.latency[m];
            makespan[m] = std::max(makespan[m], end[i][m]);
        }
        out.bandwidth.zerosConsumed +=
            static_cast<std::uint64_t>(cost.zeros);
        out.bandwidth.pi8Consumed += static_cast<std::uint64_t>(cost.pi8);
    }
    out.split.dataOp = makespan[DataOnly];
    out.split.qecInteract = makespan[DataPlusQec] - makespan[DataOnly];
    out.split.ancillaPrep = makespan[Serialized] - makespan[DataPlusQec];
    out.bandwidth.runtime = makespan[DataPlusQec];

    out.demandProfile.assign(bins, 0.0);
    if (bins == 0 || makespan[DataPlusQec] == 0)
        return out;
    TimeSeriesBinner conc(static_cast<double>(makespan[DataPlusQec]),
                          bins);
    for (NodeId i = 0; i < n; ++i) {
        const KindCost &cost =
            costs[static_cast<std::size_t>(gates[i].kind)];
        if (cost.zeros == 0)
            continue;
        const double stop = static_cast<double>(end[i][DataPlusQec]);
        // Weight zeros * window spread over the window is a density
        // of `zeros` ancillae per ns; dividing each bin by its width
        // (below) gives average ancillae-in-flight.
        conc.addRange(stop - static_cast<double>(cost.window), stop,
                      static_cast<double>(cost.zeros)
                          * static_cast<double>(cost.window));
    }
    for (std::size_t i = 0; i < bins; ++i)
        out.demandProfile[i] = conc.bins()[i] / conc.binWidth();
    return out;
}

} // namespace qc
