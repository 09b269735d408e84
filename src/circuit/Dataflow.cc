#include "circuit/Dataflow.hh"

#include <algorithm>

namespace qc {

DataflowGraph::DataflowGraph(const Circuit &circuit) : circuit_(circuit)
{
    const auto &gates = circuit.gates();
    const auto n = static_cast<NodeId>(gates.size());
    predOff_.assign(std::size_t{n} + 1, 0);
    predIdx_.reserve(std::size_t{n} * 2);

    // lastOnQubit[q] = most recent gate touching qubit q, or
    // invalidQubit-like sentinel when none.
    constexpr NodeId none = ~NodeId{0};
    std::vector<NodeId> last_on_qubit(circuit.numQubits(), none);
    // Successor counts first, offsets after the prefix sum below.
    succOff_.assign(std::size_t{n} + 1, 0);

    for (NodeId i = 0; i < n; ++i) {
        const Gate &g = gates[i];
        const auto first = predIdx_.size();
        const int arity = g.arity();
        for (int slot = 0; slot < arity; ++slot) {
            const Qubit q = g.ops[static_cast<std::size_t>(slot)];
            const NodeId prev = last_on_qubit[q];
            // Consecutive gates on the same two qubits get one edge.
            if (prev != none
                && std::find(predIdx_.begin() + first, predIdx_.end(),
                             prev)
                       == predIdx_.end()) {
                predIdx_.push_back(prev);
                ++succOff_[prev + 1];
            }
            last_on_qubit[q] = i;
        }
        predOff_[i + 1] = static_cast<std::uint32_t>(predIdx_.size());
        if (predIdx_.size() == first)
            roots_.push_back(i);
    }

    for (NodeId i = 0; i < n; ++i)
        succOff_[i + 1] += succOff_[i];
    succIdx_.resize(predIdx_.size());
    // Filling in node order lists every node's successors in
    // ascending id.
    std::vector<std::uint32_t> cursor(succOff_.begin(), succOff_.end() - 1);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId p : preds(i))
            succIdx_[cursor[p]++] = i;
    }
}

std::vector<std::uint32_t>
DataflowGraph::levels() const
{
    const auto n = static_cast<NodeId>(numNodes());
    std::vector<std::uint32_t> level(n, 0);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId p : preds(i))
            level[i] = std::max(level[i], level[p] + 1);
    }
    return level;
}

std::uint32_t
DataflowGraph::depth() const
{
    std::uint32_t d = 0;
    for (std::uint32_t lvl : levels())
        d = std::max(d, lvl + 1);
    return numNodes() ? d : 0;
}

} // namespace qc
