/**
 * @file
 * Qubit-dependency dataflow graph over a Circuit.
 *
 * This is the foundation of the paper's Section 3 analysis: the
 * "speed of data" of a circuit is the makespan of the ASAP schedule
 * of this graph when every gate costs only its data-interaction
 * latency (ancilla preparation removed from the critical path); see
 * arch/SpeedOfData.hh.
 */

#ifndef QC_CIRCUIT_DATAFLOW_HH
#define QC_CIRCUIT_DATAFLOW_HH

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/Circuit.hh"
#include "common/Types.hh"

namespace qc {

/** Index of a gate (node) within a DataflowGraph. */
using NodeId = std::uint32_t;

/**
 * Dependency DAG over the gates of a circuit.
 *
 * Gate B depends on gate A iff they share a qubit and A precedes B
 * in program order with no intervening gate on that qubit (i.e.
 * last-writer edges, which are sufficient for scheduling since all
 * our dependencies are read-modify-write).
 *
 * Adjacency is stored compressed (one offset array plus one flat
 * index array per direction). Predecessors are listed in operand-slot
 * order and successors in ascending node id; the executors' FIFO
 * tie-break on equal event times depends on that order.
 */
class DataflowGraph
{
  public:
    /** Build the dependency DAG for a circuit (kept by reference). */
    explicit DataflowGraph(const Circuit &circuit);

    /** The underlying circuit. */
    const Circuit &circuit() const { return circuit_; }

    /** Number of gate nodes. */
    std::size_t numNodes() const { return predOff_.size() - 1; }

    /** Immediate predecessors of node n, in operand-slot order. */
    std::span<const NodeId>
    preds(NodeId n) const
    {
        return {predIdx_.data() + predOff_[n],
                predIdx_.data() + predOff_[n + 1]};
    }

    /** Immediate successors of node n, in ascending node id. */
    std::span<const NodeId>
    succs(NodeId n) const
    {
        return {succIdx_.data() + succOff_[n],
                succIdx_.data() + succOff_[n + 1]};
    }

    /** Nodes with no predecessors. */
    const std::vector<NodeId> &roots() const { return roots_; }

    /**
     * Unit-latency depth of each node (longest path in gate count);
     * the maximum plus one is the circuit's logical depth.
     */
    std::vector<std::uint32_t> levels() const;

    /** Logical depth (longest chain of dependent gates). */
    std::uint32_t depth() const;

  private:
    const Circuit &circuit_;
    /** preds(n) is predIdx_[predOff_[n] .. predOff_[n + 1]). */
    std::vector<std::uint32_t> predOff_;
    std::vector<NodeId> predIdx_;
    /** succs(n) is succIdx_[succOff_[n] .. succOff_[n + 1]). */
    std::vector<std::uint32_t> succOff_;
    std::vector<NodeId> succIdx_;
    std::vector<NodeId> roots_;
};

} // namespace qc

#endif // QC_CIRCUIT_DATAFLOW_HH
