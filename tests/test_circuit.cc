/**
 * @file
 * Unit tests for the circuit IR and dataflow scheduling.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "arch/SpeedOfData.hh"
#include "circuit/Circuit.hh"
#include "circuit/Dataflow.hh"

namespace qc {
namespace {

TEST(Gate, ArityByKind)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::T), 1);
    EXPECT_EQ(gateArity(GateKind::CX), 2);
    EXPECT_EQ(gateArity(GateKind::CRotZ), 2);
    EXPECT_EQ(gateArity(GateKind::Toffoli), 3);
    EXPECT_EQ(gateArity(GateKind::Measure), 1);
}

TEST(Gate, NamesAreStable)
{
    EXPECT_EQ(gateName(GateKind::T), "T");
    EXPECT_EQ(gateName(GateKind::CX), "CX");
    EXPECT_EQ(gateName(GateKind::Toffoli), "Toffoli");
}

TEST(Circuit, BuilderAppendsInOrder)
{
    Circuit c(3);
    c.h(0).cx(0, 1).t(1).toffoli(0, 1, 2).measure(2);
    ASSERT_EQ(c.size(), 5u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::H);
    EXPECT_EQ(c.gates()[1].kind, GateKind::CX);
    EXPECT_EQ(c.gates()[3].kind, GateKind::Toffoli);
    EXPECT_EQ(c.gates()[3].ops[2], 2u);
}

TEST(Circuit, CensusCountsKinds)
{
    Circuit c(2);
    c.h(0).h(1).t(0).tdg(1).cx(0, 1);
    const GateCensus census = c.census();
    EXPECT_EQ(census.total, 5u);
    EXPECT_EQ(census.of(GateKind::H), 2u);
    EXPECT_EQ(census.nonTransversal1q(), 2u);
}

TEST(Circuit, RotationParamStored)
{
    Circuit c(2);
    c.rotZ(0, 5).crotZ(0, 1, -3);
    EXPECT_EQ(c.gates()[0].param, 5);
    EXPECT_EQ(c.gates()[1].param, -3);
}

TEST(Circuit, AddQubitsGrows)
{
    Circuit c(2);
    const Qubit first = c.addQubits(3);
    EXPECT_EQ(first, 2u);
    EXPECT_EQ(c.numQubits(), 5u);
    c.h(4); // must not panic
}

TEST(CircuitDeath, RejectsOutOfRangeOperand)
{
    Circuit c(2);
    EXPECT_DEATH(c.h(2), "out of range");
}

TEST(CircuitDeath, RejectsDuplicateOperands)
{
    Circuit c(2);
    EXPECT_DEATH(c.cx(1, 1), "duplicate");
}

TEST(Dataflow, ChainHasLinearDepth)
{
    Circuit c(1);
    c.h(0).t(0).h(0).t(0);
    DataflowGraph g(c);
    EXPECT_EQ(g.depth(), 4u);
    EXPECT_EQ(g.roots().size(), 1u);
}

TEST(Dataflow, IndependentGatesAreParallel)
{
    Circuit c(4);
    c.h(0).h(1).h(2).h(3);
    DataflowGraph g(c);
    EXPECT_EQ(g.depth(), 1u);
    EXPECT_EQ(g.roots().size(), 4u);
}

TEST(Dataflow, TwoQubitGatesJoinChains)
{
    Circuit c(2);
    c.h(0).h(1).cx(0, 1).t(1);
    DataflowGraph g(c);
    // cx depends on both h's; t depends on cx.
    EXPECT_EQ(g.preds(2).size(), 2u);
    EXPECT_EQ(g.preds(3).size(), 1u);
    EXPECT_EQ(g.depth(), 3u);
}

/** A technology point whose only nonzero latencies are t1q, t2q. */
EncodedOpModel
gateLatencies(Time t1q, Time t2q)
{
    IonTrapParams tech{0, 0, 0, 0, 0, 0};
    tech.t1q = t1q;
    tech.t2q = t2q;
    return EncodedOpModel(tech);
}

/** Data-only speed-of-data makespan (Table 2's first column). */
Time
dataMakespan(const Circuit &c, const EncodedOpModel &model)
{
    return speedOfData(DataflowGraph(c), model, 0).split.dataOp;
}

TEST(Dataflow, AsapMakespanOfChain)
{
    const EncodedOpModel model = gateLatencies(7, 0);
    Circuit c(1);
    c.h(0).h(0).h(0);
    EXPECT_EQ(dataMakespan(c, model), 21);
    // The third gate starts when the first two have run.
    Circuit prefix(1);
    prefix.h(0).h(0);
    EXPECT_EQ(dataMakespan(prefix, model), 14);
}

TEST(Dataflow, AsapRespectsCrossQubitDependencies)
{
    const EncodedOpModel model = gateLatencies(5, 10);
    Circuit c(2);
    c.h(0).h(1).cx(0, 1);
    EXPECT_EQ(dataMakespan(c, model), 15);
    // The cx starts once both (parallel) h's are done.
    Circuit prefix(2);
    prefix.h(0).h(1);
    EXPECT_EQ(dataMakespan(prefix, model), 5);
}

TEST(Dataflow, ParallelismShortensMakespan)
{
    // Two independent chains of 3 gates each.
    Circuit c(2);
    c.h(0).h(0).h(0).h(1).h(1).h(1);
    EXPECT_EQ(dataMakespan(c, gateLatencies(10, 0)), 30);
    EXPECT_EQ(DataflowGraph(c).depth(), 3u);
}

std::vector<NodeId>
ids(std::span<const NodeId> nodes)
{
    return {nodes.begin(), nodes.end()};
}

TEST(Dataflow, AdjacencyOrderIsPinned)
{
    // The executors break equal-time ties by scheduling order, which
    // follows these lists: preds in operand-slot order, succs in
    // ascending node id.
    Circuit c(3);
    c.cx(0, 1).h(1).h(0).cx(0, 1).h(2);
    DataflowGraph g(c);
    ASSERT_EQ(g.numNodes(), 5u);
    EXPECT_EQ(ids(g.preds(0)), (std::vector<NodeId>{}));
    EXPECT_EQ(ids(g.preds(1)), (std::vector<NodeId>{0}));
    EXPECT_EQ(ids(g.preds(2)), (std::vector<NodeId>{0}));
    EXPECT_EQ(ids(g.preds(3)), (std::vector<NodeId>{2, 1}));
    EXPECT_EQ(ids(g.preds(4)), (std::vector<NodeId>{}));
    EXPECT_EQ(ids(g.succs(0)), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(ids(g.succs(1)), (std::vector<NodeId>{3}));
    EXPECT_EQ(ids(g.succs(2)), (std::vector<NodeId>{3}));
    EXPECT_EQ(ids(g.succs(3)), (std::vector<NodeId>{}));
    EXPECT_EQ(ids(g.succs(4)), (std::vector<NodeId>{}));
    EXPECT_EQ(g.roots(), (std::vector<NodeId>{0, 4}));
}

TEST(Dataflow, GatesSharingTwoQubitsShareOneEdge)
{
    Circuit c(2);
    c.cx(0, 1).cx(1, 0);
    DataflowGraph g(c);
    EXPECT_EQ(ids(g.preds(1)), (std::vector<NodeId>{0}));
    EXPECT_EQ(ids(g.succs(0)), (std::vector<NodeId>{1}));
}

TEST(Dataflow, EmptyCircuitHasNoNodes)
{
    Circuit c(2);
    DataflowGraph g(c);
    EXPECT_EQ(g.numNodes(), 0u);
    EXPECT_TRUE(g.roots().empty());
    EXPECT_EQ(g.depth(), 0u);
}

TEST(Dataflow, LevelsMatchDepth)
{
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measure(2);
    DataflowGraph g(c);
    const auto levels = g.levels();
    EXPECT_EQ(levels[0], 0u);
    EXPECT_EQ(levels[1], 1u);
    EXPECT_EQ(levels[2], 2u);
    EXPECT_EQ(levels[3], 3u);
}

TEST(Dataflow, PrepStartsNewLifetimeButKeepsOrdering)
{
    Circuit c(1);
    c.h(0).measure(0).prepZ(0).h(0);
    DataflowGraph g(c);
    // Still a chain: reuse of the qubit is ordered.
    EXPECT_EQ(g.depth(), 4u);
}

} // namespace
} // namespace qc
