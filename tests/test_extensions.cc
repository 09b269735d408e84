/**
 * @file
 * Tests for the extension components: the event-level factory farm
 * simulation (cross-validating the analytic Table 6 design), the
 * tiled Qalypso model (Fig 16, the "fma" architecture with a
 * tileSize), and the on-demand token pools that
 * underpin the microarchitecture comparisons.
 */

#include <gtest/gtest.h>

#include "api/ArchModel.hh"
#include "api/Workload.hh"
#include "arch/SpeedOfData.hh"
#include "circuit/Dataflow.hh"
#include "factory/FarmSim.hh"
#include "sim/TokenPool.hh"

namespace qc {
namespace {

// ---------------------------------------------------------------
// OnDemandBankPool.
// ---------------------------------------------------------------

TEST(OnDemandBankPool, IdleProducerHasOneBufferedToken)
{
    OnDemandBankPool bank(1, usec(323));
    // At t = 1 ms the single producer has been idle long enough to
    // have one ancilla buffered: the first claim is immediate.
    EXPECT_EQ(bank.claim(1, msec(1)), msec(1));
    // The second must be produced from scratch.
    EXPECT_EQ(bank.claim(1, msec(1)), msec(1) + usec(323));
}

TEST(OnDemandBankPool, BurstSerializesOnOneProducer)
{
    OnDemandBankPool bank(1, usec(100));
    const Time t0 = usec(1000);
    EXPECT_EQ(bank.claim(1, t0), t0);            // buffered
    EXPECT_EQ(bank.claim(1, t0), t0 + usec(100));
    EXPECT_EQ(bank.claim(1, t0), t0 + usec(200));
    EXPECT_EQ(bank.claim(2, t0), t0 + usec(400));
    EXPECT_EQ(bank.issued(), 5u);
}

TEST(OnDemandBankPool, ParallelProducersShareBurst)
{
    OnDemandBankPool bank(4, usec(100));
    const Time t0 = usec(1000);
    // Four buffered tokens immediately, then one period for more.
    EXPECT_EQ(bank.claim(4, t0), t0);
    EXPECT_EQ(bank.claim(4, t0), t0 + usec(100));
}

TEST(OnDemandBankPool, CannotStockpileBeyondBuffer)
{
    // The dedicated-generator pathology the paper targets: a long
    // idle stretch yields only `producers` buffered ancillae, not
    // idle_time / period of them.
    OnDemandBankPool bank(2, usec(100));
    const Time t0 = msec(100); // 100 ms of idleness
    EXPECT_EQ(bank.claim(2, t0), t0);
    EXPECT_GT(bank.claim(1, t0), t0);
}

TEST(OnDemandBankPoolDeath, RejectsBadParameters)
{
    EXPECT_DEATH(OnDemandBankPool(0, usec(1)), "bad parameters");
}

// ---------------------------------------------------------------
// Factory farm simulation vs the analytic design.
// ---------------------------------------------------------------

class FarmSimTest : public ::testing::Test
{
  protected:
    ZeroFactory factory_{IonTrapParams::paper(), 0.998};
};

TEST_F(FarmSimTest, SteadyThroughputMatchesAnalyticDesign)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 20000, 42);
    // The event-level pipeline must reproduce the closed-form
    // 10.5 ancillae/ms within a few percent.
    EXPECT_NEAR(r.throughput, factory_.throughput(),
                0.06 * factory_.throughput());
}

TEST_F(FarmSimTest, FirstOutputAfterPipelineFill)
{
    const FarmSimResult r = simulateZeroFactory(factory_, 100, 42);
    // Three candidates must traverse prep+cx+verify before the
    // first correction completes.
    EXPECT_GT(r.firstOutput, factory_.latency() / 2);
    EXPECT_LT(r.firstOutput, 4 * factory_.latency());
}

TEST_F(FarmSimTest, DiscardRateTracksAcceptance)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 50000, 7);
    const double discard_rate = static_cast<double>(r.discarded)
        / 50000.0;
    EXPECT_NEAR(discard_rate, 1.0 - factory_.acceptRate(), 0.002);
}

TEST_F(FarmSimTest, OutputCountsAccountForGrouping)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 9000, 3);
    // Every output consumes three verified candidates.
    EXPECT_NEAR(static_cast<double>(r.produced),
                (9000.0 - static_cast<double>(r.discarded)) / 3.0,
                1.5);
}

TEST_F(FarmSimTest, LowerAcceptanceLowersThroughput)
{
    const ZeroFactory leaky(IonTrapParams::paper(), 0.5);
    const FarmSimResult good =
        simulateZeroFactory(factory_, 12000, 5);
    const FarmSimResult bad = simulateZeroFactory(leaky, 12000, 5);
    EXPECT_LT(bad.throughput, 0.7 * good.throughput);
}

// ---------------------------------------------------------------
// Tiled Qalypso (Fig 16): the "fma" model with a tileSize.
// ---------------------------------------------------------------

class QalypsoTileTest : public ::testing::Test
{
  protected:
    static const Workload &
    qrca8()
    {
        static FowlerSynth synth;
        static const Workload w = [] {
            WorkloadParams params;
            params.bits = 8;
            return WorkloadRegistry::instance().build("qrca", synth,
                                                      params);
        }();
        return w;
    }

    static int
    numQubits()
    {
        return static_cast<int>(qrca8().lowered.circuit.numQubits());
    }

    ArchRunResult
    run(int tileSize, Area areaBudget = 4000) const
    {
        const DataflowGraph g(qrca8().lowered.circuit);
        MicroarchConfig config;
        config.tileSize = tileSize;
        config.areaBudget = areaBudget;
        return ArchRegistry::instance().get("fma").run(g, model_,
                                                       config);
    }

    EncodedOpModel model_{IonTrapParams::paper()};
};

TEST_F(QalypsoTileTest, TeleportsAreTheCrossTileTwoQubitGates)
{
    for (int tile : {2, 10, 16, numQubits()}) {
        std::uint64_t twoQubit = 0;
        std::uint64_t crossTile = 0;
        for (const Gate &g : qrca8().lowered.circuit.gates()) {
            if (g.arity() != 2)
                continue;
            ++twoQubit;
            if (g.ops[0] / static_cast<Qubit>(tile)
                != g.ops[1] / static_cast<Qubit>(tile))
                ++crossTile;
        }
        EXPECT_EQ(run(tile).teleports, crossTile) << "tile " << tile;
        if (tile == 2) {
            EXPECT_GT(crossTile, twoQubit * 3 / 10);
        }
        if (tile == numQubits()) {
            EXPECT_EQ(crossTile, 0u);
        }
    }
}

TEST_F(QalypsoTileTest, UntiledAndOversizedTilesAgree)
{
    const ArchRunResult untiled = run(0);
    for (int tile : {numQubits(), 10 * numQubits()}) {
        const ArchRunResult r = run(tile);
        EXPECT_EQ(r.makespan, untiled.makespan) << "tile " << tile;
        EXPECT_EQ(r.teleports, 0u);
        EXPECT_EQ(r.zerosConsumed, untiled.zerosConsumed);
        EXPECT_EQ(r.pi8Consumed, untiled.pi8Consumed);
        EXPECT_DOUBLE_EQ(r.ancillaArea, untiled.ancillaArea);
    }
}

TEST_F(QalypsoTileTest, AncillaAccountingMatchesSpeedOfData)
{
    const DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const ArchRunResult r = run(16);
    EXPECT_EQ(r.zerosConsumed, bw.zerosConsumed);
    EXPECT_EQ(r.pi8Consumed, bw.pi8Consumed);
}

TEST_F(QalypsoTileTest, MoreFactoryAreaNeverSlower)
{
    EXPECT_LE(run(16, 3000).makespan, run(16, 300).makespan);
}

TEST_F(QalypsoTileTest, RunsSlowerThanSpeedOfData)
{
    const DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    EXPECT_GE(run(16).makespan, bw.runtime);
}

TEST_F(QalypsoTileTest, DeterministicAcrossRuns)
{
    const ArchRunResult a = run(8);
    const ArchRunResult b = run(8);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.teleports, b.teleports);
}

} // namespace
} // namespace qc
