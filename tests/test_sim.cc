/**
 * @file
 * Tests for the discrete-event core: event ordering, determinism,
 * the dataflow loop, the token-pool production models, and a
 * differential check of both executors (every arch model and the
 * throttled run) against the std::function event simulator they
 * replaced, kept here verbatim as the reference.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "api/ArchModel.hh"
#include "api/Workload.hh"
#include "arch/ThrottledRun.hh"
#include "common/Logging.hh"
#include "sim/EventLoop.hh"
#include "sim/TokenPool.hh"

namespace qc {
namespace {

// ---------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------

/** Pops every event, returning their nodes in firing order. */
std::vector<std::uint32_t>
drain(EventQueue &queue)
{
    std::vector<std::uint32_t> order;
    while (!queue.empty())
        order.push_back(queue.pop().node);
    return order;
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue queue;
    queue.push(usec(30), 3, EventKind::Complete);
    queue.push(usec(10), 1, EventKind::Complete);
    queue.push(usec(20), 2, EventKind::Complete);
    EXPECT_EQ(drain(queue), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(queue.now(), usec(30));
}

TEST(EventQueue, FifoForEqualTimestamps)
{
    EventQueue queue;
    for (std::uint32_t i = 0; i < 10; ++i)
        queue.push(usec(5), i, EventKind::Complete);
    std::vector<std::uint32_t> expected(10);
    for (std::uint32_t i = 0; i < 10; ++i)
        expected[i] = i;
    EXPECT_EQ(drain(queue), expected);
}

TEST(EventQueue, NowAdvancesMonotonically)
{
    EventQueue queue;
    for (Time t : {usec(5), usec(1), usec(9), usec(1)})
        queue.push(t, 0, EventKind::Complete);
    Time last = -1;
    std::size_t fired = 0;
    while (!queue.empty()) {
        const Event event = queue.pop();
        EXPECT_GE(event.when, last);
        EXPECT_EQ(queue.now(), event.when);
        last = event.when;
        ++fired;
    }
    EXPECT_EQ(fired, 4u);
}

TEST(EventQueueDeath, RejectsPastScheduling)
{
    EventQueue queue;
    queue.push(usec(10), 0, EventKind::Complete);
    queue.pop();
    EXPECT_DEATH(queue.push(usec(5), 1, EventKind::Complete), "past");
}

// ---------------------------------------------------------------
// runDataflow, on a hand-written graph
// ---------------------------------------------------------------

/** Minimal Graph for runDataflow: explicit adjacency lists. */
struct ToyGraph
{
    std::vector<std::vector<std::uint32_t>> predLists;
    std::vector<std::vector<std::uint32_t>> succLists;
    std::vector<std::uint32_t> rootList;

    explicit ToyGraph(std::size_t n) : predLists(n), succLists(n) {}

    void
    edge(std::uint32_t from, std::uint32_t to)
    {
        predLists[to].push_back(from);
        succLists[from].push_back(to);
    }

    void
    findRoots()
    {
        for (std::uint32_t i = 0; i < predLists.size(); ++i) {
            if (predLists[i].empty())
                rootList.push_back(i);
        }
    }

    std::size_t numNodes() const { return predLists.size(); }
    const std::vector<std::uint32_t> &roots() const { return rootList; }
    const std::vector<std::uint32_t> &
    preds(std::uint32_t n) const
    {
        return predLists[n];
    }
    const std::vector<std::uint32_t> &
    succs(std::uint32_t n) const
    {
        return succLists[n];
    }
};

/** Records (node, now) per launch; each node runs `latency[node]`. */
struct LaunchLog
{
    std::vector<Time> latency;
    std::vector<std::pair<std::uint32_t, Time>> launches;

    Time
    operator()(std::uint32_t node, Time now)
    {
        launches.emplace_back(node, now);
        return now + latency[node];
    }
};

TEST(RunDataflow, LaunchesWhenAllPredecessorsComplete)
{
    // 0 -> 2 <- 1, 2 -> 3.
    ToyGraph g(4);
    g.edge(0, 2);
    g.edge(1, 2);
    g.edge(2, 3);
    g.findRoots();
    LaunchLog log{{usec(10), usec(30), usec(5), usec(1)}, {}};
    const DataflowRun run = runDataflow(g, log);
    EXPECT_TRUE(run.finished);
    EXPECT_EQ(run.completed, 4u);
    EXPECT_EQ(run.makespan, usec(36));
    const std::vector<std::pair<std::uint32_t, Time>> expected{
        {0, 0}, {1, 0}, {2, usec(30)}, {3, usec(35)}};
    EXPECT_EQ(log.launches, expected);
}

TEST(RunDataflow, RootLaunchesPrecedeZeroLatencyCompletions)
{
    // Three zero-latency roots, each with a successor: every root
    // launches before any completion releases a successor.
    ToyGraph g(6);
    g.edge(0, 3);
    g.edge(1, 4);
    g.edge(2, 5);
    g.findRoots();
    LaunchLog log{std::vector<Time>(6, 0), {}};
    const DataflowRun run = runDataflow(g, log);
    EXPECT_EQ(run.makespan, 0);
    EXPECT_EQ(run.completed, 6u);
    const std::vector<std::pair<std::uint32_t, Time>> expected{
        {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
    EXPECT_EQ(log.launches, expected);
}

TEST(RunDataflow, EqualTimeCompletionsReleaseInSchedulingOrder)
{
    // Roots 0 and 1 finish together; 0 was scheduled first, so its
    // successors (in succs order) launch before 1's.
    ToyGraph g(5);
    g.edge(0, 3);
    g.edge(0, 2);
    g.edge(1, 4);
    g.findRoots();
    LaunchLog log{{usec(7), usec(7), 1, 1, 1}, {}};
    runDataflow(g, log);
    ASSERT_EQ(log.launches.size(), 5u);
    EXPECT_EQ(log.launches[2].first, 3u);
    EXPECT_EQ(log.launches[3].first, 2u);
    EXPECT_EQ(log.launches[4].first, 4u);
}

TEST(RunDataflow, DeadlineCutsOffAfterEventsAtTheLimit)
{
    // A chain of four 10 us gates.
    ToyGraph g(4);
    g.edge(0, 1);
    g.edge(1, 2);
    g.edge(2, 3);
    g.findRoots();
    LaunchLog log{std::vector<Time>(4, usec(10)), {}};
    // The completion at exactly the deadline still fires.
    const DataflowRun cut = runDataflow(g, log, usec(20));
    EXPECT_FALSE(cut.finished);
    EXPECT_EQ(cut.completed, 2u);
    EXPECT_EQ(cut.makespan, usec(20));

    LaunchLog roomy{std::vector<Time>(4, usec(10)), {}};
    const DataflowRun whole = runDataflow(g, roomy, usec(1000));
    EXPECT_TRUE(whole.finished);
    EXPECT_EQ(whole.completed, 4u);
    EXPECT_EQ(whole.makespan, usec(40));
}

TEST(RunDataflowDeath, RejectsACompletionInThePast)
{
    ToyGraph g(2);
    g.edge(0, 1);
    g.findRoots();
    const auto backwards = [](std::uint32_t node, Time now) {
        return node == 0 ? now + usec(10) : now - usec(5);
    };
    EXPECT_DEATH(runDataflow(g, backwards), "past");
}

// ---------------------------------------------------------------
// Token pools
// ---------------------------------------------------------------

TEST(RateTokenPool, TokensArriveAtRate)
{
    // 2 tokens per ms -> k-th token at k * 0.5 ms.
    RateTokenPool pool(2.0);
    EXPECT_EQ(pool.claim(1), msec(1) / 2);
    EXPECT_EQ(pool.claim(1), msec(1));
    EXPECT_EQ(pool.claim(2), msec(2));
    EXPECT_EQ(pool.issued(), 4u);
}

TEST(RateTokenPool, StartupDelaysFirstToken)
{
    RateTokenPool pool(1.0, usec(300));
    EXPECT_EQ(pool.claim(1), usec(300) + msec(1));
}

TEST(RateTokenPool, InfiniteRateAlwaysAvailable)
{
    RateTokenPool pool(0.0);
    EXPECT_EQ(pool.claim(100), 0);
}

TEST(RateTokenPool, ZeroClaimIsFree)
{
    RateTokenPool pool(1.0);
    EXPECT_EQ(pool.claim(0), 0);
    EXPECT_EQ(pool.issued(), 0u);
}

// ---------------------------------------------------------------
// Differential check against the reference executors
// ---------------------------------------------------------------

namespace reference {

/**
 * The event simulator both executors ran on before the typed loop:
 * a priority queue of std::function handlers, FIFO on equal times.
 */
class Simulator
{
  public:
    using Handler = std::function<void()>;

    Time now() const { return now_; }

    void
    schedule(Time when, Handler handler)
    {
        if (when < now_)
            panic("Simulator: scheduling into the past (", when, " < ",
                  now_, ")");
        queue_.push(Event{when, nextSeq_++, std::move(handler)});
    }

    Time
    run()
    {
        while (!queue_.empty()) {
            Event event = std::move(const_cast<Event &>(queue_.top()));
            queue_.pop();
            now_ = event.when;
            event.handler();
        }
        return now_;
    }

    Time
    runUntil(Time limit)
    {
        while (!queue_.empty() && queue_.top().when <= limit) {
            Event event = std::move(const_cast<Event &>(queue_.top()));
            queue_.pop();
            now_ = event.when;
            event.handler();
        }
        if (!queue_.empty())
            now_ = limit;
        return now_;
    }

    std::size_t pending() const { return queue_.size(); }

  private:
    struct Event
    {
        Time when;
        std::uint64_t seq;
        Handler handler;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/** The former ArchModel::run body. */
ArchRunResult
archRun(const ArchModel &arch, const DataflowGraph &graph,
        const EncodedOpModel &model, const MicroarchConfig &config)
{
    const auto &gates = graph.circuit().gates();
    const auto n = static_cast<NodeId>(graph.numNodes());

    Simulator sim;
    const std::unique_ptr<ArchExecution> exec =
        arch.prepare(graph, model, config);

    std::vector<int> missing(n, 0);
    for (NodeId i = 0; i < n; ++i)
        missing[i] = static_cast<int>(graph.preds(i).size());

    std::function<void(NodeId)> launch = [&](NodeId node) {
        const Gate &g = gates[node];
        const Time overhead = exec->moveOverhead(g);
        exec->result.zerosConsumed +=
            static_cast<std::uint64_t>(model.zeroAncillae(g));
        exec->result.pi8Consumed +=
            static_cast<std::uint64_t>(model.pi8Ancillae(g));
        const Time start =
            std::max(sim.now(), exec->ancillaReady(g, sim.now()));
        Time latency = overhead + model.dataLatency(g);
        if (model.needsQec(g.kind))
            latency += model.qecInteractLatency();
        sim.schedule(start + latency, [&, node]() {
            exec->result.makespan =
                std::max(exec->result.makespan, sim.now());
            for (NodeId succ : graph.succs(node)) {
                if (--missing[succ] == 0)
                    launch(succ);
            }
        });
    };

    for (NodeId root : graph.roots())
        sim.schedule(0, [&, root]() { launch(root); });

    sim.run();
    return exec->result;
}

/** The former throttledRun body. */
ThrottledResult
throttledRun(const DataflowGraph &graph, const EncodedOpModel &model,
             BandwidthPerMs zero_per_ms, BandwidthPerMs pi8_per_ms,
             Time deadline)
{
    const auto &gates = graph.circuit().gates();
    const auto n = static_cast<NodeId>(graph.numNodes());

    Simulator sim;
    RateTokenPool zeros(zero_per_ms);
    RateTokenPool pi8s(pi8_per_ms);
    ThrottledResult result;

    std::vector<int> missing(n, 0);
    for (NodeId i = 0; i < n; ++i)
        missing[i] = static_cast<int>(graph.preds(i).size());

    std::function<void(NodeId)> launch = [&](NodeId node) {
        const Gate &g = gates[node];
        Time start = sim.now();

        const int z = model.zeroAncillae(g);
        if (z > 0) {
            result.zerosConsumed += static_cast<std::uint64_t>(z);
            start = std::max(start, zeros.claim(z));
        }
        const int p = model.pi8Ancillae(g);
        if (p > 0) {
            result.pi8Consumed += static_cast<std::uint64_t>(p);
            start = std::max(start, pi8s.claim(p));
        }

        Time latency = model.dataLatency(g);
        if (model.needsQec(g.kind))
            latency += model.qecInteractLatency();

        const Time end = start + latency;
        sim.schedule(end, [&, node]() {
            result.makespan = std::max(result.makespan, sim.now());
            ++result.gatesExecuted;
            for (NodeId succ : graph.succs(node)) {
                if (--missing[succ] == 0)
                    launch(succ);
            }
        });
    };

    for (NodeId root : graph.roots())
        sim.schedule(0, [&, root]() { launch(root); });

    if (deadline > 0) {
        sim.runUntil(deadline);
        if (sim.pending() > 0) {
            result.completed = false;
            result.makespan = std::max(result.makespan, sim.now());
        }
    } else {
        sim.run();
    }
    return result;
}

} // namespace reference

/** A built workload and its dataflow graph (which refers to it). */
struct Built
{
    Workload workload;
    DataflowGraph graph;

    Built(const std::string &name, int bits)
        : workload(build(name, bits)), graph(workload.lowered.circuit)
    {
    }

    static Workload
    build(const std::string &name, int bits)
    {
        FowlerSynth synth(FowlerSynth::Options{
            /*maxSyllables=*/3, /*maxError=*/1e-2, /*pureHT=*/true,
            /*tCostWeight=*/3});
        WorkloadParams params;
        params.bits = bits;
        return WorkloadRegistry::instance().build(name, synth, params);
    }
};

const std::vector<std::pair<std::string, int>> kWorkloads = {
    {"chain", 40}, {"ladder", 8}, {"qrca", 8}, {"qcla", 16}, {"qft", 6}};

void
expectSame(const ArchRunResult &a, const ArchRunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.zerosConsumed, b.zerosConsumed);
    EXPECT_EQ(a.pi8Consumed, b.pi8Consumed);
    EXPECT_EQ(a.teleports, b.teleports);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.ancillaArea, b.ancillaArea);
}

void
expectSame(const ThrottledResult &a, const ThrottledResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.zerosConsumed, b.zerosConsumed);
    EXPECT_EQ(a.pi8Consumed, b.pi8Consumed);
    EXPECT_EQ(a.gatesExecuted, b.gatesExecuted);
    EXPECT_EQ(a.completed, b.completed);
}

TEST(ExecutorReference, EveryArchModelMatches)
{
    struct Case
    {
        const char *arch;
        int generatorsPerSite;
        int cacheSlots;
        int tileSize;
    };
    const Case cases[] = {
        {"qla", 1, 24, 0},  {"gqla", 3, 24, 0}, {"cqla", 1, 4, 0},
        {"gcqla", 2, 3, 0}, {"fma", 1, 24, 0},  {"fma", 1, 24, 2},
    };
    const EncodedOpModel model(IonTrapParams::paper());
    for (const auto &[name, bits] : kWorkloads) {
        const Built built(name, bits);
        for (const Case &c : cases) {
            SCOPED_TRACE(name + " " + c.arch + " tileSize "
                         + std::to_string(c.tileSize));
            MicroarchConfig config;
            config.generatorsPerSite = c.generatorsPerSite;
            config.cacheSlots = c.cacheSlots;
            config.tileSize = c.tileSize;
            config.areaBudget = 40;
            const ArchModel &arch = ArchRegistry::instance().get(c.arch);
            expectSame(arch.run(built.graph, model, config),
                       reference::archRun(arch, built.graph, model,
                                          config));
        }
    }
}

TEST(ExecutorReference, ThrottledRunsMatch)
{
    IonTrapParams instant{0, 0, 0, 0, 0, 0};
    const EncodedOpModel models[] = {
        EncodedOpModel(IonTrapParams::paper()), EncodedOpModel(instant)};
    for (const auto &[name, bits] : kWorkloads) {
        const Built built(name, bits);
        for (const EncodedOpModel &model : models) {
            // Unconstrained, zeros throttled, both throttled.
            for (const auto &[zeros, pi8s] :
                 {std::pair{0.0, 0.0}, std::pair{3.0, 0.0},
                  std::pair{40.0, 2.5}}) {
                const ThrottledResult whole = reference::throttledRun(
                    built.graph, model, zeros, pi8s, 0);
                // No deadline, one at the end, and two cut-offs (the
                // first lands on an event time whenever there is
                // one there).
                for (Time deadline :
                     {Time{0}, whole.makespan, whole.makespan / 2,
                      whole.makespan / 3 + 1}) {
                    SCOPED_TRACE(name + " zeros " + std::to_string(zeros)
                                 + " pi8 " + std::to_string(pi8s)
                                 + " deadline "
                                 + std::to_string(deadline));
                    expectSame(throttledRun(built.graph, model, zeros,
                                            pi8s, deadline),
                               reference::throttledRun(built.graph,
                                                       model, zeros,
                                                       pi8s, deadline));
                }
            }
        }
    }
}

} // namespace
} // namespace qc
