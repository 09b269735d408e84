#include "arch/ThrottledRun.hh"

#include <algorithm>

#include "sim/EventLoop.hh"
#include "sim/TokenPool.hh"

namespace qc {

ThrottledResult
throttledRun(const DataflowGraph &graph, const EncodedOpModel &model,
             BandwidthPerMs zero_per_ms, BandwidthPerMs pi8_per_ms,
             Time deadline)
{
    const auto &gates = graph.circuit().gates();
    RateTokenPool zeros(zero_per_ms);
    RateTokenPool pi8s(pi8_per_ms);
    ThrottledResult result;

    // Roots launch as t = 0 events, so token claims happen in
    // deterministic time order.
    const DataflowRun run = runDataflow(
        graph,
        [&](NodeId node, Time now) {
            const Gate &g = gates[node];
            // Claiming no tokens is free: claim(0) returns 0.
            const int z = model.zeroAncillae(g);
            const int p = model.pi8Ancillae(g);
            result.zerosConsumed += static_cast<std::uint64_t>(z);
            result.pi8Consumed += static_cast<std::uint64_t>(p);
            const Time start =
                std::max({now, zeros.claim(z), pi8s.claim(p)});
            Time latency = model.dataLatency(g);
            if (model.needsQec(g.kind))
                latency += model.qecInteractLatency();
            return start + latency;
        },
        deadline);
    result.makespan = run.makespan;
    result.gatesExecuted = run.completed;
    result.completed = run.finished;
    return result;
}

} // namespace qc
