/**
 * @file
 * The deterministic discrete-event loop behind every dataflow run
 * (paper Section 5.2's "event-based simulation of ancilla factory
 * production and data qubit gate consumption"). Events are plain
 * records in one binary heap and the per-gate work is a callable
 * inlined into the loop, so a run allocates nothing per event.
 */

#ifndef QC_SIM_EVENT_LOOP_HH
#define QC_SIM_EVENT_LOOP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/Logging.hh"
#include "common/Types.hh"

namespace qc {

/** What a queued event does when it fires. */
enum class EventKind : std::uint8_t
{
    Launch,   ///< start the node's gate
    Complete, ///< the node's gate finished: release its successors
};

struct Event
{
    Time when = 0;
    std::uint64_t seq = 0; ///< scheduling order; breaks time ties
    std::uint32_t node = 0;
    EventKind kind = EventKind::Launch;
};

/**
 * A time-ordered event queue. Events scheduled for the same tick
 * fire in scheduling order (FIFO), which keeps runs deterministic.
 */
class EventQueue
{
  public:
    /** Time of the last event popped (0 before the first). */
    Time now() const { return now_; }

    bool empty() const { return heap_.empty(); }

    /** The next event to fire. Requires !empty(). */
    const Event &top() const { return heap_.front(); }

    /**
     * Schedule an event at an absolute time. An event in the past
     * (when < now()) would fire out of order and corrupt causality,
     * so it panics with both timestamps in the message.
     */
    void
    push(Time when, std::uint32_t node, EventKind kind)
    {
        if (when < now_)
            panic("EventQueue: scheduling into the past (", when, " < ",
                  now_, ")");
        heap_.push_back(Event{when, nextSeq_++, node, kind});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Remove the next event and advance now() to it. */
    Event
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const Event event = heap_.back();
        heap_.pop_back();
        now_ = event.when;
        return event;
    }

  private:
    static bool
    later(const Event &a, const Event &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    std::vector<Event> heap_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** Outcome of runDataflow. */
struct DataflowRun
{
    Time makespan = 0;           ///< last completion, or the deadline
    std::uint64_t completed = 0; ///< nodes whose completion fired
    bool finished = true;        ///< false if the deadline cut it off
};

/**
 * Run a dependence graph through an EventQueue: each node launches
 * once all its predecessors have completed. Root launches are events
 * at t = 0, queued first, so they all fire before any completion; a
 * completion launches its newly ready successors inline, in
 * graph.succs() order.
 *
 * @param graph    has numNodes(), roots(), preds(n).size(), succs(n)
 * @param launch   launch(node, now) starts the node's gate at `now`
 *                 and returns its completion time
 * @param deadline when > 0, only events at times <= deadline fire
 */
template <typename Graph, typename Launch>
DataflowRun
runDataflow(const Graph &graph, Launch &&launch, Time deadline = 0)
{
    const auto n = static_cast<std::uint32_t>(graph.numNodes());
    std::vector<std::uint32_t> missing(n);
    for (std::uint32_t i = 0; i < n; ++i)
        missing[i] = static_cast<std::uint32_t>(graph.preds(i).size());

    EventQueue queue;
    for (std::uint32_t root : graph.roots())
        queue.push(0, root, EventKind::Launch);

    DataflowRun run;
    while (!queue.empty()) {
        if (deadline > 0 && queue.top().when > deadline) {
            run.finished = false;
            run.makespan = std::max(run.makespan, deadline);
            break;
        }
        const Event event = queue.pop();
        if (event.kind == EventKind::Launch) {
            queue.push(launch(event.node, event.when), event.node,
                       EventKind::Complete);
            continue;
        }
        run.makespan = std::max(run.makespan, event.when);
        ++run.completed;
        for (std::uint32_t succ : graph.succs(event.node)) {
            if (--missing[succ] == 0)
                queue.push(launch(succ, event.when), succ,
                           EventKind::Complete);
        }
    }
    return run;
}

} // namespace qc

#endif // QC_SIM_EVENT_LOOP_HH
