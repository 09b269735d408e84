#include "api/ArchModel.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/EventLoop.hh"

namespace qc {

ArchRunResult
ArchModel::run(const DataflowGraph &graph,
               const EncodedOpModel &model,
               const MicroarchConfig &config) const
{
    const auto &gates = graph.circuit().gates();
    const std::unique_ptr<ArchExecution> exec =
        prepare(graph, model, config);
    ArchRunResult &result = exec->result;

    result.makespan = runDataflow(graph, [&](NodeId node, Time now) {
        const Gate &g = gates[node];
        // Movement/cache bookkeeping first: it determines the QEC
        // site whose bank the ancilla claim goes to.
        const Time overhead = exec->moveOverhead(g);
        result.zerosConsumed +=
            static_cast<std::uint64_t>(model.zeroAncillae(g));
        result.pi8Consumed +=
            static_cast<std::uint64_t>(model.pi8Ancillae(g));
        const Time start = std::max(now, exec->ancillaReady(g, now));
        Time latency = overhead + model.dataLatency(g);
        if (model.needsQec(g.kind))
            latency += model.qecInteractLatency();
        return start + latency;
    }).makespan;
    return result;
}

ArchRegistry &
ArchRegistry::instance()
{
    static ArchRegistry registry = [] {
        ArchRegistry r;
        registerBuiltinArchModels(r);
        return r;
    }();
    return registry;
}

void
ArchRegistry::add(const std::string &key,
                  std::shared_ptr<const ArchModel> model)
{
    models_[key] = std::move(model);
}

bool
ArchRegistry::contains(const std::string &key) const
{
    return models_.count(key) > 0;
}

std::vector<std::string>
ArchRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(models_.size());
    for (const auto &[key, model] : models_)
        out.push_back(key);
    return out;
}

const ArchModel &
ArchRegistry::get(const std::string &key) const
{
    const auto it = models_.find(key);
    if (it == models_.end()) {
        std::string message = "unknown architecture \"" + key
            + "\"; registered architectures:";
        for (const std::string &k : keys())
            message += " " + k;
        throw std::invalid_argument(message);
    }
    return *it->second;
}

} // namespace qc
