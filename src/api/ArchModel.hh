/**
 * @file
 * Polymorphic microarchitecture models behind one shared
 * event-driven dataflow executor (the paper's Section 5.2
 * "event-based simulation of ancilla factory production and data
 * qubit gate consumption").
 *
 * An ArchModel describes where encoded ancillae come from and what
 * data movement costs; the base class owns the executor loop that
 * walks the dataflow graph in dependence order. Each run creates a
 * fresh ArchExecution carrying the model's per-run state (generator
 * banks, compute cache, token pools) and counters.
 *
 * Models register by string key in ArchRegistry ("qla", "gqla",
 * "cqla", "gcqla", "fma"); the key is the only way to pick one.
 *
 * Unknown keys throw std::invalid_argument listing the registered
 * keys.
 */

#ifndef QC_API_ARCH_MODEL_HH
#define QC_API_ARCH_MODEL_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/Microarch.hh"
#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"

namespace qc {

/**
 * Per-run state and policy hooks of one microarchitecture run. The
 * executor calls moveOverhead() then ancillaReady() for each gate,
 * in that order — models that route the ancilla claim to the site
 * chosen by movement (the cached architectures) rely on it.
 */
class ArchExecution
{
  public:
    virtual ~ArchExecution() = default;

    /**
     * Movement / cache latency (ns) charged before the gate
     * executes. Implementations update their movement counters in
     * result.
     */
    virtual Time moveOverhead(const Gate &gate) = 0;

    /**
     * Earliest simulated time (ns) the gate's encoded ancillae are
     * delivered to its QEC site, given the launch attempt at `now`.
     */
    virtual Time ancillaReady(const Gate &gate, Time now) = 0;

    /** Counters and outcome, updated by the hooks and executor. */
    ArchRunResult result;
};

/**
 * One microarchitecture model. Stateless and shareable: all per-run
 * state lives in the ArchExecution returned by prepare().
 */
class ArchModel
{
  public:
    virtual ~ArchModel() = default;

    /** Display name (paper style: "QLA", "Fully-Multiplexed"). */
    virtual std::string name() const = 0;

    /**
     * Build the per-run state (banks, cache, pools) and charge the
     * configuration's ancilla-generation area to result.
     */
    virtual std::unique_ptr<ArchExecution>
    prepare(const DataflowGraph &graph, const EncodedOpModel &model,
            const MicroarchConfig &config) const = 0;

    /**
     * Run one dataflow graph to completion: the shared event-driven
     * executor, identical for every model. The EncodedOpModel must
     * already be at the config's code level (the facade builds it
     * from ConcatenatedSteane::effectiveTech); times in the result
     * are ns, areas macroblocks.
     */
    ArchRunResult run(const DataflowGraph &graph,
                      const EncodedOpModel &model,
                      const MicroarchConfig &config) const;
};

/**
 * Process-wide registry of microarchitecture models. Built-in
 * models (defined in arch/Microarch.cc) self-register on first use.
 */
class ArchRegistry
{
  public:
    static ArchRegistry &instance();

    /** Register (or replace) a model under a lookup key. */
    void add(const std::string &key,
             std::shared_ptr<const ArchModel> model);

    bool contains(const std::string &key) const;

    /** Registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Look up a model; throws std::invalid_argument on unknowns. */
    const ArchModel &get(const std::string &key) const;

  private:
    std::map<std::string, std::shared_ptr<const ArchModel>> models_;
};

/**
 * Registers the five built-in models (defined in arch/Microarch.cc;
 * called once by ArchRegistry::instance).
 */
void registerBuiltinArchModels(ArchRegistry &registry);

} // namespace qc

#endif // QC_API_ARCH_MODEL_HH
