/**
 * @file
 * The sweep engine's view of a persistent result cache: fetch a
 * previously computed result for a (runner, config) identity,
 * publish a newly computed one, and make the publishes durable.
 * HoardStore (src/hoard/) is the one production implementation;
 * the engine deliberately sees only this interface so the sweep
 * layer never includes hoard headers — the module DAG runs sweep
 * -> hoard via dependency injection at the CLI, not via an include
 * edge (enforced by qclint's layering rule against
 * tools/layers.json).
 */

#ifndef QC_SWEEP_RESULT_CACHE_HH
#define QC_SWEEP_RESULT_CACHE_HH

#include <string>

#include "api/Json.hh"

namespace qc {

class ResultCache
{
  public:
    virtual ~ResultCache() = default;

    /**
     * Read-through lookup. On a valid hit, assigns the stored
     * result and returns true; any invalid or absent entry is a
     * miss. Must be thread-safe: the engine calls it from pool
     * workers. A hit must be byte-identical to cold computation of
     * the same point — the engine folds it into the aggregated
     * document without re-validation.
     */
    virtual bool fetch(const std::string &runner, const Json &config,
                       Json &result) = 0;

    /**
     * Publish a computed result (write-behind). Returns true if a
     * new entry was written; false for duplicates and for results
     * the cache refuses (e.g. {"error": ...}). Thread-safe.
     */
    virtual bool store(const std::string &runner, const Json &config,
                       const Json &result) = 0;

    /**
     * Make every entry stored so far durable. store() may publish
     * without syncing to disk; the engine calls flush() once,
     * after the last store and before its final checkpoint.
     * Default: nothing to do.
     */
    virtual void flush() {}
};

} // namespace qc

#endif // QC_SWEEP_RESULT_CACHE_HH
