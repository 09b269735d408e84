/**
 * @file
 * The parallel sweep executor: expands a SweepSpec, memoizes
 * duplicate points by configuration hash, runs the unique points on
 * a work-stealing thread pool, and aggregates the results into one
 * JSON document in deterministic (expansion) order.
 *
 * Output is bit-identical for a given spec regardless of thread
 * count: results land in expansion-order slots, the memo cache is
 * computed from the point list (not the schedule), and nothing
 * wall-clock-dependent enters the document. Wall time and thread
 * count are reported out-of-band in the SweepReport.
 *
 * Document shape (BENCH_*.json-compatible: flat metric keys per
 * point under a "points" array):
 *
 *     {
 *       "schema_version": 2,
 *       "sweep": "<spec name>",
 *       "runner": "<runner key>",
 *       ...runner metadata ("engine": ...),
 *       "spec": { ...the spec itself, for provenance... },
 *       "grid_points": N,
 *       "cache": {"hits": H, "misses": M},
 *       "points": [ {<axis assignments> + <runner metrics>}, ... ]
 *     }
 */

#ifndef QC_SWEEP_SWEEP_ENGINE_HH
#define QC_SWEEP_SWEEP_ENGINE_HH

#include <cstddef>
#include <functional>

#include "sweep/ResultCache.hh"
#include "sweep/SweepRunner.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

/** One progress tick, delivered serially (under the engine lock). */
struct SweepProgress
{
    std::size_t done = 0;  ///< points finished (cache hits included)
    std::size_t total = 0; ///< expanded point count
    /** The point that just finished. */
    const SweepPoint *point = nullptr;
    bool cached = false;   ///< satisfied from the memo cache
    bool resumed = false;  ///< satisfied from the resume document
    bool hoarded = false;  ///< satisfied from the hoard cache
};

/** Execution knobs; the spec itself stays machine-independent. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency().
     *  Results are independent of this value. */
    int threads = 1;

    /** Progress sink; called serially, may be empty. */
    std::function<void(const SweepProgress &)> progress;

    /**
     * A previous sweep output to resume from (`qcarch sweep
     * --resume`): points whose configuration already appears in it
     * — matched by the full canonical config of the resume
     * document's own spec expansion, with the stored config_hash
     * cross-checked — are served from the stored results instead
     * of re-executing. Stored points carrying an {"error": ...}
     * are re-run. The aggregated document is byte-identical to a
     * fresh single-shot run of the same spec: resume accounting is
     * reported only out-of-band in SweepReport. The document must
     * come from the same runner (and engine version); malformed or
     * truncated documents throw std::invalid_argument. Not owned;
     * must outlive runSweep.
     */
    const Json *resume = nullptr;

    /**
     * Crash durability: when non-empty, the engine periodically
     * writes the aggregated document to this path during the run
     * (atomic write-then-rename, so a kill never leaves torn
     * JSON). Not-yet-computed points are recorded as
     * {"error": "interrupted: ..."} stubs, which a later `resume`
     * of the same file re-runs — so a killed sweep restarts from
     * exactly the points it finished. `qcarch sweep --out X`
     * checkpoints to X. The final checkpoint is the final
     * document, written once: SweepReport::written tells the
     * caller whether it still has to write it.
     */
    std::string checkpointPath;

    /** Minimum seconds between checkpoint writes (0 = write after
     *  every completed point). */
    double checkpointSeconds = 5.0;

    /**
     * Graceful-drain hook, polled between points (a running point
     * always completes). When it returns true the pool stops
     * taking new work, a final checkpoint is written (pending
     * points as "interrupted" stubs a later resume re-runs), and
     * runSweep returns with SweepReport::interrupted counting the
     * undone points. `qcarch sweep` wires its SIGINT/SIGTERM flag
     * here. May be empty.
     */
    std::function<bool()> stopRequested;

    /**
     * Optional persistent result cache (`qcarch sweep --hoard`,
     * docs/HOARD.md). When set, each unique point is first looked
     * up in the cache (read-through, from the pool workers) and
     * each newly computed non-error result is published back
     * (write-behind). Hits are byte-identical to cold computation
     * by construction — the stored object is the runner's own
     * metrics JSON — so the document never depends on the cache
     * state. The production implementation is HoardStore, injected
     * by the CLI; the engine sees only the ResultCache interface.
     * The engine calls its flush() once, after the pool drains and
     * before the final checkpoint. Not owned; must outlive
     * runSweep. Thread-safe.
     */
    ResultCache *hoard = nullptr;
};

/** Outcome of one sweep run. */
struct SweepReport
{
    Json doc;                   ///< the aggregated document
    std::size_t points = 0;     ///< expanded point count
    std::size_t cacheHits = 0;  ///< points served from the memo
    std::size_t cacheMisses = 0;///< unique points (memo misses)
    std::size_t resumed = 0;    ///< unique points from the resume doc
    /** Unique points actually run (hoard hits excluded). */
    std::size_t executed = 0;
    std::size_t failed = 0;     ///< points that threw (see "error")
    /** Unique points served from the hoard cache. */
    std::size_t hoardHits = 0;
    /** Newly computed points published to the hoard cache. */
    std::size_t hoardStored = 0;
    /** Unique points left undone by a stopRequested drain; the doc
     *  holds "interrupted" stubs for them (0 = ran to completion). */
    std::size_t interrupted = 0;
    /** The final checkpoint wrote doc to checkpointPath: the file
     *  holds exactly doc.dump(2) + "\n". False without a path, for
     *  a path the engine will not replace (not a regular file) and
     *  for a failed write. */
    bool written = false;
    double wallSeconds = 0;     ///< not part of doc (determinism)
};

/**
 * Expand and execute a sweep. Spec-shape problems (unknown runner
 * or axis fields, zip mismatches), zero-point specs and malformed
 * resume documents throw std::invalid_argument; per-point
 * execution errors are recorded on the point as {"error": message}
 * and counted in SweepReport::failed.
 */
SweepReport runSweep(const SweepSpec &spec,
                     const SweepOptions &options = {});

} // namespace qc

#endif // QC_SWEEP_SWEEP_ENGINE_HH
