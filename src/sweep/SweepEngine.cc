#include "sweep/SweepEngine.hh"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/DurableFile.hh"
#include "common/Mutex.hh"
#include "sweep/SweepPlan.hh"
#include "sweep/WorkStealingPool.hh"

namespace qc {

namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * The engine's shared mutable state during the parallel phase:
 * result slots, checkpoint writes and progress ticks, serialized
 * under one annotated mutex. Pool workers call commit(); the main
 * thread calls finalDocument()/replayTick() after the pool has
 * drained (still through the lock — cheap, and it keeps the
 * annotations unconditional).
 *
 * Checkpoint-before-tick ordering is part of the engine contract:
 * `qcarch sweep`'s crash-at-point fault relies on the K-th executed
 * point being durably checkpointed before its progress tick fires.
 */
class PointSink
{
  public:
    PointSink(SweepAssembler &assembler, const SweepPlan &plan,
              const SweepOptions &options,
              std::string checkpointPath,
              SteadyClock::time_point start)
        : assembler_(&assembler), plan_(plan), options_(options),
          checkpointPath_(std::move(checkpointPath)),
          lastCheckpoint_(start)
    {
    }

    /** Lands one executed result: slot write, periodic checkpoint,
     *  progress tick — atomically with respect to other commits.
     *  `published` marks results newly written to the hoard. */
    void commit(std::size_t index, Json result, bool failed,
                bool published = false) QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        assembler_->setResult(index, std::move(result), failed);
        if (published)
            ++hoardStored_;
        checkpoint();
        tick(index, /*cached=*/false, /*resumed=*/false,
             /*hoarded=*/false);
    }

    /** Lands a result served from the hoard cache (read-through
     *  hit): identical to commit() except for accounting and the
     *  progress flag — the document cannot tell them apart. */
    void commitHoarded(std::size_t index, Json result)
        QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        assembler_->setResult(index, std::move(result),
                              /*failed=*/false);
        ++hoardHits_;
        checkpoint();
        tick(index, /*cached=*/false, /*resumed=*/false,
             /*hoarded=*/true);
    }

    std::size_t hoardHits() const QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return hoardHits_;
    }

    std::size_t hoardStored() const QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return hoardStored_;
    }

    /** The end-of-run checkpoint: builds the final document (or,
     *  after a drain, a resumable one) once, writes it to the
     *  checkpoint path and returns it. `written` tells whether the
     *  file now holds it. */
    Json finalDocument(bool &written) QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        Json doc = assembler_->document();
        written = write(doc);
        return doc;
    }

    /** Progress tick for a point satisfied without executing
     *  (memo duplicate or resume replay). */
    void replayTick(std::size_t index, bool cached, bool resumed)
        QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        tick(index, cached, resumed, /*hoarded=*/false);
    }

  private:
    /** A periodic checkpoint, at most every checkpointSeconds.
     *  Finished results are write-once, so snapshotting the
     *  document under the lock is race-free. */
    void checkpoint() QC_REQUIRES(mutex_)
    {
        if (checkpointPath_.empty())
            return;
        const auto now = SteadyClock::now();
        if (std::chrono::duration<double>(now - lastCheckpoint_)
                .count()
            < options_.checkpointSeconds)
            return;
        lastCheckpoint_ = now;
        write(assembler_->document());
    }

    /**
     * Crash durability: atomically AND durably replace the
     * checkpoint file — the temp file and its directory are
     * fsync'd around the rename, so neither a kill nor a power
     * loss can leave a torn or empty-but-renamed checkpoint.
     * Best-effort: a failed write leaves the previous checkpoint,
     * the sweep carries on, and false tells the caller.
     */
    bool write(const Json &doc) QC_REQUIRES(mutex_)
    {
        if (checkpointPath_.empty())
            return false;
        try {
            writeFileDurable(checkpointPath_, doc.dump(2) + "\n");
            return true;
        } catch (const std::exception &) {
            return false;
        }
    }

    void tick(std::size_t index, bool cached, bool resumed,
              bool hoarded) QC_REQUIRES(mutex_)
    {
        if (!options_.progress)
            return;
        SweepProgress progress;
        progress.done = ++done_;
        progress.total = plan_.points.size();
        progress.point = &plan_.points[index];
        progress.cached = cached;
        progress.resumed = resumed;
        progress.hoarded = hoarded;
        options_.progress(progress);
    }

    mutable Mutex mutex_;
    SweepAssembler *const assembler_ QC_PT_GUARDED_BY(mutex_);
    const SweepPlan &plan_;
    const SweepOptions &options_;
    const std::string checkpointPath_;
    SteadyClock::time_point lastCheckpoint_ QC_GUARDED_BY(mutex_);
    std::size_t done_ QC_GUARDED_BY(mutex_) = 0;
    std::size_t hoardHits_ QC_GUARDED_BY(mutex_) = 0;
    std::size_t hoardStored_ QC_GUARDED_BY(mutex_) = 0;
};

/**
 * Checkpoints replace the target wholesale (write-then-rename),
 * which would clobber a device node, pipe or symlink handed in as
 * the output path (`--out /dev/null`): only checkpoint onto a
 * regular file or a not-yet-existing path.
 */
std::string
safeCheckpointPath(const std::string &requested)
{
    if (requested.empty())
        return requested;
    std::error_code ec;
    const std::filesystem::file_status status =
        std::filesystem::symlink_status(requested, ec);
    if (!ec && std::filesystem::exists(status)
        && !std::filesystem::is_regular_file(status))
        return "";
    return requested;
}

} // namespace

SweepReport
runSweep(const SweepSpec &spec, const SweepOptions &options)
{
    const auto t0 = SteadyClock::now();

    // The assembler owns expansion, dedup, resume replay and
    // document aggregation — the same layer `qcarch serve` builds
    // its merged document through, which is why the two paths are
    // byte-identical by construction.
    SweepAssembler assembler(spec);
    const SweepPlan &plan = assembler.plan();
    if (options.resume)
        assembler.applyResume(*options.resume);
    const std::vector<std::size_t> toRun = assembler.pending();

    SweepReport report;
    report.points = plan.points.size();
    report.cacheMisses = plan.unique.size();
    report.cacheHits = plan.points.size() - plan.unique.size();
    report.resumed = assembler.resumedCount();
    report.executed = toRun.size();

    SweepContext context;
    PointSink sink(assembler, plan, options,
                   safeCheckpointPath(options.checkpointPath), t0);

    WorkStealingPool pool(options.threads);
    pool.run(
        toRun.size(),
        [&](std::size_t task) {
            const std::size_t index = toRun[task];
            // Read-through: a valid hoard object replaces the
            // computation outright. The stored result is the
            // runner's own metrics JSON, so the document is
            // byte-identical either way.
            if (options.hoard) {
                Json stored;
                if (options.hoard->fetch(
                        spec.runner, plan.points[index].config,
                        stored)) {
                    sink.commitHoarded(index, std::move(stored));
                    return;
                }
            }
            Json result;
            bool failed = false;
            try {
                result = assembler.runner().runPoint(
                    plan.points[index].config, context);
            } catch (const std::exception &e) {
                result = Json::object();
                result.set("error", e.what());
                failed = true;
            }
            // Write-behind: publish before the commit tick so the
            // crash-at-point fault (which fires inside the tick)
            // proves "ticked ⇒ both checkpointed and hoarded".
            bool published = false;
            if (options.hoard && !failed) {
                published = options.hoard->store(
                    spec.runner, plan.points[index].config,
                    result);
            }
            sink.commit(index, std::move(result), failed,
                        published);
        },
        options.stopRequested);
    // One durability barrier for every object this session
    // published, before the checkpoint that records them done.
    if (options.hoard)
        options.hoard->flush();
    // The final checkpoint is the document: built, serialized and
    // written once. After a requested stop this is the "final
    // checkpoint" the drain contract promises: every finished
    // point saved, every pending point a resumable stub.
    report.doc = sink.finalDocument(report.written);
    report.interrupted = assembler.pending().size();
    std::vector<char> wasRun(plan.points.size(), 0);
    for (std::size_t index : toRun)
        wasRun[index] = 1;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const std::size_t canon = plan.canonical[i];
        if (canon != i)
            sink.replayTick(i, /*cached=*/true,
                            assembler.replayed(canon));
        else if (!wasRun[i])
            sink.replayTick(i, /*cached=*/false, /*resumed=*/true);
    }
    report.failed = assembler.failedPoints();
    report.hoardHits = sink.hoardHits();
    report.hoardStored = sink.hoardStored();
    report.executed -= report.hoardHits;
    report.wallSeconds =
        std::chrono::duration<double>(SteadyClock::now() - t0)
            .count();
    return report;
}

} // namespace qc
