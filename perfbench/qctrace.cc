/**
 * @file
 * qctrace: the benchmark's traced CLI. It computes nothing of its
 * own: it calls the library's public functions and times those calls
 * from outside, keeps every span in memory, and writes them when it
 * exits.
 *
 *   qctrace sweep SPEC --threads N --out DOC --trace TRACE [--hoard DIR]
 *
 *       runSweep over SPEC, exactly as `qcarch sweep SPEC --threads N
 *       --out DOC [--hoard DIR] --quiet` runs it, with two timing
 *       decorators: a SweepRunner registered over every built-in
 *       runner (spans "sweep.point" and, for experiment points, the
 *       SweepContext::workload call it makes before delegating) and,
 *       with --hoard, a ResultCache around HoardStore (spans
 *       "hoard.fetch" and "hoard.store"). DOC must be byte-identical
 *       to qcarch's.
 *
 *   qctrace stages SPEC --trace TRACE [--hoard DIR]
 *
 *       For every distinct workload and point of SPEC, calls the
 *       pipeline's stage functions directly in pipeline order:
 *       workload build with a fresh FowlerSynth, the same build with
 *       the now-warm synthesizer, the dataflow graph, the speed-of-
 *       data analytics, factory allocation, then the throttled run or
 *       ArchModel::run; Monte Carlo points call BatchAncillaSim. With
 *       --hoard only the hoard read path runs (each point's stored
 *       object is parsed), since that is all a warm sweep executes.
 *
 * TRACE is Chrome trace-event JSON ("traceEvents", times in us, one
 * "X" event per span with its id and the id of the span that caused
 * it in "args"), plus "counters" and "synth_searches" (the
 * FowlerSynth::Options of every build that ran rotation synthesis).
 * Open it in any trace-event viewer.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/Qc.hh"
#include "codes/ConcatenatedCode.hh"
#include "error/BatchAncillaSim.hh"
#include "factory/ConcatenatedFactory.hh"
#include "hoard/Hoard.hh"
#include "layout/Builders.hh"
#include "sweep/Sweep.hh"

namespace {

using namespace qc;

using SteadyClock = std::chrono::steady_clock;

struct SpanRecord
{
    std::string name;
    double start = 0; ///< seconds since the tracer started
    double end = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no enclosing span
    std::uint64_t tid = 0;
    bool failed = false; ///< left by an exception
    Json args = Json::object();
};

class Tracer
{
  public:
    double
    now() const
    {
        return std::chrono::duration<double>(SteadyClock::now() - t0_)
            .count();
    }

    std::uint64_t nextId() { return next_.fetch_add(1); }

    std::uint64_t
    threadIndex()
    {
        thread_local const std::uint64_t mine = threads_.fetch_add(1);
        return mine;
    }

    void
    add(SpanRecord span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    void
    count(const std::string &name, double delta)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_[name] += delta;
    }

    void
    searched(const std::string &options)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        searches_.push_back(options);
    }

    /** Spans recorded so far; call only once every worker joined. */
    std::vector<SpanRecord> &spans() { return spans_; }

    void write(const std::string &path) const;

  private:
    SteadyClock::time_point t0_ = SteadyClock::now();
    std::atomic<std::uint64_t> next_{1};
    std::atomic<std::uint64_t> threads_{0};
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::map<std::string, double> counters_;
    std::vector<std::string> searches_;
};

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

thread_local std::uint64_t tCurrentSpan = 0;

/** One timed call; nests under the span open on the same thread. */
class Span
{
  public:
    explicit Span(std::string name)
    {
        record_.name = std::move(name);
        record_.id = tracer().nextId();
        record_.parent = tCurrentSpan;
        record_.tid = tracer().threadIndex();
        tCurrentSpan = record_.id;
        record_.start = tracer().now();
    }

    ~Span()
    {
        record_.end = tracer().now();
        record_.failed = std::uncaught_exceptions() > exceptions_;
        tCurrentSpan = record_.parent;
        tracer().add(std::move(record_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void arg(const std::string &key, Json value)
    {
        record_.args.set(key, std::move(value));
    }

    double elapsed() const { return tracer().now() - record_.start; }

  private:
    SpanRecord record_;
    int exceptions_ = std::uncaught_exceptions();
};

std::string
quoted(const std::string &text)
{
    return Json(text).dump(0);
}

void
Tracer::write(const std::string &path) const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const SpanRecord &s : spans_) {
        Json args = s.args;
        args.set("id", s.id);
        args.set("parent", s.parent);
        if (s.failed)
            args.set("failed", true);
        out << (first ? "\n" : ",\n") << "{\"name\": " << quoted(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << s.start * 1e6
            << ", \"dur\": " << (s.end - s.start) * 1e6
            << ", \"args\": " << args.dump(0) << "}";
        first = false;
    }
    out << "\n], \"counters\": {";
    first = true;
    for (const auto &[name, value] : counters_) {
        out << (first ? "" : ", ") << quoted(name) << ": " << value;
        first = false;
    }
    out << "}, \"synth_searches\": [";
    first = true;
    for (const std::string &options : searches_) {
        out << (first ? "" : ", ") << quoted(options);
        first = false;
    }
    out << "]}\n";
    std::ofstream file(path);
    file << out.str();
    if (!file)
        throw std::runtime_error("cannot write trace " + path);
}

// ----------------------------------------------------------------
// sweep: runSweep behind timing decorators.
// ----------------------------------------------------------------

/** Delegates every call to a built-in runner, timing each point. */
class TracingRunner final : public SweepRunner
{
  public:
    explicit TracingRunner(const SweepRunner &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    std::string
    description() const override
    {
        return inner_.description();
    }

    std::vector<std::string>
    fields() const override
    {
        return inner_.fields();
    }

    Json metadata() const override { return inner_.metadata(); }

    Json
    runPoint(const Json &config, SweepContext &context) const override
    {
        Span point("sweep.point");
        if (inner_.name() == "experiment") {
            // Time the shared-workload lookup before delegating: the
            // first caller per key builds, the others block until it
            // is done. The inner runner's own lookup then hits the
            // finished entry.
            const ExperimentConfig c = ExperimentConfig::fromJson(config);
            Span lookup("sweep.workload");
            lookup.arg("key", c.workloadKey());
            context.workload(c);
        }
        return inner_.runPoint(config, context);
    }

  private:
    const SweepRunner &inner_;
};

/** Times HoardStore's read-through and write-behind calls. */
class TimingCache final : public ResultCache
{
  public:
    explicit TimingCache(ResultCache &inner) : inner_(inner) {}

    bool
    fetch(const std::string &runner, const Json &config,
          Json &result) override
    {
        Span span("hoard.fetch");
        const bool hit = inner_.fetch(runner, config, result);
        span.arg("hit", hit);
        return hit;
    }

    bool
    store(const std::string &runner, const Json &config,
          const Json &result) override
    {
        Span span("hoard.store");
        const bool stored = inner_.store(runner, config, result);
        span.arg("stored", stored);
        return stored;
    }

  private:
    ResultCache &inner_;
};

/** Registers a TracingRunner over every built-in runner key. */
void
wrapBuiltinRunners()
{
    // The originals live in a registry of their own for the life of
    // the process; the global registry's entries are replaced.
    static SweepRunnerRegistry originals;
    registerBuiltinSweepRunners(originals);
    for (const std::string &key : originals.keys()) {
        SweepRunnerRegistry::instance().add(
            key, std::make_shared<const TracingRunner>(
                     originals.get(key)));
    }
}

/**
 * Splits the "sweep.workload" spans into the one call per key that
 * built the workload (the earliest to start) and the calls that
 * waited for it or found it built.
 */
void
classifyWorkloadSpans(std::vector<SpanRecord> &spans)
{
    std::map<std::string, SpanRecord *> firstCall;
    for (SpanRecord &s : spans) {
        if (s.name != "sweep.workload")
            continue;
        const std::string key = s.args.getString("key", "");
        SpanRecord *&first = firstCall[key];
        if (!first || s.start < first->start)
            first = &s;
    }
    for (SpanRecord &s : spans) {
        if (s.name == "sweep.workload")
            s.name = firstCall[s.args.getString("key", "")] == &s
                ? "sweep.workload_build"
                : "sweep.workload_wait";
    }
}

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : bytes;
}

SweepSpec
loadSpec(const std::string &path)
{
    Span span("api.json_parse");
    tracer().count("api.json_bytes",
                   static_cast<double>(fileBytes(path)));
    return SweepSpec::load(path);
}

int
cmdSweep(const std::string &specPath, int threads,
         const std::string &out, const std::string &hoardDir)
{
    wrapBuiltinRunners();
    const SweepSpec spec = loadSpec(specPath);
    SweepOptions options;
    options.threads = threads;
    options.checkpointPath = out;
    std::optional<HoardStore> hoard;
    std::optional<TimingCache> timing;
    if (!hoardDir.empty()) {
        hoard.emplace(hoardDir);
        timing.emplace(*hoard);
        options.hoard = &*timing;
    }
    SweepReport report;
    {
        Span run("sweep.run");
        run.arg("threads", threads);
        report = runSweep(spec, options);
    }
    {
        Span dump("api.json_dump");
        report.doc.saveFile(out);
    }
    tracer().count("api.json_bytes",
                   static_cast<double>(fileBytes(out)));
    tracer().count("sweep.points", static_cast<double>(report.points));
    tracer().count("sweep.failed", static_cast<double>(report.failed));
    tracer().count("sweep.threads", threads);
    if (hoard) {
        const HoardCounters c = hoard->counters();
        tracer().count("hoard.hits", static_cast<double>(c.hits));
        tracer().count("hoard.misses", static_cast<double>(c.misses));
        tracer().count("hoard.stored", static_cast<double>(c.stores));
        tracer().count("hoard.quarantined",
                       static_cast<double>(c.quarantined));
    }
    classifyWorkloadSpans(tracer().spans());
    return report.failed == 0 ? 0 : 1;
}

// ----------------------------------------------------------------
// stages: the pipeline's stage functions, called one by one.
// ----------------------------------------------------------------

struct BuiltWorkload
{
    SharedWorkload shared;
    std::uint64_t gates = 0;
};

std::string
synthOptionsKey(const FowlerSynth::Options &o)
{
    Json j = Json::object();
    j.set("maxSyllables", o.maxSyllables);
    j.set("maxError", o.maxError);
    j.set("pureHT", o.pureHT);
    j.set("tCostWeight", o.tCostWeight);
    return j.dump(0);
}

BuiltWorkload
buildStages(const ExperimentConfig &c)
{
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    FowlerSynth synth(c.synth);
    std::optional<Workload> workload;
    double cold = 0;
    double warm = 0;
    {
        Span span("synth.build_cold");
        workload.emplace(registry.build(c.workload, synth, c.params));
        cold = span.elapsed();
    }
    {
        // The same build again: every rotation now hits the
        // synthesizer's memo, so the difference is the search.
        Span span("kernels.build");
        const Workload again = registry.build(c.workload, synth, c.params);
        warm = span.elapsed();
    }
    tracer().count("synth.rotz_s", std::max(0.0, cold - warm));
    const GateCensus high = workload->highLevel.census();
    if (high.of(GateKind::RotZ) + high.of(GateKind::CRotZ) > 0)
        tracer().searched(synthOptionsKey(c.synth));

    BuiltWorkload built;
    built.gates = workload->lowered.circuit.census().total;
    tracer().count("kernels.gates", static_cast<double>(built.gates));
    {
        Span span("circuit.graph");
        built.shared = makeSharedWorkload(std::move(*workload));
    }
    tracer().count("circuit.graph_nodes",
                   static_cast<double>(built.shared.graph->numNodes()));
    return built;
}

/** Experiment::run's stages for one point, as qc::Experiment orders
 *  them (uncalibrated factories: the benchmark specs use no other). */
void
pointStages(const ExperimentConfig &c, const Json &config,
            const BuiltWorkload &built)
{
    if (c.calibrateFactories)
        throw std::invalid_argument(
            "stages: calibrated factories are not mirrored");
    ConcatenatedSteane::validateLevel(c.codeLevel);
    const DataflowGraph &graph = *built.shared.graph;
    const EncodedOpModel model(
        ConcatenatedSteane::effectiveTech(c.tech, c.codeLevel));

    BandwidthSummary bandwidth;
    {
        Span span("arch.sod");
        const LatencySplit split = latencySplit(graph, model);
        bandwidth = bandwidthAtSpeedOfData(graph, model);
        const std::vector<double> profile = ancillaDemandProfile(
            graph, model,
            static_cast<std::size_t>(std::max(1, c.demandBins)));
        span.arg("profile_bins", static_cast<std::uint64_t>(profile.size()));
        span.arg("total_ns", static_cast<double>(split.total()));
    }

    FactoryAllocation allocation;
    BandwidthPerMs zeroUnit = 0;
    {
        Span span("factory.alloc");
        if (c.codeLevel >= 2) {
            const Level2ZeroFactory zero(c.tech);
            const Level2Pi8Factory pi8(c.tech);
            allocation = allocateForBandwidthLevel2(
                zero, pi8, bandwidth.zeroPerMs(), bandwidth.pi8PerMs());
            zeroUnit = zero.throughput();
        } else {
            const ZeroFactory zero(c.tech);
            const Pi8Factory pi8(c.tech);
            allocation = allocateForBandwidth(
                zero, pi8, bandwidth.zeroPerMs(), bandwidth.pi8PerMs());
            zeroUnit = zero.throughput();
        }
    }

    switch (c.schedule) {
      case ScheduleMode::SpeedOfData:
        break;
      case ScheduleMode::Throttled: {
        // The experiment runner's supply rules: a fraction of the
        // workload's own speed-of-data bandwidth, else the given
        // rate, else what the provisioned factories deliver.
        const double fraction =
            config.getDouble("zeroPerMsOfAverage", 0.0);
        const BandwidthPerMs rate = fraction > 0
            ? bandwidth.zeroPerMs() * fraction
            : c.zeroPerMs > 0
            ? c.zeroPerMs
            : std::ceil(allocation.zeroFactoriesForQec) * zeroUnit;
        Span span("arch.throttled");
        const ThrottledResult run = throttledRun(
            graph, model, rate, c.pi8PerMs, c.timeLimit);
        tracer().count("arch.throttled_gates",
                       static_cast<double>(run.gatesExecuted));
        break;
      }
      case ScheduleMode::Arch: {
        const ArchModel &arch = ArchRegistry::instance().get(c.arch);
        Span span("arch.run." + c.arch);
        const ArchRunResult run =
            arch.run(graph, model, c.microarchConfig());
        span.arg("makespan_ns", static_cast<double>(run.makespan));
        tracer().count("arch.gates", static_cast<double>(built.gates));
        break;
      }
    }
}

struct McStrategy
{
    const char *key;
    const char *metric; ///< span name suffix
    ZeroPrepStrategy strategy;
    bool pi8;
};

// The mc-prep runner's strategy table (src/sweep/SweepRunner.cc).
constexpr McStrategy kMcStrategies[] = {
    {"basic", "basic", ZeroPrepStrategy::Basic, false},
    {"verify_only", "verify_only", ZeroPrepStrategy::VerifyOnly, false},
    {"correct_only", "correct_only", ZeroPrepStrategy::CorrectOnly,
     false},
    {"verify_and_correct", "verify_and_correct",
     ZeroPrepStrategy::VerifyAndCorrect, false},
    {"pi8_conversion", "pi8", ZeroPrepStrategy::VerifyAndCorrect, true},
};

void
mcStages(const Json &config)
{
    const std::string key = config.getString("strategy", "basic");
    const McStrategy *strategy = nullptr;
    for (const McStrategy &s : kMcStrategies) {
        if (key == s.key)
            strategy = &s;
    }
    if (!strategy)
        throw std::invalid_argument("unknown strategy " + key);
    ErrorParams errors;
    errors.pGate = config.getDouble("pGate", errors.pGate);
    errors.pMove = config.getDouble("pMove", errors.pMove);
    const std::string semanticsKey =
        config.getString("semantics", "discard_on_syndrome");
    if (semanticsKey != "apply_fix"
        && semanticsKey != "discard_on_syndrome")
        throw std::invalid_argument("unknown semantics " + semanticsKey);
    const CorrectionSemantics semantics =
        semanticsKey == "apply_fix" ? CorrectionSemantics::ApplyFix
                                    : CorrectionSemantics::DiscardOnSyndrome;
    BatchSimConfig batch;
    batch.wordsPerQubit = static_cast<int>(
        config.getInt("wordsPerQubit", batch.wordsPerQubit));
    batch.threads = 1;
    if (!simd::parseWidth(config.getString("width", "auto"),
                          &batch.width))
        throw std::invalid_argument("unknown width");
    static const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    BatchAncillaSim sim(
        errors, movement,
        static_cast<std::uint64_t>(config.getInt("seed", 20080623)),
        semantics, batch);

    if (config.getString("sampler", "naive") == "stratified") {
        ImportanceConfig ic;
        ic.maxFaults =
            static_cast<int>(config.getInt("maxFaults", ic.maxFaults));
        ic.trialsPerStratum = static_cast<std::uint64_t>(config.getInt(
            "trialsPerStratum",
            static_cast<std::int64_t>(ic.trialsPerStratum)));
        Span span("error.stratified");
        const StratifiedEstimate est = strategy->pi8
            ? sim.estimateStratifiedPi8(ic)
            : sim.estimateStratified(strategy->strategy, ic);
        tracer().count("error.stratified_trials",
                       static_cast<double>(est.totalTrials));
        return;
    }
    const std::uint64_t trials =
        static_cast<std::uint64_t>(config.getInt("trials", 400000));
    const std::string metric = std::string("error.") + strategy->metric;
    Span span(metric);
    const PrepEstimate est = strategy->pi8
        ? sim.estimatePi8(trials)
        : sim.estimate(strategy->strategy, trials);
    tracer().count(metric + ".trials", static_cast<double>(est.trials));
    // Verification and correction attempts, and the ones kept.
    const std::uint64_t attempted = est.verifyTrials + est.correctionTrials;
    tracer().count("error.attempted", static_cast<double>(attempted));
    tracer().count("error.accepted",
                   static_cast<double>(attempted - est.discards
                                       - est.correctionDiscards));
}

int
cmdStages(const std::string &specPath, const std::string &hoardDir)
{
    const SweepSpec spec = loadSpec(specPath);
    const std::vector<SweepPoint> points = spec.expand();
    if (!hoardDir.empty()) {
        const HoardStore hoard(hoardDir);
        for (const SweepPoint &p : points) {
            const std::string path = hoard.objectPath(
                HoardStore::keyFor(spec.runner, p.config));
            tracer().count("api.json_bytes",
                           static_cast<double>(fileBytes(path)));
            Span span("api.json_parse");
            const Json object = Json::loadFile(path);
            span.arg("keys", static_cast<std::uint64_t>(object.size()));
        }
        return 0;
    }
    if (spec.runner == "mc-prep") {
        for (const SweepPoint &p : points)
            mcStages(p.config);
        return 0;
    }
    if (spec.runner != "experiment")
        throw std::invalid_argument("stages: no stage list for runner "
                                    + spec.runner);
    std::map<std::string, BuiltWorkload> built;
    for (const SweepPoint &p : points) {
        const ExperimentConfig c = ExperimentConfig::fromJson(p.config);
        auto it = built.find(c.workloadKey());
        if (it == built.end())
            it = built.emplace(c.workloadKey(), buildStages(c)).first;
        pointStages(c, p.config, it->second);
    }
    return 0;
}

int
usage()
{
    std::cerr << "usage: qctrace sweep SPEC --threads N --out DOC "
                 "--trace TRACE [--hoard DIR]\n"
                 "       qctrace stages SPEC --trace TRACE "
                 "[--hoard DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    const std::string spec = argv[2];
    std::map<std::string, std::string> flags;
    for (int i = 3; i + 1 < argc; i += 2)
        flags[argv[i]] = argv[i + 1];
    if ((argc - 3) % 2 != 0 || !flags.count("--trace"))
        return usage();
    try {
        int status = 0;
        if (command == "sweep") {
            if (!flags.count("--threads") || !flags.count("--out"))
                return usage();
            status = cmdSweep(spec, std::stoi(flags["--threads"]),
                              flags["--out"], flags["--hoard"]);
        } else if (command == "stages") {
            status = cmdStages(spec, flags["--hoard"]);
        } else {
            return usage();
        }
        tracer().write(flags["--trace"]);
        return status;
    } catch (const std::exception &e) {
        std::cerr << "qctrace: " << e.what() << "\n";
        return 1;
    }
}
