/**
 * @file
 * Tests for the sweep subsystem: SweepSpec parsing and expansion
 * (cartesian order, zipped axes, grid unions, bad-field errors
 * listing the valid fields), the config-hash memoization cache's
 * hit/miss accounting, thread-count invariance of the aggregated
 * JSON, runner parity with the direct engines, and the shipped
 * specs under specs/.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/Qc.hh"
#include "error/BatchAncillaSim.hh"
#include "layout/Builders.hh"
#include "sweep/Sweep.hh"
#include "sweep/WorkStealingPool.hh"

namespace qc {
namespace {

Json
parse(const std::string &text)
{
    return Json::parse(text);
}

// ---------------------------------------------------------------
// SweepSpec parsing and expansion
// ---------------------------------------------------------------

TEST(SweepSpec, ExpandsCartesianProductLastAxisFastest)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [
        {"field": "pGate", "values": [1e-5, 1e-4]},
        {"field": "pMove", "values": [1e-7, 1e-6, 1e-5]}
      ]
    })"));
    EXPECT_EQ(spec.points(), 6u);

    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    // Nested-loop order: pMove (last axis) varies fastest.
    EXPECT_DOUBLE_EQ(points[0].config.at("pGate").asDouble(), 1e-5);
    EXPECT_DOUBLE_EQ(points[0].config.at("pMove").asDouble(), 1e-7);
    EXPECT_DOUBLE_EQ(points[1].config.at("pMove").asDouble(), 1e-6);
    EXPECT_DOUBLE_EQ(points[2].config.at("pMove").asDouble(), 1e-5);
    EXPECT_DOUBLE_EQ(points[3].config.at("pGate").asDouble(), 1e-4);
    EXPECT_DOUBLE_EQ(points[3].config.at("pMove").asDouble(), 1e-7);
    // The base rides along on every point.
    EXPECT_EQ(points[5].config.at("trials").asInt(), 1000);
    // The assignment records only the axis fields.
    EXPECT_FALSE(points[0].assignment.has("trials"));
    EXPECT_TRUE(points[0].assignment.has("pGate"));
}

TEST(SweepSpec, ZippedAxesAdvanceTogether)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "axes": [
        {"zip": [
          {"field": "arch", "values": ["qla", "gqla", "gqla"]},
          {"field": "generatorsPerSite", "values": [1, 2, 4]}
        ]},
        {"field": "workload", "values": ["qrca", "qft"]}
      ]
    })"));
    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    // (qla,1), (gqla,2), (gqla,4) each crossed with two workloads.
    EXPECT_EQ(points[0].config.at("arch").asString(), "qla");
    EXPECT_EQ(points[0].config.at("generatorsPerSite").asInt(), 1);
    EXPECT_EQ(points[0].config.at("workload").asString(), "qrca");
    EXPECT_EQ(points[1].config.at("workload").asString(), "qft");
    EXPECT_EQ(points[2].config.at("arch").asString(), "gqla");
    EXPECT_EQ(points[2].config.at("generatorsPerSite").asInt(), 2);
    EXPECT_EQ(points[4].config.at("generatorsPerSite").asInt(), 4);
}

TEST(SweepSpec, ZipLengthMismatchThrows)
{
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "axes": [
        {"zip": [
          {"field": "arch", "values": ["qla", "gqla"]},
          {"field": "generatorsPerSite", "values": [1, 2, 4]}
        ]}
      ]
    })")),
                 std::invalid_argument);
}

TEST(SweepSpec, GridsConcatenateAndMergeBases)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"bits": 8, "errors": {"pGate": 1e-4}},
      "grids": [
        {"axes": [{"field": "workload", "values": ["qrca"]}]},
        {"base": {"schedule": "arch", "errors": {"pMove": 1e-6}},
         "axes": [{"field": "workload",
                   "values": ["qrca", "qft"]}]}
      ]
    })"));
    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_FALSE(points[0].config.has("schedule"));
    EXPECT_EQ(points[1].config.at("schedule").asString(), "arch");
    // Nested objects merge key-by-key, not wholesale.
    EXPECT_DOUBLE_EQ(
        points[1].config.at("errors").at("pGate").asDouble(), 1e-4);
    EXPECT_DOUBLE_EQ(
        points[1].config.at("errors").at("pMove").asDouble(), 1e-6);
    EXPECT_EQ(points[2].config.at("bits").asInt(), 8);
}

TEST(SweepSpec, UnknownFieldListsValidFields)
{
    try {
        SweepSpec::fromJson(parse(R"({
          "runner": "experiment",
          "axes": [{"field": "pGait", "values": [1]}]
        })"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("pGait"), std::string::npos);
        EXPECT_NE(message.find("valid fields"), std::string::npos);
        EXPECT_NE(message.find("errors.pGate"), std::string::npos);
        EXPECT_NE(message.find("workload"), std::string::npos);
    }
}

TEST(SweepSpec, UnknownBaseKeyFailsFastToo)
{
    // A typo in the base must not silently sweep at the default
    // value; base keys get the same validation as axis fields.
    try {
        SweepSpec::fromJson(parse(R"({
          "runner": "mc-prep",
          "base": {"pgate": 1e-3},
          "axes": [{"field": "pMove", "values": [1e-6]}]
        })"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("pgate"), std::string::npos);
        EXPECT_NE(message.find("valid fields"), std::string::npos);
    }
    // Nested base objects validate by dotted path.
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"synth": {"maxSillables": 4}},
      "axes": [{"field": "bits", "values": [8]}]
    })")),
                 std::invalid_argument);
}

TEST(SweepSpec, UnknownRunnerListsRegisteredRunners)
{
    try {
        SweepSpec::fromJson(
            parse(R"({"runner": "quantum-vibes"})"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("quantum-vibes"), std::string::npos);
        EXPECT_NE(message.find("experiment"), std::string::npos);
        EXPECT_NE(message.find("mc-prep"), std::string::npos);
    }
}

TEST(SweepSpec, UnknownSpecOrGridKeysThrow)
{
    // "axis" instead of "axes" must not silently collapse the
    // sweep to a bare-base one-point run.
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"runner": "mc-prep",
                         "axis": [{"field": "pGate",
                                   "values": [1e-4]}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"grids": [{"axees": []}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({"grids": [1]})")),
                 std::invalid_argument);
}

TEST(SweepSpec, MalformedAxesThrow)
{
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [{"values": [1]}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [{"field": "bits",
                          "values": []}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [1], "grids": []})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [], "grids": []})")),
                 std::invalid_argument);
}

TEST(SweepSpec, JsonRoundTrips)
{
    const Json doc = parse(R"({
      "name": "trip",
      "runner": "experiment",
      "base": {"bits": 8},
      "grids": [
        {"axes": [{"field": "workload", "values": ["qrca"]}]},
        {"base": {"schedule": "arch"},
         "axes": [{"zip": [
            {"field": "arch", "values": ["qla", "cqla"]},
            {"field": "cacheSlots", "values": [1, 24]}]}]}
      ]
    })");
    const SweepSpec spec = SweepSpec::fromJson(doc);
    const SweepSpec back = SweepSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.toJson(), spec.toJson());
    EXPECT_EQ(back.points(), spec.points());
}

TEST(SweepSpec, SetJsonPathCreatesNestedObjects)
{
    Json j = Json::object();
    setJsonPath(j, "errors.pGate", Json(1e-3));
    setJsonPath(j, "errors.pMove", Json(1e-5));
    setJsonPath(j, "bits", Json(16));
    EXPECT_DOUBLE_EQ(j.at("errors").at("pGate").asDouble(), 1e-3);
    EXPECT_DOUBLE_EQ(j.at("errors").at("pMove").asDouble(), 1e-5);
    EXPECT_EQ(j.at("bits").asInt(), 16);
}

// ---------------------------------------------------------------
// Config hash hooks
// ---------------------------------------------------------------

TEST(ConfigHash, DistinguishesConfigsAndIgnoresKeyOrder)
{
    ExperimentConfig a;
    ExperimentConfig b;
    EXPECT_EQ(a.hash(), b.hash());
    b.errors.pGate = 2e-4;
    EXPECT_NE(a.hash(), b.hash());

    // Json::hash is order-insensitive by construction (sorted
    // keys).
    EXPECT_EQ(parse(R"({"a": 1, "b": 2})").hash(),
              parse(R"({"b": 2, "a": 1})").hash());
    EXPECT_NE(parse(R"({"a": 1})").hash(), parse(R"({"a": 2})").hash());
}

TEST(ConfigHash, WorkloadKeyCoversOnlyWorkloadIdentity)
{
    ExperimentConfig a;
    ExperimentConfig b;
    b.schedule = ScheduleMode::Arch;
    b.errors.pGate = 9e-4;
    EXPECT_EQ(a.workloadKey(), b.workloadKey());
    b.params.bits = 12;
    EXPECT_NE(a.workloadKey(), b.workloadKey());
}

// ---------------------------------------------------------------
// Engine: memoization, determinism, error capture
// ---------------------------------------------------------------

/** A degenerate axis with repeated values: 4 points, 2 unique. */
SweepSpec
duplicateSpec()
{
    return SweepSpec::fromJson(parse(R"({
      "name": "dupes",
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7},
      "axes": [
        {"field": "pGate",
         "values": [1e-4, 3e-4, 1e-4, 3e-4]}
      ]
    })"));
}

TEST(SweepEngine, MemoizesDuplicatePointsByConfigHash)
{
    const SweepReport report = runSweep(duplicateSpec());
    EXPECT_EQ(report.points, 4u);
    EXPECT_EQ(report.cacheMisses, 2u);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_EQ(report.failed, 0u);

    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 4u);
    // Duplicates share the hash and the full result.
    EXPECT_EQ(points.at(0).at("config_hash"),
              points.at(2).at("config_hash"));
    EXPECT_EQ(points.at(0).at("error_rate"),
              points.at(2).at("error_rate"));
    EXPECT_NE(points.at(0).at("config_hash"),
              points.at(1).at("config_hash"));
    // And the accounting lands in the document.
    EXPECT_EQ(report.doc.at("cache").at("hits").asInt(), 2);
    EXPECT_EQ(report.doc.at("cache").at("misses").asInt(), 2);
}

TEST(SweepEngine, AggregatedJsonIsThreadCountInvariant)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "threads",
      "runner": "mc-prep",
      "base": {"trials": 50000, "seed": 11},
      "axes": [
        {"field": "strategy",
         "values": ["basic", "verify_and_correct"]},
        {"field": "pGate", "values": [1e-4, 3e-4, 1e-3]}
      ]
    })"));
    SweepOptions one;
    one.threads = 1;
    SweepOptions four;
    four.threads = 4;
    const std::string a = runSweep(spec, one).doc.dump();
    const std::string b = runSweep(spec, four).doc.dump();
    EXPECT_EQ(a, b);
}

TEST(SweepEngine, ExperimentSweepIsThreadCountInvariant)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "exp-threads",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3}},
      "axes": [
        {"field": "schedule",
         "values": ["speed-of-data", "arch"]},
        {"field": "codeLevel", "values": [1, 2]}
      ]
    })"));
    SweepOptions one;
    one.threads = 1;
    SweepOptions four;
    four.threads = 4;
    const std::string a = runSweep(spec, one).doc.dump();
    const std::string b = runSweep(spec, four).doc.dump();
    EXPECT_EQ(a, b);
}

TEST(SweepEngine, PointErrorsAreCapturedNotFatal)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [
        {"field": "strategy", "values": ["basic", "bogus"]}
      ]
    })"));
    const SweepReport report = runSweep(spec);
    EXPECT_EQ(report.failed, 1u);
    const Json &points = report.doc.at("points");
    EXPECT_FALSE(points.at(0).has("error"));
    EXPECT_TRUE(points.at(1).has("error"));
    EXPECT_NE(points.at(1).at("error").asString().find("bogus"),
              std::string::npos);
}

/** Runs a one-axis experiment sweep whose second value is bad. */
void
expectSecondPointFails(const std::string &base, const std::string &field,
                       const std::string &values, const std::string &what)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(
        R"({"runner": "experiment", "base": )" + base
        + R"(, "axes": [{"field": ")" + field + R"(", "values": )"
        + values + "}]}"));
    const SweepReport report = runSweep(spec);
    EXPECT_EQ(report.failed, 1u);
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 2u);
    EXPECT_FALSE(points.at(0).has("error"));
    ASSERT_TRUE(points.at(1).has("error"));
    EXPECT_NE(points.at(1).at("error").asString().find(what),
              std::string::npos)
        << points.at(1).at("error").asString();
}

TEST(SweepEngine, BadSynthOptionsAreCapturedNotFatal)
{
    expectSecondPointFails(R"({"workload": "qft", "bits": 4})",
                           "synth.maxSyllables", "[3, 12]", "maxSyllables");
}

TEST(SweepEngine, ZeroWidthKernelsAreCapturedNotFatal)
{
    expectSecondPointFails(R"({"workload": "qrca"})", "bits", "[8, 0]",
                           "makeQrca");
    expectSecondPointFails(R"({"workload": "qcla"})", "bits", "[8, 0]",
                           "makeQcla");
    expectSecondPointFails(
        R"({"workload": "qft", "synth": {"maxSyllables": 3}})", "bits",
        "[4, 0]", "makeQft");
}

TEST(SweepEngine, NegativeTechLatenciesAreCapturedNotFatal)
{
    expectSecondPointFails(R"({"workload": "qrca", "bits": 8})",
                           "tech.t1q_ns", "[10, -5]", "tech.t1q_ns");
}

TEST(SweepEngine, OutOfRangeDemandBinsAreCapturedNotFatal)
{
    for (const char *bad : {"0", "-1", "1000000000"}) {
        expectSecondPointFails(R"({"workload": "qrca", "bits": 8})",
                               "demandBins",
                               std::string("[40, ") + bad + "]",
                               "demandBins");
    }
}

TEST(SweepEngine, OutOfRangeArchFieldsAreCapturedNotFatal)
{
    // The model that reads each value refuses it, rather than
    // clamping it, reading it as unbounded supply, or replacing it
    // with the derived latency.
    const struct
    {
        const char *arch;
        const char *field;
        const char *values;
    } cases[] = {
        {"gqla", "generatorsPerSite", "[1, 0]"},
        {"gqla", "generatorsPerSite", "[1, -1]"},
        {"gcqla", "generatorsPerSite", "[1, 0]"},
        {"cqla", "cacheSlots", "[24, 1]"},
        {"cqla", "cacheSlots", "[24, -1]"},
        {"fma", "areaBudget", "[3000, 0]"},
        {"fma", "areaBudget", "[3000, -5]"},
        {"qla", "teleport_ns", "[0, -5]"},
        {"cqla", "teleport_ns", "[0, -5]"},
        {"fma", "teleport_ns", "[0, -5]"},
        {"fma", "tileSize", "[16, -1]"},
        {"fma", "tileSize", "[16, 4294967296]"},
    };
    for (const auto &c : cases) {
        expectSecondPointFails(
            std::string(R"({"workload": "qrca", "bits": 8, )"
                        R"("schedule": "arch", "arch": ")")
                + c.arch + "\"}",
            c.field, c.values, c.field);
    }
}

TEST(SweepEngine, AllZeroTechIsCapturedNotFatal)
{
    // An all-zero `tech` gives the dedicated generators of the four
    // banked models a zero period (it used to abort the process)
    // and every factory unit a zero latency. Each point is refused
    // on its own, and the paper-tech points beside them come out
    // as they do alone.
    const std::string head = R"({"runner": "experiment",
      "base": {"workload": "qrca", "bits": 4, "schedule": "arch"},
      "axes": [{"field": "arch",
                "values": ["qla", "gqla", "cqla", "gcqla", "fma"]},
               {"zip": [)";
    std::string zeroAndPaper;
    std::string paperOnly;
    const std::pair<const char *, int> latencies[] = {
        {"t1q_ns", 1000},   {"t2q_ns", 10000}, {"tmeas_ns", 50000},
        {"tprep_ns", 51000}, {"tmove_ns", 1000}, {"tturn_ns", 10000}};
    for (const auto &[field, paper] : latencies) {
        const std::string sep = zeroAndPaper.empty() ? "" : ", ";
        const std::string axis =
            R"({"field": "tech.)" + std::string(field)
            + R"(", "values": [)";
        zeroAndPaper +=
            sep + axis + "0, " + std::to_string(paper) + "]}";
        paperOnly += sep + axis + std::to_string(paper) + "]}";
    }
    const SweepReport mixed = runSweep(
        SweepSpec::fromJson(parse(head + zeroAndPaper + "]}]}")));
    const SweepReport alone = runSweep(
        SweepSpec::fromJson(parse(head + paperOnly + "]}]}")));
    EXPECT_EQ(mixed.failed, 5u);
    EXPECT_EQ(alone.failed, 0u);
    const Json &points = mixed.doc.at("points");
    ASSERT_EQ(points.size(), 10u);
    for (std::size_t arch = 0; arch < 5; ++arch) {
        const Json &zero = points.at(2 * arch);
        ASSERT_TRUE(zero.has("error"));
        EXPECT_NE(zero.at("error").asString().find("tech.*_ns"),
                  std::string::npos)
            << zero.at("error").asString();
        EXPECT_EQ(points.at(2 * arch + 1).dump(),
                  alone.doc.at("points").at(arch).dump());
    }
}

TEST(SweepEngine, OutOfRangeErrorRatesAreCapturedNotFatal)
{
    for (const char *field : {"errors.pGate", "errors.pMove"}) {
        for (const char *bad : {"2", "-1"}) {
            expectSecondPointFails(
                R"({"workload": "qrca", "bits": 8})", field,
                std::string("[0.0001, ") + bad + "]", field);
        }
    }
    // The mc-prep runner reads the same two rates.
    for (const char *field : {"pGate", "pMove"}) {
        const SweepReport report = runSweep(SweepSpec::fromJson(parse(
            R"({"runner": "mc-prep", "base": {"trials": 2000},
                "axes": [{"field": ")"
            + std::string(field) + R"(", "values": [0.0001, 2, -1]}]})")));
        EXPECT_EQ(report.failed, 2u) << field;
        const Json &points = report.doc.at("points");
        EXPECT_FALSE(points.at(0).has("error")) << field;
        for (std::size_t i : {1u, 2u}) {
            ASSERT_TRUE(points.at(i).has("error")) << field;
            EXPECT_NE(points.at(i).at("error").asString().find(field),
                      std::string::npos);
        }
    }
}

TEST(SweepEngine, ProgressReportsEveryPointOnce)
{
    std::size_t calls = 0;
    std::size_t cached = 0;
    std::size_t lastDone = 0;
    SweepOptions options;
    options.progress = [&](const SweepProgress &p) {
        ++calls;
        cached += p.cached ? 1 : 0;
        lastDone = p.done;
        EXPECT_EQ(p.total, 4u);
        ASSERT_NE(p.point, nullptr);
    };
    runSweep(duplicateSpec(), options);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(cached, 2u);
    EXPECT_EQ(lastDone, 4u);
}

// ---------------------------------------------------------------
// Runners: parity with the direct engines
// ---------------------------------------------------------------

TEST(SweepRunners, McPrepPointMatchesDirectBatchSim)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 100000, "seed": 20080623,
               "strategy": "verify_and_correct",
               "pGate": 3e-4, "pMove": 1e-6}
    })"));
    const SweepReport report = runSweep(spec);
    ASSERT_EQ(report.points, 1u);
    const Json &point = report.doc.at("points").at(0);

    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    ErrorParams errors;
    errors.pGate = 3e-4;
    BatchAncillaSim sim(errors, movement, 20080623);
    const PrepEstimate est =
        sim.estimate(ZeroPrepStrategy::VerifyAndCorrect, 100000);
    EXPECT_DOUBLE_EQ(point.at("error_rate").asDouble(),
                     est.errorRate());
    EXPECT_DOUBLE_EQ(point.at("verify_fail_rate").asDouble(),
                     est.discardRate());
    EXPECT_FALSE(point.at("paper_point").asBool());
}

TEST(SweepRunners, McPrepStratifiedPointMatchesDirectSampler)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"sampler": "stratified", "maxFaults": 3,
               "trialsPerStratum": 5000, "seed": 20080623,
               "strategy": "verify_and_correct",
               "pGate": 1e-5, "pMove": 1e-7}
    })"));
    const SweepReport report = runSweep(spec);
    ASSERT_EQ(report.points, 1u);
    const Json &point = report.doc.at("points").at(0);

    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    ErrorParams errors;
    errors.pGate = 1e-5;
    errors.pMove = 1e-7;
    BatchAncillaSim sim(errors, movement, 20080623);
    ImportanceConfig config;
    config.maxFaults = 3;
    config.trialsPerStratum = 5000;
    const StratifiedEstimate est = sim.estimateStratified(
        ZeroPrepStrategy::VerifyAndCorrect, config);
    const Interval ci = est.errorInterval();
    EXPECT_DOUBLE_EQ(point.at("error_rate").asDouble(),
                     est.errorRate());
    EXPECT_DOUBLE_EQ(point.at("ci_lo").asDouble(), ci.lo);
    EXPECT_DOUBLE_EQ(point.at("ci_hi").asDouble(), ci.hi);
    EXPECT_EQ(point.at("gate_sites").asInt(),
              static_cast<std::int64_t>(est.gateSites));
    EXPECT_EQ(point.at("move_sites").asInt(),
              static_cast<std::int64_t>(est.moveSites));
    EXPECT_DOUBLE_EQ(point.at("truncated_prior").asDouble(),
                     est.truncatedPrior);
}

TEST(SweepRunners, McPrepForcedWidthMatchesAutoByteForByte)
{
    // The runner deliberately omits the width from its output:
    // every width is bit-identical, so the serialized report must
    // not change when one is forced.
    const char *base = R"({
      "runner": "mc-prep",
      "base": {"trials": 50000, "seed": 7,
               "strategy": "basic", "pGate": 1e-3%s}
    })";
    char autoSpec[512], forcedSpec[512];
    std::snprintf(autoSpec, sizeof autoSpec, base, "");
    std::snprintf(forcedSpec, sizeof forcedSpec, base,
                  ", \"width\": \"scalar-fallback\"");
    const SweepReport a =
        runSweep(SweepSpec::fromJson(parse(autoSpec)));
    const SweepReport b =
        runSweep(SweepSpec::fromJson(parse(forcedSpec)));
    const Json &pa = a.doc.at("points").at(0);
    const Json &pb = b.doc.at("points").at(0);
    // Every result key is identical; only the config hash (which
    // covers the width field itself) may differ.
    for (const auto &[key, value] : pa.items()) {
        if (key == "config_hash")
            continue;
        ASSERT_TRUE(pb.has(key)) << key;
        EXPECT_EQ(value.dump(), pb.at(key).dump()) << key;
    }
    EXPECT_EQ(pa.items().size(), pb.items().size());
}

TEST(SweepRunners, McPrepRejectsUnknownSamplerAndWidth)
{
    // Per-point failures surface as an "error" key on the point,
    // not as an exception out of the engine.
    const SweepReport badSampler =
        runSweep(SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 10, "sampler": "metropolis"}
    })")));
    const Json &p0 = badSampler.doc.at("points").at(0);
    ASSERT_TRUE(p0.has("error"));
    EXPECT_NE(p0.at("error").asString().find("sampler"),
              std::string::npos);

    const SweepReport badWidth =
        runSweep(SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 10, "width": "wide"}
    })")));
    const Json &p1 = badWidth.doc.at("points").at(0);
    ASSERT_TRUE(p1.has("error"));
    EXPECT_NE(p1.at("error").asString().find("width"),
              std::string::npos);
}

TEST(SweepRunners, ExperimentPointMatchesRunExperiment)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3}},
      "axes": [{"field": "codeLevel", "values": [1, 2]}]
    })"));
    const SweepReport report = runSweep(spec);
    const Json &points = report.doc.at("points");

    ExperimentConfig config;
    config.workload = "qrca";
    config.params.bits = 8;
    config.synth.maxSyllables = 3;
    for (std::size_t i = 0; i < 2; ++i) {
        config.codeLevel = static_cast<int>(i) + 1;
        const Result expected = runExperiment(config);
        const Json &point = points.at(i);
        EXPECT_DOUBLE_EQ(point.at("makespan_ms").asDouble(),
                         toMs(expected.makespan));
        EXPECT_DOUBLE_EQ(point.at("klops").asDouble(),
                         expected.klops());
        EXPECT_DOUBLE_EQ(point.at("factory_area").asDouble(),
                         expected.allocation.totalArea());
    }
}

TEST(SweepRunners, FullExperimentPointIsTheRunDocument)
{
    // One source of truth: an "experiment-full" point is exactly
    // the `qcarch run` document (Result::toJson) plus the point's
    // axis keys and config hash, with the result winning on
    // collisions ("workload" becomes the display name).
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment-full",
      "base": {"bits": 8, "synth": {"maxSyllables": 3}},
      "axes": [{"field": "workload", "values": ["qrca", "qcla"]},
               {"field": "demandBins", "values": [5, 40]}]
    })"));
    const SweepReport report = runSweep(spec);
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 4u);
    const std::vector<SweepPoint> expanded = spec.expand();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &point = points.at(i);
        Json expected = Json::object();
        for (const auto &[key, value] : expanded[i].assignment.items())
            expected.set(key, value);
        const Json document =
            runExperiment(ExperimentConfig::fromJson(expanded[i].config))
                .toJson();
        for (const auto &[key, value] : document.items())
            expected.set(key, value);
        expected.set("config_hash", point.at("config_hash"));
        EXPECT_EQ(point.dump(), expected.dump()) << i;
    }
    EXPECT_EQ(points.at(1).at("demand_profile").size(), 40u);

    const SweepRunnerRegistry &registry = SweepRunnerRegistry::instance();
    EXPECT_EQ(registry.get("experiment-full").fields(),
              registry.get("experiment").fields());
}

TEST(SweepRunners, ZeroPerMsOfAverageThrottlesRelativeToWorkload)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3},
               "schedule": "throttled"},
      "axes": [{"field": "zeroPerMsOfAverage",
                "values": [0.25, 100.0]}]
    })"));
    const SweepReport report = runSweep(spec);
    const Json &points = report.doc.at("points");
    const double starved =
        points.at(0).at("makespan_ms").asDouble();
    const double flooded =
        points.at(1).at("makespan_ms").asDouble();
    // The flooded run sits at the speed-of-data plateau; the
    // starved run pays for the supply gap.
    EXPECT_GT(starved, 3.0 * flooded);
    EXPECT_GT(points.at(0).at("slowdown").asDouble(), 3.0);
    EXPECT_NEAR(points.at(1).at("slowdown").asDouble(), 1.0, 0.35);
    EXPECT_GT(points.at(1).at("zero_supply_per_ms").asDouble(),
              points.at(0).at("zero_supply_per_ms").asDouble());
}

TEST(SweepRunners, ZeroPerMsOfAverageIsExactFractionOfSpeedOfData)
{
    // The Figure 8 yardstick, pinned bit for bit: each point's
    // supply is its fraction of the workload's own speed-of-data
    // zero bandwidth, and the point is exactly the throttled
    // experiment at that supply.
    const double fractions[] = {0.125, 0.75, 4.0};
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qcla", "bits": 8,
               "synth": {"maxSyllables": 3},
               "schedule": "throttled"},
      "axes": [{"field": "zeroPerMsOfAverage",
                "values": [0.125, 0.75, 4.0]}]
    })"));
    const SweepReport report = runSweep(spec);
    ASSERT_EQ(report.failed, 0u);
    const Json &points = report.doc.at("points");

    ExperimentConfig config;
    config.workload = "qcla";
    config.params.bits = 8;
    config.synth.maxSyllables = 3;
    const BandwidthPerMs average =
        runExperiment(config).bandwidth.zeroPerMs();
    config.schedule = ScheduleMode::Throttled;
    for (std::size_t i = 0; i < 3; ++i) {
        const Json &point = points.at(i);
        config.zeroPerMs = fractions[i] * average;
        EXPECT_EQ(point.at("zero_supply_per_ms").asDouble(),
                  config.zeroPerMs)
            << "fraction " << fractions[i];
        EXPECT_EQ(point.at("makespan_ms").asDouble(),
                  toMs(runExperiment(config).makespan))
            << "fraction " << fractions[i];
    }
}

TEST(SweepRunners, ZeroPerMsOfAverageRejectsNonThrottledSchedule)
{
    // The fraction knob must not silently override a conflicting
    // schedule axis; the point records the error instead.
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3},
               "zeroPerMsOfAverage": 0.5},
      "axes": [{"field": "schedule",
                "values": ["arch", "throttled"]}]
    })"));
    const SweepReport report = runSweep(spec);
    EXPECT_EQ(report.failed, 1u);
    const Json &points = report.doc.at("points");
    EXPECT_TRUE(points.at(0).has("error"));
    EXPECT_NE(points.at(0).at("error").asString().find("throttled"),
              std::string::npos);
    EXPECT_FALSE(points.at(1).has("error"));
}

TEST(SweepRunners, NegativeThrottledKnobsAreCapturedNotFatal)
{
    // Each of these used to read as "unset" or "unbounded".
    const std::string base = R"({"workload": "qrca", "bits": 6,
                                 "schedule": "throttled"})";
    expectSecondPointFails(base, "zeroPerMs", "[5, -5]", "zeroPerMs");
    expectSecondPointFails(base, "pi8PerMs", "[5, -5]", "pi8PerMs");
    expectSecondPointFails(base, "zeroPerMsOfAverage", "[0.5, -0.5]",
                           "zeroPerMsOfAverage");
    expectSecondPointFails(base, "timeLimit_ns", "[1000, -1000]",
                           "timeLimit_ns");
}

TEST(SweepRunners, NanZeroPerMsOfAverageIsCapturedNotFatal)
{
    // JSON text cannot spell NaN, but a spec built in code can.
    Json base = parse(R"({"workload": "qrca", "bits": 6,
                          "schedule": "throttled"})");
    base.set("zeroPerMsOfAverage",
             std::numeric_limits<double>::quiet_NaN());
    Json spec = Json::object();
    spec.set("runner", "experiment");
    spec.set("base", base);
    const SweepReport report = runSweep(SweepSpec::fromJson(spec));
    EXPECT_EQ(report.failed, 1u);
    const Json &point = report.doc.at("points").at(0);
    ASSERT_TRUE(point.has("error"));
    EXPECT_NE(point.at("error").asString().find("zeroPerMsOfAverage"),
              std::string::npos)
        << point.at("error").asString();
}

TEST(SweepRunners, WrappingIntFieldsAreCapturedNotFatal)
{
    // 4294967297 = 2^32 + 1 used to narrow to 1 and run.
    expectSecondPointFails(R"({"workload": "qrca", "bits": 4,
                               "schedule": "arch", "arch": "gqla"})",
                           "generatorsPerSite", "[2, 4294967297]",
                           "generatorsPerSite");
    expectSecondPointFails(R"({"workload": "qrca"})", "bits",
                           "[4, 4294967300]", "bits");
}

// ---------------------------------------------------------------
// Resume: interrupted sweeps restart incrementally and the merged
// document is byte-identical to a fresh single-shot run.
// ---------------------------------------------------------------

namespace resume_specs {

const char *kHalf = R"({
  "name": "resume",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 7},
  "axes": [
    {"field": "strategy", "values": ["basic"]},
    {"field": "pGate", "values": [1e-4, 3e-4]}
  ]
})";

const char *kFull = R"({
  "name": "resume",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 7},
  "axes": [
    {"field": "strategy", "values": ["basic", "verify_only"]},
    {"field": "pGate", "values": [1e-4, 3e-4]}
  ]
})";

} // namespace resume_specs

TEST(SweepResume, HalfRunThenResumeIsByteIdenticalToFreshRun)
{
    // "Interrupt at half": run the first half of the grid as its
    // own sweep, then hand its output to the full sweep as the
    // resume document.
    const SweepSpec half =
        SweepSpec::fromJson(parse(resume_specs::kHalf));
    const SweepSpec full =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const SweepReport halfReport = runSweep(half);

    SweepOptions options;
    options.resume = &halfReport.doc;
    const SweepReport resumed = runSweep(full, options);
    const SweepReport fresh = runSweep(full);

    EXPECT_EQ(resumed.doc.dump(), fresh.doc.dump());
    // Memo/skip accounting: 2 of the 4 unique points came from the
    // file, the other 2 executed; the memo split is unchanged.
    EXPECT_EQ(resumed.points, 4u);
    EXPECT_EQ(resumed.resumed, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    EXPECT_EQ(resumed.cacheMisses, 4u);
    EXPECT_EQ(fresh.resumed, 0u);
    EXPECT_EQ(fresh.executed, 4u);
    // The resumed document carries no trace of the resume (it is
    // byte-identical), and documents declare their schema.
    EXPECT_EQ(resumed.doc.at("schema_version").asInt(),
              kResultSchemaVersion);
}

TEST(SweepResume, FullResumeExecutesNothing)
{
    const SweepSpec full =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const SweepReport fresh = runSweep(full);
    SweepOptions options;
    options.resume = &fresh.doc;
    const SweepReport resumed = runSweep(full, options);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.resumed, 4u);
    EXPECT_EQ(resumed.doc.dump(), fresh.doc.dump());
}

TEST(SweepResume, CheckpointFileResumesAKilledRun)
{
    // A genuinely killed run leaves only the checkpoint file. With
    // checkpointSeconds = 0 and one thread, the file after point 2
    // is exactly the "killed half-way" state: two finished points,
    // two {"error": "interrupted"} stubs. Resuming from it must
    // execute exactly the stubs and reproduce the fresh document
    // byte-for-byte.
    const SweepSpec full =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const std::string path =
        ::testing::TempDir() + "qc_sweep_checkpoint.json";
    SweepOptions options;
    options.threads = 1;
    options.checkpointPath = path;
    options.checkpointSeconds = 0;
    Json killed;
    options.progress = [&](const SweepProgress &p) {
        if (p.done == 2)
            killed = Json::loadFile(path);
    };
    const SweepReport fresh = runSweep(full, options);

    ASSERT_TRUE(killed.isObject());
    std::size_t interrupted = 0;
    for (std::size_t i = 0; i < killed.at("points").size(); ++i)
        interrupted += killed.at("points").at(i).has("error");
    EXPECT_EQ(interrupted, 2u);

    SweepOptions resumeOptions;
    resumeOptions.resume = &killed;
    const SweepReport resumed = runSweep(full, resumeOptions);
    EXPECT_EQ(resumed.resumed, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    EXPECT_EQ(resumed.failed, 0u);
    EXPECT_EQ(resumed.doc.dump(), fresh.doc.dump());

    // The final checkpoint equals the final document.
    EXPECT_EQ(Json::loadFile(path).dump(), fresh.doc.dump());
}

TEST(SweepResume, AssignmentShapeChangesReExecuteInsteadOfDrifting)
{
    // Same merged config, different axis assignment (the value
    // moved from an axis into the base between runs): replaying
    // the stored object would change the output shape, so the
    // point must re-execute — byte-identity beats reuse.
    const SweepSpec prior = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7},
      "axes": [
        {"field": "strategy", "values": ["basic"]},
        {"field": "pGate", "values": [1e-4]}
      ]
    })"));
    const SweepSpec reshaped = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7, "strategy": "basic"},
      "axes": [{"field": "pGate", "values": [1e-4]}]
    })"));
    const SweepReport old = runSweep(prior);
    SweepOptions options;
    options.resume = &old.doc;
    const SweepReport resumed = runSweep(reshaped, options);
    EXPECT_EQ(resumed.resumed, 0u);
    EXPECT_EQ(resumed.executed, 1u);
    EXPECT_EQ(resumed.doc.dump(), runSweep(reshaped).doc.dump());
}

TEST(SweepResume, FailedPointsAreRetriedOnResume)
{
    // A stored {"error": ...} point must not be treated as done.
    const SweepSpec bad = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [{"field": "strategy",
                "values": ["basic", "bogus"]}]
    })"));
    const SweepReport broken = runSweep(bad);
    ASSERT_EQ(broken.failed, 1u);
    SweepOptions options;
    options.resume = &broken.doc;
    const SweepReport resumed = runSweep(bad, options);
    EXPECT_EQ(resumed.resumed, 1u);
    EXPECT_EQ(resumed.executed, 1u); // the failed point re-ran
    EXPECT_EQ(resumed.failed, 1u);   // ...and failed again
}

TEST(SweepResume, RejectsMalformedResumeDocuments)
{
    const SweepSpec spec =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    auto expectThrow = [&](const Json &doc, const char *what) {
        SweepOptions options;
        options.resume = &doc;
        EXPECT_THROW(runSweep(spec, options),
                     std::invalid_argument)
            << what;
    };
    expectThrow(parse(R"({"not": "a sweep output"})"),
                "missing spec/points");
    expectThrow(parse(R"([1, 2, 3])"), "not an object");

    // Truncated points array (as from a killed run).
    const SweepReport fresh = runSweep(spec);
    Json truncated = Json::object();
    truncated.set("spec", fresh.doc.at("spec"));
    Json somePoints = Json::array();
    somePoints.push(fresh.doc.at("points").at(0));
    truncated.set("points", somePoints);
    expectThrow(truncated, "truncated points");

    // Edited config_hash.
    Json edited = fresh.doc;
    Json points = Json::array();
    for (std::size_t i = 0; i < fresh.doc.at("points").size();
         ++i) {
        Json p = fresh.doc.at("points").at(i);
        p.set("config_hash", "0000000000000000");
        points.push(p);
    }
    edited.set("points", points);
    expectThrow(edited, "config_hash mismatch");

    // Wrong runner.
    const SweepReport other = runSweep(SweepSpec::fromJson(parse(
        R"({"runner": "experiment",
            "base": {"workload": "qrca", "bits": 6,
                     "synth": {"maxSyllables": 3}}})")));
    expectThrow(other.doc, "runner mismatch");
}

TEST(SweepEngine, ZeroPointSpecsThrowInsteadOfEmittingNothing)
{
    SweepSpec empty;
    empty.runner = "mc-prep";
    EXPECT_THROW(runSweep(empty), std::invalid_argument);
}

TEST(SweepEngine, MoreThreadsThanPointsIsFine)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 5000, "seed": 3},
      "axes": [{"field": "pGate", "values": [1e-4, 3e-4]}]
    })"));
    SweepOptions narrow;
    narrow.threads = 1;
    SweepOptions wide;
    wide.threads = 64;
    const SweepReport a = runSweep(spec, narrow);
    const SweepReport b = runSweep(spec, wide);
    EXPECT_EQ(a.doc.dump(), b.doc.dump());
    EXPECT_EQ(b.failed, 0u);
}

// ---------------------------------------------------------------
// Const-shared-workload mode: one immutable (workload, graph)
// bundle across points, bit-identical to per-point construction.
// ---------------------------------------------------------------

TEST(SharedWorkload, SharedGraphResultsMatchPerPointBuilds)
{
    ExperimentConfig config;
    config.workload = "qrca";
    config.params.bits = 8;
    config.synth.maxSyllables = 3;

    FowlerSynth synth(config.synth);
    SharedWorkload shared = makeSharedWorkload(
        WorkloadRegistry::instance().build("qrca", synth,
                                           config.params));
    ASSERT_NE(shared.workload, nullptr);
    ASSERT_NE(shared.graph, nullptr);
    EXPECT_EQ(&shared.graph->circuit(),
              &shared.workload->lowered.circuit);

    for (auto schedule :
         {ScheduleMode::SpeedOfData, ScheduleMode::Arch}) {
        config.schedule = schedule;
        Experiment sharedMode(config, shared);
        Experiment fresh(config);
        EXPECT_EQ(sharedMode.run().toJson().dump(),
                  fresh.run().toJson().dump())
            << scheduleModeName(schedule);
    }
}

// ---------------------------------------------------------------
// Shipped specs (single source of truth for the paper artifacts)
// ---------------------------------------------------------------

TEST(ShippedSpecs, ParseAndExpandToExpectedCounts)
{
    const struct
    {
        const char *file;
        std::size_t points;
        const char *runner;
    } specs[] = {
        // 30-point (strategy, pGate, pMove) grid plus the 2-point
        // paper-point semantics comparison (Fig 4c ApplyFix).
        {"/fig4_grid.json", 32, "mc-prep"},
        {"/fig8_throughput.json", 30, "experiment"},
        {"/fig15_arch.json", 60, "experiment"},
        {"/level2_scaling.json", 12, "experiment"},
        {"/ci_smoke.json", 4, "experiment"},
        // Tables 2, 3 and 9 and Fig 7 at 32 bits.
        {"/paper_tables.json", 3, "experiment-full"},
        // Figs 4 and 5b: five strategies x two semantics.
        {"/fig4_paper.json", 10, "mc-prep"},
        // Fig 16 tile sizes: three workloads x six tile sizes.
        {"/fig16_tiles.json", 18, "experiment-full"},
    };
    for (const auto &s : specs) {
        const SweepSpec spec =
            SweepSpec::load(std::string(QC_SPEC_DIR) + s.file);
        EXPECT_EQ(spec.points(), s.points) << s.file;
        EXPECT_EQ(spec.runner, s.runner) << s.file;
        EXPECT_EQ(spec.expand().size(), s.points) << s.file;
    }
}

// ---------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce)
{
    WorkStealingPool pool(4);
    std::vector<std::atomic<int>> hits(503);
    pool.run(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingPool, PropagatesTheFirstException)
{
    WorkStealingPool pool(2);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) {
                              if (i == 13)
                                  throw std::runtime_error("boom");
                              completed.fetch_add(1);
                          }),
                 std::runtime_error);
    // The failing task does not abandon the rest of the sweep.
    EXPECT_EQ(completed.load(), 63);
}

TEST(WorkStealingPool, SurvivesEveryTaskThrowing)
{
    // Worst case for the drain-then-rethrow contract: all tasks
    // throw on all workers. run() must still terminate (no
    // deadlock, no std::terminate from a second in-flight
    // exception) and rethrow exactly one of them.
    WorkStealingPool pool(4);
    std::atomic<int> attempts{0};
    EXPECT_THROW(pool.run(97,
                          [&](std::size_t) {
                              attempts.fetch_add(1);
                              throw std::invalid_argument("all");
                          }),
                 std::invalid_argument);
    EXPECT_EQ(attempts.load(), 97);

    // The pool object is reusable after a throwing run.
    std::atomic<int> completed{0};
    pool.run(16, [&](std::size_t) { completed.fetch_add(1); });
    EXPECT_EQ(completed.load(), 16);
}

TEST(WorkStealingPool, StopPredicateDrainsWithoutNewTasks)
{
    // A stop that is true from the start runs nothing.
    WorkStealingPool pool(2);
    std::atomic<int> ran{0};
    pool.run(
        64, [&](std::size_t) { ran.fetch_add(1); },
        [] { return true; });
    EXPECT_EQ(ran.load(), 0);

    // A stop raised mid-run keeps every started task's effect and
    // never starts another after the flag is observed.
    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    WorkStealingPool serial(1);
    serial.run(
        64,
        [&](std::size_t) {
            if (started.fetch_add(1) + 1 == 5)
                stop.store(true);
        },
        [&] { return stop.load(); });
    EXPECT_EQ(started.load(), 5);
}

// ---------------------------------------------------------------
// Checkpoint cadence and graceful drain
// ---------------------------------------------------------------

TEST(SweepEngine, CheckpointSecondsZeroWritesAfterEveryPoint)
{
    // With checkpointSeconds = 0 and one thread, the checkpoint on
    // disk is never more than zero points behind: at every
    // progress tick for an executed point the file already holds
    // exactly `done` finished entries.
    const SweepSpec spec =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const std::string path =
        ::testing::TempDir() + "qc_sweep_everypoint.json";
    std::remove(path.c_str());
    SweepOptions options;
    options.threads = 1;
    options.checkpointPath = path;
    options.checkpointSeconds = 0;
    std::size_t checked = 0;
    options.progress = [&](const SweepProgress &p) {
        const Json snapshot = Json::loadFile(path);
        std::size_t finished = 0;
        for (std::size_t i = 0; i < snapshot.at("points").size();
             ++i)
            finished +=
                !snapshot.at("points").at(i).has("error");
        EXPECT_EQ(finished, p.done);
        ++checked;
    };
    const SweepReport report = runSweep(spec, options);
    EXPECT_EQ(checked, report.points);
    std::remove(path.c_str());
}

/** A deliberately slow deterministic runner for checkpoint-cadence
 *  tests. */
class SlowTestRunner : public SweepRunner
{
  public:
    std::string name() const override { return "test-slow"; }
    std::string description() const override
    {
        return "test-only: sleeps 10 ms per point";
    }
    std::vector<std::string> fields() const override
    {
        return {"x"};
    }
    Json runPoint(const Json &config,
                  SweepContext &) const override
    {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
        Json result = Json::object();
        result.set("y", config.at("x").asDouble() * 2);
        return result;
    }
};

TEST(SweepEngine, CheckpointHappensBetweenSlowPoints)
{
    // A single point slower than checkpointSeconds must not
    // suppress checkpointing: the interval gates how OFTEN the
    // engine writes, not whether a finished point reaches disk —
    // each completed point checks the clock, so a checkpoint lands
    // after the slow point even though the interval elapsed
    // mid-point.
    SweepRunnerRegistry::instance().add(
        "test-slow", std::make_shared<SlowTestRunner>());
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "slow",
      "runner": "test-slow",
      "axes": [{"field": "x", "values": [1, 2, 3]}]
    })"));
    const std::string path =
        ::testing::TempDir() + "qc_sweep_slowpoint.json";
    std::remove(path.c_str());
    SweepOptions options;
    options.threads = 1;
    options.checkpointPath = path;
    options.checkpointSeconds = 0.002; // each point takes ~10 ms
    bool sawIntermediate = false;
    options.progress = [&](const SweepProgress &p) {
        if (p.done < p.total) {
            std::error_code ec;
            sawIntermediate |=
                std::filesystem::exists(path, ec);
        }
    };
    const SweepReport report = runSweep(spec, options);
    EXPECT_TRUE(sawIntermediate);
    // The final checkpoint equals the final document.
    EXPECT_EQ(Json::loadFile(path).dump(), report.doc.dump());
    std::remove(path.c_str());
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(SweepEngine, FinalCheckpointIsTheDocumentWrittenOnce)
{
    // The final checkpoint is the output file: the engine writes
    // report.doc there itself, so `qcarch sweep --out` writes it
    // once. After a drain it holds the resumable stubs.
    const SweepSpec spec =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const std::string path =
        ::testing::TempDir() + "qc_sweep_final.json";
    std::remove(path.c_str());
    SweepOptions options;
    options.threads = 2;
    options.checkpointPath = path;
    const SweepReport full = runSweep(spec, options);
    EXPECT_TRUE(full.written);
    EXPECT_EQ(readBytes(path), full.doc.dump(2) + "\n");

    std::size_t done = 0;
    options.threads = 1;
    options.checkpointSeconds = 1e9; // only the final checkpoint
    options.progress = [&](const SweepProgress &) { ++done; };
    options.stopRequested = [&] { return done >= 2; };
    const SweepReport drained = runSweep(spec, options);
    EXPECT_TRUE(drained.written);
    EXPECT_EQ(drained.interrupted, 2u);
    EXPECT_EQ(readBytes(path), drained.doc.dump(2) + "\n");
    std::size_t stubs = 0;
    for (std::size_t i = 0; i < drained.doc.at("points").size(); ++i)
        stubs += drained.doc.at("points").at(i).has("error");
    EXPECT_EQ(stubs, 2u);
    std::remove(path.c_str());

    // No path, or one the engine will not replace (a symlink):
    // nothing written, and the caller emits the document itself.
    EXPECT_FALSE(runSweep(spec).written);
    const std::string target =
        ::testing::TempDir() + "qc_sweep_final_target.json";
    const std::string link =
        ::testing::TempDir() + "qc_sweep_final_link.json";
    std::remove(link.c_str());
    { std::ofstream(target) << "untouched\n"; }
    std::filesystem::create_symlink(target, link);
    SweepOptions linked;
    linked.checkpointPath = link;
    EXPECT_FALSE(runSweep(spec, linked).written);
    EXPECT_EQ(readBytes(target), "untouched\n");
    std::remove(link.c_str());
    std::remove(target.c_str());
}

TEST(SweepEngine, StopRequestedDrainsToAResumableCheckpoint)
{
    // The SIGINT/SIGTERM path, minus the signal: stop after two
    // points, expect interrupted accounting, a checkpoint whose
    // stubs re-run on resume, and byte-identity with a fresh run.
    const SweepSpec spec =
        SweepSpec::fromJson(parse(resume_specs::kFull));
    const std::string path =
        ::testing::TempDir() + "qc_sweep_drain.json";
    std::remove(path.c_str());
    const SweepReport fresh = runSweep(spec);

    std::size_t done = 0;
    SweepOptions options;
    options.threads = 1;
    options.checkpointPath = path;
    options.checkpointSeconds = 0;
    options.progress = [&](const SweepProgress &) { ++done; };
    options.stopRequested = [&] { return done >= 2; };
    const SweepReport drained = runSweep(spec, options);
    EXPECT_EQ(drained.interrupted, 2u);
    EXPECT_EQ(drained.executed, 4u); // planned; only 2 ran

    const Json checkpoint = Json::loadFile(path);
    SweepOptions resumeOptions;
    resumeOptions.resume = &checkpoint;
    const SweepReport resumed = runSweep(spec, resumeOptions);
    EXPECT_EQ(resumed.resumed, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    EXPECT_EQ(resumed.interrupted, 0u);
    EXPECT_EQ(resumed.doc.dump(), fresh.doc.dump());
    std::remove(path.c_str());
}

} // namespace
} // namespace qc
