#!/usr/bin/env python3
"""qalypso benchmark: sweep workloads timed end to end through qcarch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds qcarch and the
traced CLI qctrace from source into .bench_build/.

--trace 0 times whole passes from outside: a pass runs each of the
workload's specs as one fresh `qcarch sweep --threads 4` process, one
after another (a closed loop with one client), for S seconds after
set-up. Every output document is checked against its reference. The
last stdout line is the JSON result with the end-to-end metrics.

--trace 1 runs the same inputs through qctrace instead (timing
decorators around runSweep, and direct calls into each stage) and
reports the per-layer metrics; the merged trace-event file is written
to .bench_build/trace/<workload>.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, EXPECTED_DIR, ROOT, WORKLOADS

BUILD = ROOT / ".bench_build"
THREADS = 4
SETUP_REPS = 3
# Every run ends within this many seconds of its start (builds aside).
RUN_LIMIT_S = 150
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s_p50": "s",
    "sweep_s_tail": "s",
    "cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

ARCHS = ("qla", "gqla", "cqla", "gcqla", "fma")
MC_STRATEGIES = ("basic", "verify_and_correct", "pi8")

PER_LAYER_UNITS = {
    "synth.build_cold_s": "s",
    "synth.rotz_s": "s",
    "synth.repeat_builds": "count",
    "kernels.build_s": "s",
    "kernels.gates": "count",
    "circuit.graph_s": "s",
    "circuit.graph_nodes": "count",
    "arch.sod_s": "s",
    "arch.throttled_s": "s",
    "arch.throttled_gates_per_s": "1/s",
    **{f"arch.run_s.{a}": "s" for a in ARCHS},
    "arch.gates_per_s": "1/s",
    "factory.alloc_s": "s",
    **{f"error.{s}.mtrials_per_s": "1/us" for s in MC_STRATEGIES},
    "error.stratified_s": "s",
    "error.stratified_trials_per_s": "1/s",
    "error.accept_ratio": "ratio",
    "sweep.point_s": "s",
    "sweep.workload_wait_s": "s",
    "sweep.engine_overhead_s": "s",
    "sweep.scaling_eff": "ratio",
    "hoard.fetch_s": "s",
    "hoard.fetch_calls": "count",
    "hoard.hit_ratio": "ratio",
    "hoard.quarantined": "count",
    "hoard.store_s": "s",
    "hoard.store_calls": "count",
    "api.json_parse_s": "s",
    "api.json_dump_s": "s",
    "api.json_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "host.spin_s": "s",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ----------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------

def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile of `samples` that still has at least
    `beyond` samples above it: (value, percentile, n), or None when
    there are too few samples for any."""
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    rank = n - beyond - 1  # 0-based; exactly `beyond` samples above
    return ordered[rank], 100.0 * rank / n, n


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------

@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    status: int


class Runner:
    """Runs one child at a time through qcspawn (spawner.cc), which
    times it from fork to exit and reaps it with wait4, so that the
    child's peak RSS is its own and not this process's. A child still
    running when the run's time limit passes is killed."""

    def __init__(self, qcspawn):
        self.limit_at = math.inf
        self.spawner = subprocess.Popen(
            [str(qcspawn)], cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv, log=None):
        remaining = self.limit_at - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        fields = [f"{min(remaining, RUN_LIMIT_S):.3f}",
                  str(log) if log else "-", *map(str, argv)]
        self.spawner.stdin.write("\t".join(fields) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 4:
            raise BenchError("qcspawn exited")
        if time.monotonic() >= self.limit_at:
            raise BenchError(f"{argv[0]} ran past the time limit")
        wall, cpu, rss_kb, status = reply
        return Proc(float(wall), float(cpu), int(rss_kb) / 1024.0,
                    int(status))

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()


def build():
    """Builds qcarch, qctrace and qcspawn; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no qalypso sources to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "wb") as out:
        for argv in (
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "-j4",
             "--target", "qcarch", "qctrace", "qcspawn"],
        ):
            if subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError("build failed; see " + str(log))
    return (BUILD / "qalypso" / "qcarch", BUILD / "qctrace",
            BUILD / "qcspawn")


def spin():
    """The host-noise control: the median time of a fixed
    single-thread work loop, run five times."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 1
        for _ in range(300_000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------
# Reference checks.
# ----------------------------------------------------------------

def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(doc_bytes):
    """Whole-document, header and per-point digests of a document."""
    doc = json.loads(doc_bytes)
    points = doc.pop("points", [])
    return {
        "sha256": _sha(doc_bytes),
        "header": _sha(_canon(doc)),
        "points": [_sha(_canon(p))[:16] for p in points],
        "errors": [i for i, p in enumerate(points)
                   if isinstance(p, dict) and "error" in p],
    }


class Checker:
    """Counts points attempted and failed across every document."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self._memo = {}

    def check(self, label, doc_bytes, status, references):
        """One sweep's output against every reference digest. A point
        fails if it carries an error, if the sweep exited non-zero or
        if it differs from any reference."""
        count = max((len(r["points"]) for r in references), default=0)
        if status != 0 or doc_bytes is None:
            self.attempted += max(count, 1)
            self.failed += max(count, 1)
            self.mismatches.append(f"{label}: exit status {status}")
            return
        key = (_sha(doc_bytes), tuple(r["sha256"] for r in references))
        if key not in self._memo:
            self._memo[key] = self._compare(label, doc_bytes, references)
        points, failed = self._memo[key]
        self.attempted += points
        self.failed += failed

    def _compare(self, label, doc_bytes, references):
        got = digest(doc_bytes)
        bad = set(got["errors"])
        for ref in references:
            if got["sha256"] == ref["sha256"]:
                continue
            if got["header"] != ref["header"] \
                    or len(got["points"]) != len(ref["points"]):
                bad.update(range(max(len(got["points"]),
                                     len(ref["points"]))))
            else:
                bad.update(i for i, (a, b) in enumerate(
                    zip(got["points"], ref["points"])) if a != b)
        if bad:
            self.mismatches.append(
                f"{label}: {len(bad)} point(s) failed or differ from "
                "the reference")
        return max(len(got["points"]), 1), len(bad)


def stored_reference(workload, label, seed):
    """Expected digests of a generated spec, for the default seed."""
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text())["specs"][label]


# ----------------------------------------------------------------
# Passes.
# ----------------------------------------------------------------

@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    docs: list = field(default_factory=list)  # bytes or None per spec
    status: list = field(default_factory=list)


class Bench:
    def __init__(self, workload, seed, runner, tools):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.runner = runner
        self.qcarch, self.qctrace, _ = tools
        self.work = BUILD / "work" / f"{workload}-{os.getpid()}"
        self.log = BUILD / "work" / f"{workload}-{os.getpid()}.log"
        self.checker = Checker()
        self.specs = []
        self.hoard = None
        self.references = {}
        self.passes = 0

    def sweep_argv(self, spec, out, threads=THREADS, traced=None):
        if traced:
            argv = [str(self.qctrace), "sweep", str(spec.path),
                    "--threads", str(threads), "--out", str(out),
                    "--trace", str(traced)]
        else:
            argv = [str(self.qcarch), "sweep", str(spec.path),
                    "--threads", str(threads), "--quiet",
                    "--out", str(out)]
        if self.hoard:
            argv += ["--hoard", str(self.hoard)]
        return argv

    def run_pass(self, threads=THREADS, traced=False):
        """One pass: every spec as one fresh process, in order."""
        self.passes += 1
        result = Pass()
        traces = []
        for spec in self.specs:
            out = self.work / f"{spec.label}.{self.passes}.out.json"
            trace = None
            if traced:
                trace = self.work / f"{spec.label}.{self.passes}.trace.json"
                traces.append(trace)
            proc = self.runner.run(
                self.sweep_argv(spec, out, threads, trace), self.log)
            result.wall += proc.wall
            result.cpu += proc.cpu
            result.rss_mb = max(result.rss_mb, proc.rss_mb)
            result.status.append(proc.status)
            result.docs.append(out.read_bytes() if out.exists() else None)
            if out.exists():
                out.unlink()
        return result, traces

    def check_pass(self, result, twin=None, suffix=""):
        """Checks each document of a pass against its references and,
        given a twin pass of the same specs, against the twin's."""
        for i, spec in enumerate(self.specs):
            refs = list(self.references[spec.label])
            if twin and twin.docs[i] is not None:
                refs.append(digest(twin.docs[i]))
            self.checker.check(spec.label + suffix, result.docs[i],
                               result.status[i], refs)

    def setup(self, traced_fill=False):
        """Writes the specs, fills the hoard, runs one warm-up pass.
        Returns the warm-up pass; the time is the caller's to take.
        With traced_fill the fill runs under qctrace and its traces
        are kept in self.fill_traces."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.specs = self.w.specs(self.work, self.seed)
        self.hoard = None
        self.fill_traces = []
        if self.w.hoard:
            self.hoard = self.work / "hoard"
            for spec in self.specs:
                out = self.work / f"{spec.label}.fill.json"
                trace = self.work / f"{spec.label}.fill.trace.json"
                proc = self.runner.run(
                    self.sweep_argv(spec, out,
                                    traced=trace if traced_fill else None),
                    self.log)
                if proc.status != 0:
                    raise BenchError(f"hoard fill of {spec.label} failed")
                if traced_fill:
                    self.fill_traces.append(load_trace(trace))
        warm, _ = self.run_pass()
        return warm

    def make_references(self):
        """Reference digests per spec: the committed document of a
        shipped spec; for a generated spec the stored expected digests
        at the default seed and a 1-thread run of it. Returns the
        1-thread pass when one ran (None otherwise)."""
        for spec in self.specs:
            if not spec.generated:
                self.references[spec.label] = [
                    digest(spec.reference.read_bytes())]
        if not any(spec.generated for spec in self.specs):
            return None
        single, _ = self.run_pass(threads=1)
        for spec, doc, status in zip(self.specs, single.docs,
                                     single.status):
            if spec.generated:
                stored = stored_reference(self.w.name, spec.label,
                                          self.seed)
                refs = [stored] if stored else []
                if status == 0 and doc is not None:
                    refs.append(digest(doc))
                self.references[spec.label] = refs
        return single


# ----------------------------------------------------------------
# --trace 0: end-to-end metrics.
# ----------------------------------------------------------------

def untraced_run(bench, seconds, spins):
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        warm = bench.setup()
        setups.append(time.perf_counter() - start)
    single = bench.make_references()
    bench.check_pass(warm)
    if single:
        bench.check_pass(single, warm, " (1 thread)")

    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        result, _ = bench.run_pass()
        bench.check_pass(result)
        passes.append(result)
    spins.append(spin())

    walls = [p.wall for p in passes]
    t = tail(walls)
    if t is None:
        tail_value = max(walls)
        tail_note = (f"slowest of {len(walls)} passes: fewer than "
                     f"{TAIL_BEYOND + 1}, so no percentile has "
                     f"{TAIL_BEYOND} beyond it")
    else:
        tail_value = t[0]
        tail_note = f"p{t[1]:.1f} of {t[2]} passes, {TAIL_BEYOND} beyond"
    checker = bench.checker
    ok_ratio = 1.0 - checker.failed / max(checker.attempted, 1)
    metrics = {
        "setup_s": median(setups),
        "sweep_s_p50": median(walls),
        "sweep_s_tail": tail_value,
        "cpu_s_p50": median([p.cpu for p in passes]),
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "ok_ratio": ok_ratio,
    }
    print(f"workload {bench.w.name}: {bench.w.why}")
    print(f"  {len(passes)} passes of {len(bench.specs)} sweep "
          f"process(es) at --threads {THREADS}; set-up x{SETUP_REPS}")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  sweep_s_tail is the {tail_note}")
    print(f"  error_ratio    {checker.failed}/{checker.attempted} points")
    print(f"  host.spin_s    {median(spins):.6g} s (noise control: "
          f"{', '.join(f'{s:.4f}' for s in spins)})")
    for line in checker.mismatches:
        print(f"  MISMATCH {line}")
    return metrics


# ----------------------------------------------------------------
# --trace 1: per-layer metrics.
# ----------------------------------------------------------------

def load_trace(path):
    data = json.loads(Path(path).read_text())
    events = data["traceEvents"]
    children = defaultdict(float)
    for e in events:
        children[e["args"]["parent"]] += e["dur"]
    for e in events:
        e["self"] = e["dur"] - children.get(e["args"]["id"], 0.0)
    return data


def span_sum(traces, name):
    """Total seconds of every span with this name."""
    return sum(e["dur"] for t in traces for e in t["traceEvents"]
               if e["name"] == name) / 1e6


def span_count(traces, name):
    return sum(1 for t in traces for e in t["traceEvents"]
               if e["name"] == name)


def counter(traces, name):
    return sum(t["counters"].get(name, 0.0) for t in traces)


def ratio(a, b):
    return a / b if b else 0.0


def sweep_leg_metrics(traces):
    """Per-pass metrics of one traced pass (one trace per process)."""
    wait = span_sum(traces, "sweep.workload_wait")
    fetch = span_sum(traces, "hoard.fetch")
    store = span_sum(traces, "hoard.store")
    point_busy = span_sum(traces, "sweep.point") - wait
    overhead = sum(
        THREADS * e["dur"] / 1e6 for t in traces
        for e in t["traceEvents"] if e["name"] == "sweep.run"
    ) - (point_busy + fetch + store) - wait
    hits = sum(1 for t in traces for e in t["traceEvents"]
               if e["name"] == "hoard.fetch" and e["args"].get("hit"))
    calls = span_count(traces, "hoard.fetch")
    return {
        "sweep.point_s": span_sum(traces, "sweep.point"),
        "sweep.workload_wait_s": wait,
        "sweep.engine_overhead_s": overhead,
        "hoard.fetch_s": fetch,
        "hoard.fetch_calls": calls,
        "hoard.hit_ratio": ratio(hits, calls),
        "hoard.quarantined": counter(traces, "hoard.quarantined"),
        "api.json_parse_s": span_sum(traces, "api.json_parse"),
        "api.json_dump_s": span_sum(traces, "api.json_dump"),
        "api.json_bytes": counter(traces, "api.json_bytes"),
    }


def stage_metrics(stages):
    """Metrics of the direct stage calls (one trace per spec)."""
    seen = set()
    repeats = 0
    for t in stages:  # in pass order: one process per spec
        searched = set(t["synth_searches"])
        repeats += sum(1 for o in t["synth_searches"] if o in seen)
        seen |= searched
    arch_s = {a: span_sum(stages, f"arch.run.{a}") for a in ARCHS}
    return {
        "synth.build_cold_s": span_sum(stages, "synth.build_cold"),
        "synth.rotz_s": counter(stages, "synth.rotz_s"),
        "synth.repeat_builds": repeats,
        "kernels.build_s": span_sum(stages, "kernels.build"),
        "kernels.gates": counter(stages, "kernels.gates"),
        "circuit.graph_s": span_sum(stages, "circuit.graph"),
        "circuit.graph_nodes": counter(stages, "circuit.graph_nodes"),
        "arch.sod_s": span_sum(stages, "arch.sod"),
        "arch.throttled_s": span_sum(stages, "arch.throttled"),
        "arch.throttled_gates_per_s": ratio(
            counter(stages, "arch.throttled_gates"),
            span_sum(stages, "arch.throttled")),
        **{f"arch.run_s.{a}": s for a, s in arch_s.items()},
        "arch.gates_per_s": ratio(counter(stages, "arch.gates"),
                                  sum(arch_s.values())),
        "factory.alloc_s": span_sum(stages, "factory.alloc"),
        **{f"error.{s}.mtrials_per_s": ratio(
            counter(stages, f"error.{s}.trials"),
            span_sum(stages, f"error.{s}") * 1e6)
           for s in MC_STRATEGIES},
        "error.stratified_s": span_sum(stages, "error.stratified"),
        "error.stratified_trials_per_s": ratio(
            counter(stages, "error.stratified_trials"),
            span_sum(stages, "error.stratified")),
        "error.accept_ratio": ratio(counter(stages, "error.accepted"),
                                    counter(stages, "error.attempted")),
    }


def layer_busy(stage, leg, mc_naive_s):
    """Busy seconds per layer in one pass, for the dominance check:
    compute layers from the stage calls, engine-side layers from the
    traced sweep (hoard.fetch includes the object parse)."""
    return {
        "synth": stage["synth.rotz_s"],
        "kernels": stage["kernels.build_s"],
        "circuit": stage["circuit.graph_s"],
        "arch": stage["arch.sod_s"] + stage["arch.throttled_s"]
        + sum(stage[f"arch.run_s.{a}"] for a in ARCHS),
        "factory": stage["factory.alloc_s"],
        "error": mc_naive_s + stage["error.stratified_s"],
        "hoard": leg["hoard.fetch_s"],
        "api": leg["api.json_dump_s"],
    }


def span_table(traces):
    """count, busy (self) seconds, wait seconds, failures per span."""
    rows = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for t in traces:
        for e in t["traceEvents"]:
            row = rows[e["name"]]
            row[0] += 1
            if e["name"] == "sweep.workload_wait":
                row[2] += e["dur"] / 1e6
            else:
                row[1] += e["self"] / 1e6
            row[3] += 1 if e["args"].get("failed") else 0
    return rows


def merge_traces(groups, path):
    """One trace-event file; each process of the run gets its pid."""
    events = []
    pid = 0
    for label, traces in groups:
        for t in traces:
            pid += 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"{label} #{pid}"}})
            for e in t["traceEvents"]:
                e = dict(e, pid=pid)
                e.pop("self", None)
                events.append(e)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}) + "\n")


def traced_run(bench, seconds, spins):
    warm = bench.setup(traced_fill=True)
    fill = bench.fill_traces
    single = bench.make_references() or bench.run_pass(threads=1)[0]
    bench.check_pass(warm)
    # Determinism leg: each 1-thread document against the threaded one.
    bench.check_pass(single, warm, " (1 thread)")

    untraced, traced_walls, legs, leg_traces = [], [], [], []
    start = time.monotonic()
    while not legs or time.monotonic() - start < seconds:
        plain, _ = bench.run_pass()
        bench.check_pass(plain)
        untraced.append(plain.wall)
        result, paths = bench.run_pass(traced=True)
        # Traced documents must equal the untraced ones byte for byte.
        bench.check_pass(result, plain, " (traced)")
        traces = [load_trace(p) for p in paths]
        for p in paths:
            p.unlink()
        traced_walls.append(result.wall)
        legs.append(sweep_leg_metrics(traces))
        leg_traces = traces

    stage_traces = []
    for spec in bench.specs:
        path = bench.work / f"{spec.label}.stages.json"
        argv = [str(bench.qctrace), "stages", str(spec.path),
                "--trace", str(path)]
        if bench.hoard:
            argv += ["--hoard", str(bench.hoard)]
        proc = bench.runner.run(argv, bench.log)
        if proc.status != 0:
            raise BenchError(f"stage calls of {spec.label} failed")
        stage_traces.append(load_trace(path))
    spins.append(spin())

    metrics = {name: median([leg[name] for leg in legs])
               for name in legs[0]}
    stage = stage_metrics(stage_traces)
    metrics.update(stage)
    if bench.hoard:
        # A warm pass's per-point JSON work is the stored objects'
        # parse, which the stage leg times.
        metrics["api.json_parse_s"] += span_sum(stage_traces,
                                                "api.json_parse")
        metrics["api.json_bytes"] += counter(stage_traces,
                                             "api.json_bytes")
    metrics["hoard.store_s"] = span_sum(fill, "hoard.store")
    metrics["hoard.store_calls"] = span_count(fill, "hoard.store")
    metrics["sweep.scaling_eff"] = ratio(
        single.wall, THREADS * median(untraced))
    metrics["trace.overhead_ratio"] = ratio(
        median(traced_walls), median(untraced)) - 1.0
    metrics["host.spin_s"] = median(spins)

    naive = sum(span_sum(stage_traces, f"error.{s}")
                for s in MC_STRATEGIES)
    busy = layer_busy(stage, metrics, naive)
    total = sum(busy.values())
    top = max(busy, key=busy.get)

    out = BUILD / "trace" / f"{bench.w.name}.json"
    merge_traces([("hoard fill", fill), ("traced sweep", leg_traces),
                  ("stage calls", stage_traces)], out)

    print(f"workload {bench.w.name}: {bench.w.why}")
    print(f"  {len(legs)} traced + {len(untraced)} untraced passes, "
          f"1-thread pass {single.wall:.4f} s")
    print(f"  {'span':<26} {'count':>7} {'busy_s':>10} {'wait_s':>10} "
          f"{'failed':>6}   (last traced pass + stage calls)")
    rows = span_table(fill + leg_traces + stage_traces)
    for name, (count, busy_s, wait_s, failed) in sorted(
            rows.items(), key=lambda kv: -kv[1][1] - kv[1][2]):
        print(f"  {name:<26} {count:>7} {busy_s:>10.4f} {wait_s:>10.4f} "
              f"{failed:>6}")
    print("  busy seconds per layer: " + ", ".join(
        f"{k} {v:.4f}" for k, v in sorted(busy.items(),
                                          key=lambda kv: -kv[1])))
    verdict = "matches" if top == bench.w.dominant else "DOES NOT match"
    print(f"  dominant layer: {top} ({100 * ratio(busy[top], total):.1f}% "
          f"of layer busy time); the workload's why names "
          f"{bench.w.dominant}: {verdict}")
    for name in sorted(metrics):
        print(f"  {name:<32} {metrics[name]:.6g} {PER_LAYER_UNITS[name]}")
    print(f"  trace: {out.relative_to(ROOT)}")
    for line in bench.checker.mismatches:
        print(f"  MISMATCH {line}")
    return metrics


# ----------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        tools = build()
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1
    runner = Runner(tools[2])
    try:
        runner.limit_at = time.monotonic() + RUN_LIMIT_S
        bench = Bench(args.workload, args.seed, runner, tools)
        spins = [spin()]
        try:
            if args.trace:
                metrics = traced_run(bench, args.seconds, spins)
                units = PER_LAYER_UNITS
            else:
                metrics = untraced_run(bench, args.seconds, spins)
                units = END_TO_END_UNITS
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
            if bench.log.exists():
                bench.log.unlink()
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1
    finally:
        runner.close()

    checker = bench.checker
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.mismatches,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
