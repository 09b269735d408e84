"""The benchmark's four workloads and the sweep specs each one runs.

A workload is a list of sweep specs that one pass runs, one fresh
`qcarch sweep` process per spec, in order. Shipped specs are used in
place; generated specs are written from the benchmark seed, which
changes only values that do not change the amount of work (throttle
fractions, Monte Carlo seeds, technology offsets), so every seed costs
the same.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Generated specs are checked against expected/<workload>.json for this
# seed, and against a 1-thread run of the same spec for every seed.
DEFAULT_SEED = 1


@dataclass
class SpecRun:
    """One spec of a workload: one sweep process per pass."""

    label: str
    path: Path
    # The committed document a shipped spec must reproduce byte for
    # byte (None for generated specs).
    reference: Path | None = None

    @property
    def generated(self):
        return self.reference is None


@dataclass
class Workload:
    name: str
    why: str
    # The layer that should dominate busy time, from the "why".
    dominant: str
    # Generated specs (label -> function of seed returning the spec).
    generated: dict
    # Shipped specs: (label, spec path, reference document).
    shipped: tuple = ()
    # Run every pass against a hoard that set-up filled.
    hoard: bool = False

    def specs(self, workdir, seed):
        """Writes the generated specs into workdir; returns the list."""
        runs = [SpecRun(label, ROOT / spec, ROOT / ref)
                for label, spec, ref in self.shipped]
        for label, make in self.generated.items():
            path = Path(workdir) / f"{label}.json"
            path.write_text(json.dumps(make(seed), indent=2) + "\n")
            runs.append(SpecRun(label, path))
        return runs


def scale_arch_spec(seed):
    """QRCA-4096 and QCLA-1024 under all five arch models, plus QCLA
    throttled at eight supply fractions drawn from the seed."""
    rng = random.Random(seed)
    fractions = sorted(round(rng.uniform(0.2, 3.0), 4) for _ in range(8))
    return {
        "name": "scale_arch",
        "runner": "experiment",
        "base": {"schedule": "arch"},
        "grids": [
            {"axes": [
                {"zip": [
                    {"field": "workload", "values": ["qrca", "qcla"]},
                    {"field": "bits", "values": [4096, 1024]},
                ]},
                {"field": "arch",
                 "values": ["qla", "gqla", "cqla", "gcqla", "fma"]},
            ]},
            {"base": {"workload": "qcla", "bits": 1024,
                      "schedule": "throttled"},
             "axes": [{"field": "zeroPerMsOfAverage",
                       "values": fractions}]},
        ],
    }


def mc_grid_spec(seed):
    """Naive Monte Carlo over basic, verify_and_correct and the pi/8
    conversion at 4M trials, plus two stratified points taken from
    fig4_deep with a small maxFaults."""
    mc_seed = 1000003 * seed + 17
    return {
        "name": "mc_grid",
        "runner": "mc-prep",
        "base": {"trials": 4000000, "seed": mc_seed,
                 "semantics": "discard_on_syndrome"},
        "grids": [
            {"axes": [
                {"field": "strategy",
                 "values": ["basic", "verify_and_correct",
                            "pi8_conversion"]},
                {"field": "pGate", "values": [1e-4, 3e-4, 1e-3]},
                {"field": "pMove", "values": [1e-6]},
            ]},
            {"base": {"sampler": "stratified", "maxFaults": 2,
                      "trialsPerStratum": 4000,
                      "strategy": "verify_and_correct", "pMove": 1e-7},
             "axes": [{"field": "pGate", "values": [1e-5, 1e-4]}]},
        ],
    }


def hoard_points_spec(seed):
    """10^4 cheap speed-of-data points (4-bit QRCA) over a 100 x 100
    grid of two-qubit-gate and move latencies offset by the seed."""
    offset = seed % 1000
    return {
        "name": "hoard_points",
        "runner": "experiment",
        "base": {"workload": "qrca", "bits": 4},
        "axes": [
            {"field": "tech.t2q_ns",
             "values": [10 + offset + i for i in range(100)]},
            {"field": "tech.tmove_ns",
             "values": [1 + i for i in range(100)]},
        ],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_cold",
            why="shipped fig15/fig8/level2 specs run cold, as users "
                "regenerate the paper's architecture artifacts; three "
                "QFT syntheses dominate",
            dominant="synth",
            generated={},
            shipped=(
                ("fig15_arch", "specs/fig15_arch.json",
                 "BENCH_fig15_arch.json"),
                ("fig8_throughput", "specs/fig8_throughput.json",
                 "BENCH_fig8_throughput.json"),
                ("level2_scaling", "specs/level2_scaling.json",
                 "BENCH_level2.json"),
            ),
        ),
        Workload(
            name="scale_arch",
            why="synthesis-free large adders under all five arch "
                "models and throttled supply: kernels, dataflow graph, "
                "arch and sim executors",
            dominant="arch",
            generated={"scale_arch": scale_arch_spec},
        ),
        Workload(
            name="mc_prep",
            why="Monte Carlo ancilla-prep grids (SIMD batch engine, "
                "rare-event stream, stratified sampler); only the "
                "error module computes",
            dominant="error",
            generated={"mc_grid": mc_grid_spec},
            shipped=(("fig4_grid", "specs/fig4_grid.json",
                      "BENCH_fig4_sweep.json"),),
        ),
        Workload(
            name="hoard_warm",
            why="10^4 points served from a hoard set-up filled: the "
                "sweep engine's read path, hoard fetch and JSON, no "
                "compute",
            dominant="hoard",
            generated={"hoard_points": hoard_points_spec},
            hoard=True,
        ),
    )
}
