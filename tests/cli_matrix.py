#!/usr/bin/env python3
"""Table-driven audit of qcarch's command-line contract.

Every bad invocation — unknown command, unknown subcommand, unknown
flag, missing option value, malformed numeric value, wrong
positional count — must exit 2 and print a one-line usage pointer
on stderr. Well-formed commands whose *input* is bad (unreadable
file) keep exit 1; this is the boundary the CLI's header documents
and the serve/sweep wrappers in CI rely on to tell "retry with a
fixed file" from "fix the script".

A non-quiet sweep whose stderr is a pipe (a CI or worker log) must
print plain newline-terminated progress lines, never the terminal's
carriage-return redraw or escape codes.

A sweep writes the same bytes to stdout, to a regular --out file
and through an --out symlink, which the engine will not replace
with its checkpoint and so leaves for the CLI to write.

Usage: cli_matrix.py <path-to-qcarch>
"""

import json
import os
import subprocess
import sys
import tempfile

USAGE_LINE = "usage: qcarch"

# (description, argv-after-binary, expected-exit, expect-usage-line)
CASES = [
    ("no command at all", [], 2, True),
    ("unknown command", ["frobnicate"], 2, True),
    ("unknown command resembling a flag", ["--threads"], 2, True),
    ("run with no config", ["run"], 2, True),
    ("run with two configs", ["run", "a.json", "b.json"], 2, True),
    ("run with unknown flag", ["run", "a.json", "--format", "csv"],
     2, True),
    ("sweep with no spec", ["sweep"], 2, True),
    ("sweep with misspelled flag",
     ["sweep", "spec.json", "--thread", "4"], 2, True),
    ("sweep --threads missing value",
     ["sweep", "spec.json", "--threads"], 2, True),
    ("sweep --threads non-numeric",
     ["sweep", "spec.json", "--threads", "four"], 2, True),
    ("sweep --threads trailing junk",
     ["sweep", "spec.json", "--threads", "4x"], 2, True),
    ("sweep --threads negative",
     ["sweep", "spec.json", "--threads", "-2"], 2, True),
    ("sweep --checkpoint-seconds negative",
     ["sweep", "spec.json", "--checkpoint-seconds", "-1"], 2, True),
    ("sweep --checkpoint-seconds nan",
     ["sweep", "spec.json", "--checkpoint-seconds", "nan"], 2, True),
    ("sweep bad --fault spec",
     ["sweep", "spec.json", "--fault", "bogus"], 2, True),
    ("serve without --out", ["serve", "spec.json"], 2, True),
    ("serve --shard-points zero",
     ["serve", "spec.json", "--out", "o.json", "--shard-points",
      "0"], 2, True),
    ("serve --poll-ms non-numeric",
     ["serve", "spec.json", "--out", "o.json", "--poll-ms", "fast"],
     2, True),
    ("work without --coordinator", ["work"], 2, True),
    ("work with stray positional",
     ["work", "--coordinator", "d", "extra"], 2, True),
    ("work --poll-ms missing value",
     ["work", "--coordinator", "d", "--poll-ms"], 2, True),
    ("hoard with no subcommand", ["hoard"], 2, True),
    ("hoard unknown subcommand", ["hoard", "prune", "d"], 2, True),
    ("hoard warm without --hoard", ["hoard", "warm", "spec.json"],
     2, True),
    ("hoard gc bad --max-bytes",
     ["hoard", "gc", "d", "--max-bytes", "lots"], 2, True),
    ("hoard ingest without --serve", ["hoard", "ingest", "d"], 2,
     True),
    ("hoard stat with extra positional", ["hoard", "stat", "a", "b"],
     2, True),
    ("list with no subcommand", ["list"], 2, True),
    ("list unknown subcommand", ["list", "gadgets"], 2, True),
    ("list with unknown flag", ["list", "runners", "--json"], 2,
     True),
    # The exit-1 side of the boundary: the invocation is fine, the
    # input is not.
    ("run on a missing file", ["run", "/nonexistent/c.json"], 1,
     False),
    ("sweep on a missing file", ["sweep", "/nonexistent/s.json"], 1,
     False),
    # And exit 0: help is not an error.
    ("help", ["help"], 0, False),
    ("--help", ["--help"], 0, False),
]


def piped_progress_problems(qcarch):
    """Run a 12-point sweep with stderr piped; list what is wrong
    with its progress output (one line per ceil(12/10) = 2 points)."""
    spec = {
        "runner": "experiment",
        "base": {"workload": "qrca", "bits": 4,
                 "synth": {"maxSyllables": 3}},
        "axes": [{"field": "demandBins",
                  "values": list(range(1, 13))}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        proc = subprocess.run(
            [qcarch, "sweep", spec_path, "--threads", "2", "--out",
             os.path.join(tmp, "out.json")],
            capture_output=True, text=True, timeout=60)
    problems = []
    if proc.returncode != 0:
        problems.append("exit %d, want 0" % proc.returncode)
    if "\x1b" in proc.stderr or "\r" in proc.stderr:
        problems.append("piped stderr has terminal control bytes: %r"
                        % proc.stderr)
    ticks = [l for l in proc.stderr.splitlines() if l.startswith("[")]
    if [t.split("]")[0] for t in ticks] != [
            "[%d/12" % n for n in range(2, 13, 2)]:
        problems.append("progress lines %r, want every 2nd point"
                        % ticks)
    if not any(l.startswith("12 points (12 executed")
               for l in proc.stderr.splitlines()):
        problems.append("summary line missing: %r" % proc.stderr)
    return problems


def output_path_problems(qcarch):
    """Run one small sweep to stdout, to a regular --out file and
    to an --out symlink; list what differs."""
    spec = {
        "runner": "experiment",
        "base": {"workload": "qrca", "bits": 4},
        "axes": [{"field": "demandBins", "values": [1, 2]}],
    }
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        sweep = [qcarch, "sweep", spec_path, "--quiet"]
        stdout = subprocess.run(sweep, capture_output=True,
                                timeout=60)
        regular = os.path.join(tmp, "out.json")
        target = os.path.join(tmp, "target.json")
        link = os.path.join(tmp, "link.json")
        with open(target, "w") as f:
            f.write("stale\n")
        os.symlink(target, link)
        outputs = {"stdout": stdout.stdout}
        for name, path in (("--out file", regular),
                           ("--out symlink", link)):
            proc = subprocess.run(sweep + ["--out", path],
                                  capture_output=True, timeout=60)
            if proc.returncode != 0:
                problems.append("%s: exit %d" % (name,
                                                 proc.returncode))
            with open(path, "rb") as f:
                outputs[name] = f.read()
        if stdout.returncode != 0:
            problems.append("stdout: exit %d" % stdout.returncode)
        if not os.path.islink(link):
            problems.append("--out symlink was replaced by a file")
        for name, data in outputs.items():
            if data != outputs["stdout"]:
                problems.append("%s differs from stdout (%d vs %d "
                                "bytes)" % (name, len(data),
                                            len(outputs["stdout"])))
    return problems


def main():
    if len(sys.argv) != 2:
        print("usage: cli_matrix.py <qcarch>", file=sys.stderr)
        return 2
    qcarch = sys.argv[1]
    failures = []
    for description, argv, want_exit, want_usage in CASES:
        proc = subprocess.run([qcarch] + argv, capture_output=True,
                              text=True, timeout=60)
        problems = []
        if proc.returncode != want_exit:
            problems.append("exit %d, want %d"
                            % (proc.returncode, want_exit))
        if want_usage:
            lines = [l for l in proc.stderr.splitlines() if l]
            if not any(l.startswith(USAGE_LINE) for l in lines):
                problems.append("stderr lacks a %r line: %r"
                                % (USAGE_LINE, proc.stderr))
            # "one-line usage": the pointer plus one diagnostic,
            # not the full multi-line help dump.
            if len(lines) > 2:
                problems.append("stderr is %d lines, want <= 2: %r"
                                % (len(lines), proc.stderr))
        if proc.returncode != 0 and not proc.stderr:
            problems.append("non-zero exit with silent stderr")
        if problems:
            failures.append((description, argv, problems))
    problems = piped_progress_problems(qcarch)
    if problems:
        failures.append(("non-quiet sweep with piped stderr",
                         ["sweep", "<12-point spec>"], problems))
    problems = output_path_problems(qcarch)
    if problems:
        failures.append(("sweep document on every output path",
                         ["sweep", "<2-point spec>", "--out", "..."],
                         problems))
    for description, argv, problems in failures:
        print("FAIL %s (qcarch %s):" % (description, " ".join(argv)),
              file=sys.stderr)
        for problem in problems:
            print("  " + problem, file=sys.stderr)
    total = len(CASES) + 2
    print("cli_matrix: %d/%d cases pass"
          % (total - len(failures), total))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
