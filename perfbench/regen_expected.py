#!/usr/bin/env python3
"""Regenerates expected/<workload>.json: the digests every generated
spec's document must match at the default seed.

    python3 perfbench/regen_expected.py

Each generated spec is swept at --threads 1 and at --threads 4; the two
documents must be byte-identical and free of error points before their
digests are written. Run it only when a change to the program is meant
to change these documents, and say so in the change.
"""

import json
import shutil
import subprocess
import sys

from run import BUILD, THREADS, build, digest
from workloads import DEFAULT_SEED, EXPECTED_DIR, WORKLOADS


def main():
    qcarch = build()[0]
    work = BUILD / "regen"
    EXPECTED_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        if not w.generated:
            continue
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        specs = {}
        for spec in w.specs(work, DEFAULT_SEED):
            if not spec.generated:
                continue
            docs = []
            for threads in (1, THREADS):
                out = work / f"{spec.label}.{threads}.json"
                subprocess.run([str(qcarch), "sweep", str(spec.path),
                                "--threads", str(threads), "--quiet",
                                "--out", str(out)], check=True)
                docs.append(out.read_bytes())
            if docs[0] != docs[1]:
                sys.exit(f"{spec.label}: 1-thread and {THREADS}-thread "
                         "documents differ")
            d = digest(docs[0])
            if d.pop("errors"):
                sys.exit(f"{spec.label}: document has error points")
            specs[spec.label] = d
        path = EXPECTED_DIR / f"{w.name}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "specs": specs},
                                   indent=1) + "\n")
        print(f"wrote {path}")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
