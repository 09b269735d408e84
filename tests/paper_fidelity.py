#!/usr/bin/env python3
"""Check reproduced numbers against the paper's published values.

Reads tests/paper_ledger.json: one row per (artifact, metric) with
the paper's value and a relative band. Each row names a committed
BENCH_*.json document, a point selector (keys the point must match)
and a path into that point. The path is a dotted JSON path, or an
arithmetic expression over dotted paths and numbers (+ * /), for
metrics the document holds only in parts (a share of a total).

A row passes when |measured / paper - 1| <= band. A band wider than
0.10 must carry a "deviation" string saying why the reproduction
differs, or that the cause is not established.

The BENCH documents are the committed ones; the paper_artifacts
ctest checks that they still match fresh `qcarch sweep` output.

    python3 tests/paper_fidelity.py

Exits 0 when every row passes, 1 otherwise.
"""

import ast
import json
import operator
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDE_BAND = 0.10
ROW_KEYS = {"artifact", "metric", "bench", "point", "path", "paper",
            "band"}

BINARY = {ast.Add: operator.add, ast.Mult: operator.mul,
          ast.Div: operator.truediv}


def lookup(point, dotted):
    value = point
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError("no \"%s\" in the point" % dotted)
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KeyError("\"%s\" is not a number" % dotted)
    return value


def dotted_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node.value) + "." + node.attr
    raise ValueError("unsupported expression %s" % ast.dump(node))


def evaluate(point, path):
    """Value of a dotted path or an arithmetic expression of them."""
    def walk(node):
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            return BINARY[type(node.op)](walk(node.left),
                                         walk(node.right))
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (int, float)):
            return node.value
        return lookup(point, dotted_name(node))
    return walk(ast.parse(path, mode="eval").body)


def select(doc, selector):
    matches = [p for p in doc.get("points", [])
               if all(p.get(k) == v for k, v in selector.items())]
    if len(matches) != 1:
        raise KeyError("point selector %s matches %d points"
                       % (json.dumps(selector, sort_keys=True),
                          len(matches)))
    return matches[0]


def check_row(row, docs):
    """(measured, relative deviation, problem or None) of one row."""
    missing = ROW_KEYS - set(row)
    if missing:
        return None, None, "missing keys %s" % sorted(missing)
    if row["band"] > WIDE_BAND and not row.get("deviation", "").strip():
        return None, None, ("band %.2f is wider than %.2f but the row "
                            "has no deviation" % (row["band"],
                                                  WIDE_BAND))
    bench = row["bench"]
    if bench not in docs:
        docs[bench] = json.loads((ROOT / bench).read_text())
    try:
        measured = evaluate(select(docs[bench], row["point"]),
                            row["path"])
    except (KeyError, ValueError, ZeroDivisionError) as e:
        return None, None, str(e)
    deviation = measured / row["paper"] - 1
    if abs(deviation) > row["band"]:
        return measured, deviation, ("outside its band of +-%.0f%%"
                                     % (100 * row["band"]))
    return measured, deviation, None


def main():
    ledger = ROOT / "tests" / "paper_ledger.json"
    rows = json.loads(ledger.read_text())["rows"]
    docs = {}
    failures = 0
    for row in rows:
        measured, deviation, problem = check_row(row, docs)
        label = "%s: %s" % (row.get("artifact", "?"),
                            row.get("metric", "?"))
        if measured is None:
            print("FAIL %s: %s" % (label, problem))
            failures += 1
            continue
        print("%s %-52s paper %-10.4g measured %-10.4g %+6.1f%% "
              "(band +-%.0f%%)"
              % ("FAIL" if problem else "ok  ", label, row["paper"],
                 measured, 100 * deviation, 100 * row["band"]))
        if problem:
            print("     " + problem)
            failures += 1
    print("%d of %d ledger rows within their band"
          % (len(rows) - failures, len(rows)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
