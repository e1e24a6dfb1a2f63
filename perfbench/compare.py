"""Compare two saved outputs of run.py, metric by metric.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one run.  The comparison is
flagged when the runs used different rational backends or Python
versions, whose speeds are not comparable, or measured different
workloads; a differing report digest means the two commits answered
the same inputs with different bytes.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(before_path, after_path):
    (info_a, result_a), (info_b, result_b) = load(before_path), load(after_path)
    flags = []
    for key in ("rational_type", "python"):
        if info_a["env"][key] != info_b["env"][key]:
            flags.append(f"different {key}: {info_a['env'][key]} vs {info_b['env'][key]}")
    for key in ("workload", "seed", "trace"):
        if info_a[key] != info_b[key]:
            flags.append(f"different {key}: {info_a[key]} vs {info_b[key]}")
    if info_a["report_digest"] != info_b["report_digest"]:
        flags.append("report digests differ: the outputs are not byte-identical")
    print(f"{'metric':48s} {'before':>14s} {'after':>14s} {'after/before':>12s}")
    for name, metric in result_a["metrics"].items():
        a = metric["value"]
        b = result_b["metrics"].get(name, {}).get("value")
        ratio = f"{b / a:12.4f}" if b is not None and a else f"{'-':>12s}"
        shown_b = f"{b:14.6g}" if b is not None else f"{'missing':>14s}"
        print(f"{name:48s} {a:14.6g} {shown_b} {ratio}  {metric['unit']}")
    for flag in flags:
        print(f"WARNING: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
